"""Labeled qubit bases and small dense linear algebra for two-photon states.

Every state is a two-qubit state, its 4 amplitudes or its 4x4 matrix alone.
The analyzers name the two degrees of freedom, Alice's and then Bob's:

* ``polarization``: 2-dim, computational basis (|H>, |V>)
* ``oam_o2``: 2-dim orbital angular momentum subspace, basis (|+2>, |-2>)

Conventions pinned here and relied on everywhere else:

* circular polarization: |L> = (|H>+i|V>)/sqrt2, |R> = (|H>-i|V>)/sqrt2
* canonical two-qubit ordering {|H,+2>, |H,-2>, |V,+2>, |V,-2>}
* OAM qubit identification: |+2> is logical 0, |-2> is logical 1
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, asdict, dataclass

import numpy as np
from numpy.linalg import _umath_linalg as _lapack  # np.linalg's gufuncs, unwrapped

ATOL = 1e-12        # tolerance for algebraic identities
PSD_FLOOR = -1e-10  # eigenvalue floor for physicality checks

POLARIZATION = "polarization"
OAM_O2 = "oam_o2"

_SQ2 = np.sqrt(2.0)

_POL_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "-": np.array([1.0, -1.0], dtype=complex) / _SQ2,
    "L": np.array([1.0, 1.0j], dtype=complex) / _SQ2,
    "R": np.array([1.0, -1.0j], dtype=complex) / _SQ2,
}

# OAM o2 superpositions; a and d keep their defining global phases
# exp(-i pi/4) and exp(+i pi/4), which drop out of every probability.
_O2_KETS = {
    "+2": np.array([1.0, 0.0], dtype=complex),
    "-2": np.array([0.0, 1.0], dtype=complex),
    "h": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "v": np.array([1.0, -1.0], dtype=complex) / _SQ2,
    "a": np.exp(-1j * np.pi / 4) * np.array([1.0, 1.0j], dtype=complex) / _SQ2,
    "d": np.exp(+1j * np.pi / 4) * np.array([1.0, -1.0j], dtype=complex) / _SQ2,
}

_DEGREE_KETS = {POLARIZATION: _POL_KETS, OAM_O2: _O2_KETS}


class InvalidLabelError(ValueError):
    """Basis label does not exist for the requested degree of freedom."""


def _linalg_error(err, flag):
    raise np.linalg.LinAlgError("LAPACK failed: singular, not definite or not converged")


_RAISE = {"call": _linalg_error, "invalid": "call"}  # np.linalg's errstate rule


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _number(value):
    """A state entry that is a number; a bool, numpy's too, a str, None or
    any other value raises TypeError, where numpy reads "1" and True as 1."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Number):
        raise TypeError(f"a state entry must be a number, got {type(value).__name__}")
    return value


def _complex_array(entries, pairs: bool = False) -> np.ndarray:
    """A state's entries, or with ``pairs`` a JSON block's [re, im] pairs, as
    a read-only complex copy, which leaves the caller's array writable.  An
    ndarray, as the run path passes, is checked by its dtype, any other input
    entry by entry.  An integer past float64's range, such as 10**400, raises
    ValueError as an entry that is not finite, where numpy and complex()
    raise OverflowError."""
    try:
        if pairs:
            seq = (list, tuple)
            if not isinstance(entries, seq) or not all(
                isinstance(row, seq) and all(isinstance(p, seq) and len(p) == 2 for p in row)
                for row in entries
            ):
                raise TypeError("a density-matrix block's 'matrix' must be rows of [re, im] pairs")
            entries = [[complex(_number(re), _number(im)) for re, im in row] for row in entries]
        elif not isinstance(entries, np.ndarray) or entries.dtype == object:
            entries = np.array(entries, dtype=object)
            for value in entries.flat:
                _number(value)
        elif entries.dtype.kind not in "iufc":
            raise TypeError(f"a state's entries must be numbers, got dtype {entries.dtype}")
        return _freeze(np.array(entries, dtype=complex))
    except OverflowError:
        raise ValueError("state has an entry that is not finite") from None


def _real(name: str, value) -> float:
    """A real number as a float.  A bool, numpy's too, or a non-number
    raises TypeError; an integer past float64's range, such as 10**400,
    becomes the infinity of its sign, for the caller's finiteness test."""
    # built-in numbers, which every count, fringe point, rate and duration
    # usually is, skip the ABC checks; a bool is of neither type
    if type(value) is float:
        return value
    if type(value) is not int:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(f"{name} must be a number, got a bool")
        if not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> float:
    """A real input, a model parameter, rate or duration, as a float, so that
    no mean is cast to a narrower type: a real number but not a bool,
    finite, in [lo, hi].  A quantity that must be positive takes
    lo = math.ulp(0.0), the least float above 0."""
    as_float = _real(name, value)
    if not (math.isfinite(as_float) and lo <= as_float <= hi):
        raise ValueError(f"{name} must be finite and lie in [{lo}, {hi}], got {as_float}")
    return as_float


def _check_int(name: str, value, lo: int = 0, hi: float = math.inf) -> int:
    """An integer input, a seed, a stream path element or a count of
    resamples or points, as a Python int: an integer, Python's or numpy's,
    in [lo, hi], as numpy's SeedSequence and the CSV take it.  A bool,
    numpy's too, a float or a non-number raises TypeError; an integer
    outside [lo, hi] ValueError."""
    # a built-in int, which almost every value is, skips the numpy check; a
    # bool is of neither type
    if type(value) is not int:
        if not isinstance(value, np.integer):
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
        value = int(value)
    if not lo <= value <= hi:
        # printed as a float, which even an integer past Python's 4,300-digit
        # string limit can be
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {_real(name, value):.6g}")
    return value


class _Parameters:
    """Base of a frozen dataclass of model parameters, each checked by
    _check_real as it is built and stored as the guard's float, so that a
    numpy scalar computes in float64.  A field lies in [0, 1] unless the
    class's _BOUNDS gives its (lo[, hi]); _KIND names the record in
    from_dict's refusals, of a value that is not a dict (TypeError) and of
    unknown keys."""

    _BOUNDS: dict
    _KIND: str

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            bounds = self._BOUNDS.get(name, (0.0, 1.0))
            object.__setattr__(self, name, _check_real(name, getattr(self, name), *bounds))

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise TypeError(f"{cls._KIND} must be an object, got {type(d).__name__}")
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown {cls._KIND} keys: {sorted(extra)}")
        return cls(**d)


@dataclass(frozen=True)
class StateVector:
    """A unit-norm two-qubit ket, 4 amplitudes in the canonical ordering."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _complex_array(self.amplitudes)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != (4,):
            raise ValueError(f"a two-qubit ket has 4 amplitudes, got shape {amp.shape}")
        norm2 = float(np.vdot(amp, amp).real)
        # a NaN or infinite amplitude fails the norm test
        if not abs(norm2 - 1.0) <= 1e-10:
            raise ValueError(f"state vector is not normalized: |psi|^2 = {norm2}")


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace Hermitian positive 4x4 matrix in the canonical ordering.

    Estimators that can produce indefinite matrices (pre-projection linear
    inversion) construct with ``require_positive=False``.
    """

    matrix: np.ndarray
    require_positive: InitVar[bool] = True

    def __post_init__(self, require_positive):
        mat = _complex_array(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (4, 4):
            raise ValueError(f"a two-qubit density matrix is 4x4, got shape {mat.shape}")
        # a NaN or infinite entry fails the Hermitian test, and so does a
        # difference past float64's range, as inf without numpy's warning.
        # The trace is summed as Python floats, which overflow to inf without
        # the warning too, and inf fails the trace test.  Method calls, not
        # np.max and np.trace, keep the checks cheap on the MLE path.
        with np.errstate(over="ignore", invalid="ignore"):
            asymmetry = abs(mat - mat.conj().T).max()
        if not asymmetry <= 1e-10:
            if np.isinf(mat).any():
                raise ValueError("density matrix has an infinite entry")
            raise ValueError("density matrix is not Hermitian")
        tr = sum(mat.diagonal().real.tolist())
        if not abs(tr - 1.0) <= 1e-10:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        if require_positive:
            with np.errstate(**_RAISE):
                lo = float(_lapack.eigvalsh_lo(mat)[0])
            if lo < PSD_FLOOR:
                raise ValueError(f"density matrix has negative eigenvalue {lo}")


def _clip_to_states(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp negative eigenvalues to zero and renormalize the trace to one,
    on a (..., n, n) stack of Hermitian matrices; also each result's least
    eigenvalue as the projection sets it.  Per matrix, so the same alone and
    in a stack."""
    with np.errstate(**_RAISE):
        w, vecs = _lapack.eigh_lo(mats)
    w = np.clip(w, 0.0, None)
    w = w / w.sum(axis=-1, keepdims=True)
    out = (vecs * w[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    return (out + np.swapaxes(out.conj(), -1, -2)) / 2, w[..., 0]


def matrix_to_json(rho: DensityMatrix) -> dict:
    """Serialize a matrix as {"matrix": row-major [re, im] entry pairs}."""
    entries = [
        [[float(z.real), float(z.imag)] for z in row] for row in rho.matrix
    ]
    return {"matrix": entries}


def matrix_from_json(data: dict, require_positive: bool = True) -> DensityMatrix:
    """The DensityMatrix a matrix_to_json block holds, whatever its other keys,
    such as the "basis" of a block written before 0.35; a rho_linear block
    whose linear inversion went negative needs ``require_positive=False``."""
    if not isinstance(data, dict):
        raise TypeError(f"a density-matrix block must be an object, got {type(data).__name__}")
    if "matrix" not in data:
        raise ValueError("a density-matrix block needs a 'matrix' key")
    mat = _complex_array(data["matrix"], pairs=True)
    return DensityMatrix(mat, require_positive=require_positive)
