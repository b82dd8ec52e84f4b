"""Labeled qubit bases and small dense linear algebra for two-photon states.

Every state is expressed over an ordered tuple of tensor factors.  The factor
kinds used throughout the package:

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
from dataclasses import dataclass
from typing import Iterable

import numpy as np

ATOL = 1e-12        # tolerance for algebraic identities
PSD_FLOOR = -1e-10  # eigenvalue floor for physicality checks
# project_to_physical refuses larger entries: the clipped spectrum of an
# n x n matrix sums to at most n^2 times its largest entry, which then stays
# finite for any n below 10^4
_MAX_ENTRY = 1e300

POLARIZATION = "polarization"
OAM_O2 = "oam_o2"

FACTOR_DIMS = {POLARIZATION: 2, OAM_O2: 2}

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
# every label names a state of one degree only
_LABEL_DEGREE = {name: degree for degree, kets in _DEGREE_KETS.items() for name in kets}


class InvalidLabelError(ValueError):
    """Basis label does not exist for the requested degree of freedom."""


class DegenerateInputError(ValueError):
    """Input matrix carries no usable weight (e.g. all eigenvalues <= 0)."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _dimension(basis: tuple) -> int:
    """Dimension of the space a tuple of tensor factors spans."""
    try:
        return math.prod(FACTOR_DIMS[f] for f in basis)
    except KeyError as err:
        raise InvalidLabelError(f"unknown tensor factor: {err.args[0]!r}") from None


def _check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf):
    """A model parameter: a real number but not a bool, finite, in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and lo <= value <= hi):
        raise ValueError(f"{name} must be finite and lie in [{lo}, {hi}], got {value!r}")
    return value


@dataclass(frozen=True)
class StateVector:
    """A unit-norm ket over an ordered tuple of tensor factors."""

    amplitudes: np.ndarray
    basis: tuple[str, ...]

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", _freeze(amp))
        object.__setattr__(self, "basis", tuple(self.basis))
        expected = _dimension(self.basis)
        if amp.size != expected:
            raise ValueError(
                f"amplitude length {amp.size} does not match factors {self.basis}"
            )
        norm2 = float(np.vdot(amp, amp).real)
        # a NaN or infinite amplitude fails the norm test
        if not abs(norm2 - 1.0) <= 1e-10:
            raise ValueError(f"state vector is not normalized: |psi|^2 = {norm2}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace Hermitian positive matrix over an ordered tuple of tensor
    factors.

    Estimators that can produce indefinite matrices (pre-projection linear
    inversion) construct with ``require_positive=False``.
    """

    matrix: np.ndarray
    basis: tuple[str, ...]
    require_positive: bool = True

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", _freeze(mat))
        object.__setattr__(self, "basis", tuple(self.basis))
        expected = _dimension(self.basis)
        if mat.shape != (expected, expected):
            raise ValueError(
                f"matrix shape {mat.shape} does not match factors {self.basis}"
            )
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
        if self.require_positive:
            lo = float(np.linalg.eigvalsh(mat)[0])
            if lo < PSD_FLOOR:
                raise ValueError(f"density matrix has negative eigenvalue {lo}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def basis_ket(label: str) -> StateVector:
    """Return the defining superposition for a named basis state."""
    degree = _LABEL_DEGREE.get(label)
    if degree is None:
        raise InvalidLabelError(f"unknown basis label: {label!r}")
    return StateVector(_DEGREE_KETS[degree][label].copy(), (degree,))


def project_to_physical(rho, basis: Iterable[str] | None = None) -> DensityMatrix:
    """Clamp negative eigenvalues to zero and renormalize the trace to one.

    Accepts a DensityMatrix or a raw Hermitian ndarray (then ``basis`` names
    its factors).  Idempotent on matrices that are already physical.
    """
    return _projection(rho, basis)[0]


def _projection(rho, basis: Iterable[str] | None = None) -> tuple[DensityMatrix, np.ndarray]:
    """project_to_physical, and its least clipped, renormalized eigenvalue."""
    if isinstance(rho, DensityMatrix):
        mat = rho.matrix
        basis = rho.basis
    else:
        mat = np.asarray(rho, dtype=complex)
        if basis is None:
            if mat.shape == (4, 4):
                basis = (POLARIZATION, OAM_O2)
            elif mat.shape == (2, 2):
                basis = (POLARIZATION,)
            else:
                raise ValueError("basis factors required for raw matrix input")
    with np.errstate(over="ignore"):  # a modulus past float64's range is inf
        size = np.max(np.abs(mat))
    # refused first, so that neither inf - inf nor an overflow warns below;
    # NaN passes on to fail the Hermitian test
    if size > _MAX_ENTRY:
        raise ValueError(
            f"project_to_physical requires finite entries of modulus at most {_MAX_ENTRY:g}"
        )
    if not np.max(np.abs(mat - mat.conj().T)) <= 1e-9:
        raise ValueError("project_to_physical requires a Hermitian matrix")
    mat, least = _clip_to_states((mat + mat.conj().T) / 2)
    return DensityMatrix(mat, tuple(basis)), least


def _clip_to_states(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """project_to_physical on a (..., n, n) stack of Hermitian matrices, and
    each result's least eigenvalue as the projection sets it, clipped and
    renormalized: per matrix, so the same alone and in a stack."""
    w, vecs = np.linalg.eigh(mats)
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise DegenerateInputError("matrix has no positive spectral weight")
    w = w / total
    out = (vecs * w[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    return (out + np.swapaxes(out.conj(), -1, -2)) / 2, w[..., 0]


def matrix_to_json(rho: DensityMatrix) -> dict:
    """Serialize a matrix as row-major [re, im] entry pairs plus factor labels."""
    entries = [
        [[float(z.real), float(z.imag)] for z in row] for row in rho.matrix
    ]
    return {"matrix": entries, "basis": list(rho.basis)}


def matrix_from_json(data: dict, **kwargs) -> DensityMatrix:
    rows = data["matrix"]
    mat = np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=complex
    )
    return DensityMatrix(mat, tuple(data["basis"]), **kwargs)
