"""Optical elements as maps on labeled tensor-factor states.

Unitary elements (q-plate, waveplates) conjugate the state; filter elements
(projectors, transferrers) apply a Kraus operator and return an unnormalized
state whose norm or trace carries the success probability.  Callers decide
whether to renormalize or to accumulate the probability.

Frame conventions pinned here:

* q-plate charge 1 on the fundamental mode: |L,0> -> |R,+2>, |R,0> -> |L,-2>,
  extended linearly; a second pass inverts it (|R,+2> -> |L,0>, |L,-2> -> |R,0>).
* polarization-to-OAM transferrer: q-plate, then a polarizing beamsplitter
  transmitting |H>, then one fixed OAM rotation chosen so that H maps to h and
  V maps to v.  The beamsplitter step leaves a relative phase between the
  |+2> and |-2> arms that the fixed rotation absorbs; every observable the
  package reports is invariant under that choice.
* OAM-to-polarization transferrer: the exact inverse map, built from the same
  q-plate followed by the fundamental-mode filter and one fixed polarization
  rotation.
* waveplates: fast-axis angle measured from H, right-handed;
  HWP(t) = [[cos 2t, sin 2t], [sin 2t, -cos 2t]] with the global phase dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    ATOL,
    FACTOR_DIMS,
    OAM_FULL,
    POLARIZATION,
    DensityMatrix,
    StateVector,
    _POL_KETS,
    _resolve_label,
)

DOMAIN_ATOL = 1e-9

UNITARY = "unitary"
FILTER = "filter"

PROBABILISTIC = "probabilistic"
DETERMINISTIC = "deterministic"

# success probability of one transferrer pass, per realization
TRANSFER_SUCCESS = {PROBABILISTIC: 0.5, DETERMINISTIC: 1.0}

# oam_full ordering: (|0>, |+2>, |-2>)
_KET0 = np.array([1.0, 0.0, 0.0], dtype=complex)
_KETP2 = np.array([0.0, 1.0, 0.0], dtype=complex)
_KETM2 = np.array([0.0, 0.0, 1.0], dtype=complex)


class DomainError(ValueError):
    """Input state has support outside the subspace an element is defined on."""


@dataclass(frozen=True)
class OpticalMap:
    """One optical element acting on a contiguous block of tensor factors.

    ``matrix`` is the operator on the acted factors (a unitary, or a Kraus
    operator for filters).  ``domain``, when present, is a projector onto the
    subspace the element is physically defined on; inputs with support outside
    it raise DomainError instead of being silently truncated.
    """

    kind: str
    matrix: np.ndarray
    acts_on: tuple[int, ...]
    factors: tuple[str, ...]
    label: str
    domain: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (UNITARY, FILTER):
            raise ValueError(f"unknown map kind {self.kind!r}")
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "acts_on", tuple(self.acts_on))
        object.__setattr__(self, "factors", tuple(self.factors))
        dim = int(np.prod([FACTOR_DIMS[f] for f in self.factors]))
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match factors")
        if list(self.acts_on) != list(
            range(self.acts_on[0], self.acts_on[0] + len(self.factors))
        ):
            raise ValueError("acts_on must be a contiguous run of factor indices")
        if self.kind == UNITARY:
            err = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
            if err > ATOL:
                raise ValueError(f"unitary map fails U^dag U = I by {err}")


def _embed(m: OpticalMap, basis: tuple[str, ...], op: np.ndarray) -> np.ndarray:
    first = m.acts_on[0]
    for offset, kind in enumerate(m.factors):
        idx = first + offset
        if idx >= len(basis) or basis[idx] != kind:
            raise ValueError(
                f"map {m.label!r} expects factors {m.factors} at {m.acts_on}, "
                f"state has {basis}"
            )
    pre = int(np.prod([FACTOR_DIMS[f] for f in basis[:first]]))
    post = int(np.prod([FACTOR_DIMS[f] for f in basis[first + len(m.factors):]]))
    return np.kron(np.eye(pre), np.kron(op, np.eye(post)))


def _check_domain(m: OpticalMap, state, basis) -> None:
    if m.domain is None:
        return
    comp = _embed(m, basis, np.eye(m.matrix.shape[0]) - m.domain)
    if isinstance(state, StateVector):
        leak = float(np.vdot(state.amplitudes, comp @ state.amplitudes).real)
        total = state.norm_squared()
    else:
        leak = float(np.trace(comp @ state.matrix @ comp).real)
        total = float(np.trace(state.matrix).real)
    if total > 0 and leak > DOMAIN_ATOL * total:
        raise DomainError(
            f"input has weight {leak:.3g} outside the domain of {m.label!r}"
        )


def apply(m: OpticalMap, state):
    """Apply an optical element to a StateVector or DensityMatrix.

    Filter outputs are flagged unnormalized; their norm (trace) relative to
    the input is the success probability.
    """
    _check_domain(m, state, state.basis)
    op = _embed(m, state.basis, m.matrix)
    if isinstance(state, StateVector):
        out = op @ state.amplitudes
        flag = state.unnormalized or m.kind == FILTER
        return StateVector(out, state.basis, unnormalized=flag)
    if isinstance(state, DensityMatrix):
        out = op @ state.matrix @ op.conj().T
        out = (out + out.conj().T) / 2
        flag = state.unnormalized or m.kind == FILTER
        return DensityMatrix(
            out, state.basis, unnormalized=flag,
            require_positive=state.require_positive,
        )
    raise TypeError("apply expects a StateVector or DensityMatrix")


def success_probability(m: OpticalMap, state) -> float:
    """Fraction of the input weight the element transmits (1 for unitaries)."""
    if m.kind == UNITARY:
        _check_domain(m, state, state.basis)
        return 1.0
    if isinstance(state, StateVector):
        before = state.norm_squared()
        after = apply(m, state).norm_squared()
    else:
        before = float(np.trace(state.matrix).real)
        after = float(np.trace(apply(m, state).matrix).real)
    if before <= 0:
        return 0.0
    return float(after / before)


def _qplate_unitary() -> np.ndarray:
    """Charge-1 q-plate on polarization x oam_full, ordering (0, +2, -2).

    Built from the circular-basis action; the two states it cannot reach from
    the fundamental mode (|L,+2>, |R,-2>) are padded with the identity so the
    matrix is exactly unitary.  They sit outside the declared domain and the
    padding never acts on a legal input.
    """
    L = _POL_KETS["L"]
    R = _POL_KETS["R"]
    pairs = [
        (np.kron(L, _KET0), np.kron(R, _KETP2)),
        (np.kron(R, _KET0), np.kron(L, _KETM2)),
        (np.kron(R, _KETP2), np.kron(L, _KET0)),
        (np.kron(L, _KETM2), np.kron(R, _KET0)),
        (np.kron(L, _KETP2), np.kron(L, _KETP2)),
        (np.kron(R, _KETM2), np.kron(R, _KETM2)),
    ]
    u = np.zeros((6, 6), dtype=complex)
    for src, dst in pairs:
        u += np.outer(dst, src.conj())
    return u


_P0 = np.outer(_KET0, _KET0.conj())
_PO2 = np.eye(3, dtype=complex) - _P0

# fixed OAM rotation closing the pi->o2 transferrer: diag(1, i) in the (h, v)
# basis, which turns the raw beamsplitter image (H -> h, V -> -i v) into the
# pinned convention H -> h, V -> v
_H_O2 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_V_O2 = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
_W_HV = np.outer(_H_O2, _H_O2.conj()) + 1j * np.outer(_V_O2, _V_O2.conj())

# fixed polarization rotation closing the o2->pi transferrer: diag(1, -i)
# turns the raw fiber-filtered image into the exact inverse of the forward map
_R_FIX = np.diag([1.0, -1.0j])


def qplate(q: int = 1, acts_on: tuple[int, int] = (0, 1)) -> OpticalMap:
    """Charge-q q-plate on a (polarization, oam_full) factor pair.

    Only q = 1 is supported.  The domain is the fundamental OAM mode, so
    feeding the plate its own o2 output raises DomainError.
    """
    if q != 1:
        raise ValueError("only q-plate charge 1 is supported")
    return OpticalMap(
        kind=UNITARY,
        matrix=_qplate_unitary(),
        acts_on=acts_on,
        factors=(POLARIZATION, OAM_FULL),
        label="qplate(q=1)",
        domain=np.kron(np.eye(2), _P0),
    )


def _transfer_mode_scale(mode: str) -> float:
    if mode not in TRANSFER_SUCCESS:
        raise ValueError(f"unknown transferrer mode {mode!r}")
    # the polarizing-beamsplitter Kraus operators transmit half the weight
    return np.sqrt(2.0 * TRANSFER_SUCCESS[mode])


def transferrer_pi_to_o2(
    mode: str = PROBABILISTIC, acts_on: tuple[int, int] = (0, 1)
) -> OpticalMap:
    """Move a polarization qubit onto the o2 OAM subspace of the same photon.

    alpha|H> + beta|V> on the fundamental mode maps to |H> x (alpha|h> +
    beta|v>).  The probabilistic realization (q-plate plus polarizing
    beamsplitter) succeeds with probability 1/2; the deterministic one
    (interferometric) implements the same map with unit success.
    """
    w3 = np.eye(3, dtype=complex)
    w3[1:, 1:] = _W_HV
    ph = np.outer(_POL_KETS["H"], _POL_KETS["H"].conj())
    kraus = np.kron(np.eye(2), w3) @ np.kron(ph, np.eye(3)) @ _qplate_unitary()
    kraus = _transfer_mode_scale(mode) * kraus
    return OpticalMap(
        kind=FILTER,
        matrix=kraus,
        acts_on=acts_on,
        factors=(POLARIZATION, OAM_FULL),
        label=f"transferrer pi->o2 ({mode})",
        domain=np.kron(np.eye(2), _P0),
    )


def transferrer_o2_to_pi(
    mode: str = PROBABILISTIC, acts_on: tuple[int, int] = (0, 1)
) -> OpticalMap:
    """Move an o2 OAM qubit back onto polarization (inverse of pi->o2).

    Defined on |H> x span{|+2>, |-2>}; the OAM factor is left in the
    fundamental mode.  Success probability 1/2 or 1 as for the forward map.
    """
    kraus = (
        np.kron(_R_FIX, np.eye(3))
        @ np.kron(np.eye(2), _P0)
        @ _qplate_unitary()
    )
    kraus = _transfer_mode_scale(mode) * kraus
    ph = np.outer(_POL_KETS["H"], _POL_KETS["H"].conj())
    return OpticalMap(
        kind=FILTER,
        matrix=kraus,
        acts_on=acts_on,
        factors=(POLARIZATION, OAM_FULL),
        label=f"transferrer o2->pi ({mode})",
        domain=np.kron(ph, _PO2),
    )


def half_waveplate(theta: float, acts_on: tuple[int] = (0,)) -> OpticalMap:
    """Half waveplate at fast-axis angle theta (radians from H)."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    mat = np.array([[c, s], [s, -c]], dtype=complex)
    return OpticalMap(UNITARY, mat, acts_on, (POLARIZATION,), f"HWP({theta:.6g})")


def quarter_waveplate(theta: float, acts_on: tuple[int] = (0,)) -> OpticalMap:
    """Quarter waveplate at fast-axis angle theta (radians from H)."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    mat = rot @ np.diag([1.0, -1.0j]) @ rot.T
    return OpticalMap(UNITARY, mat, acts_on, (POLARIZATION,), f"QWP({theta:.6g})")


def smf_filter(acts_on: tuple[int] = (0,)) -> OpticalMap:
    """Single-mode fiber: projects the OAM factor onto the fundamental mode."""
    return OpticalMap(FILTER, _P0.copy(), acts_on, (OAM_FULL,), "smf m=0 filter")


def polarizer(label, acts_on: tuple[int] = (0,)) -> OpticalMap:
    """Rank-1 polarization projector onto a named analysis state."""
    lab = _resolve_label(label)
    if lab.degree != POLARIZATION:
        raise ValueError(f"polarizer requires a polarization label, got {lab}")
    ket = _POL_KETS[lab.name]
    mat = np.outer(ket, ket.conj())
    return OpticalMap(FILTER, mat, acts_on, (POLARIZATION,), f"polarizer({lab.name})")
