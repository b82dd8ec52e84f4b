"""Two-photon state preparation: polarization singlet, noise, hybrid transfer.

The source emits the polarization singlet (|HV> - |VH>)/sqrt(2).  Real
imperfections are folded into a three-parameter noise channel applied to the
polarization pair before the transfer step (one insertion point keeps the
model identifiable): a Werner admixture, phase damping on Bob, and a coherent
rotation error on Bob.  ``prepare_hybrid`` is the one preparation path: it
applies the channel to the singlet, a module constant, then moves Bob's
qubit onto the +/-2 OAM subspace through the fiber filter and the
transferrer, applied as one compiled 4x4 Kraus operator.  How often the
transferrer succeeds is the rate budget's ``transfer_prep_eff``: 0.5 for the
q-plate and polarizing beamsplitter, 1.0 for the interferometric
realization.

Frame convention: after the transferrer the o2 frame is rotated by a fixed
quarter-turn (h -> |-2>, v -> |+2>, the one free basis choice of the
transfer chain) so that the ideal singlet maps exactly to

    (|H,+2> - |V,-2>) / sqrt(2)

i.e. the net Bob map is the logical NOT in the {H,V} -> {+2,-2} encoding.
All reported observables are free of this convention; it only fixes signs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .budget import RateBudget
from .states import DensityMatrix, StateVector, _freeze, _Parameters

# Reference tomography values the fitted noise preset is tuned to reproduce.
REFERENCE_FIDELITY = 0.957
REFERENCE_LINEAR_ENTROPY = 0.012

# The whole transfer chain acts on a polarization pair as one fixed Kraus
# operator, this unitary times the square root of the transfer efficiency (a
# factor the renormalized output drops): Alice untouched, Bob's qubit carried
# by the pinned transfer H -> h, V -> v and then by the frame alignment
# h -> |-2>, v -> |+2>, which nets to the logical NOT H -> |-2>, V -> |+2>.
# The NOT is written out exactly so that exact zeros of the input stay
# exact; the tests derive it element by element.
_TRANSFER_UNITARY = _freeze(np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]))


# Bob's two computational-basis projectors on the pair, for phase damping.
_EYE2 = _freeze(np.eye(2))
_BOB_PROJECTORS = tuple(
    _freeze(np.kron(_EYE2, np.diag(d))) for d in ([1.0, 0.0], [0.0, 1.0])
)


@dataclass(frozen=True)
class NoiseModel(_Parameters):
    """Three-parameter imperfection model for the polarization pair.

    werner_p:     weight of the input state vs. white noise, in [0, 1].
    dephase_q:    phase-damping weight on Bob's coherences, in [0, 1].
    miscal_angle: coherent rotation error on Bob's qubit, radians.
    """

    _BOUNDS = {"miscal_angle": ()}
    _KIND = "noise"

    werner_p: float = 1.0
    dephase_q: float = 0.0
    miscal_angle: float = 0.0


# The polarization singlet (|HV> - |VH>)/sqrt(2) and the fidelity target
# below are built once and shared, each read-only.
_amp = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
_SINGLET = _freeze(np.outer(_amp, _amp.conj()))
del _amp


@functools.cache
def hybrid_singlet_ket() -> StateVector:
    """Pure state the transfer chain produces from the ideal singlet.

    (|H,+2> - |V,-2>)/sqrt(2) in the {H,V} x {+2,-2} ordering: the singlet
    pattern re-expressed in the hybrid encoding, used as the fidelity target.
    """
    amp = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
    return StateVector(amp)


def prepare_hybrid(
    noise: NoiseModel | str = "ideal", budget: RateBudget = RateBudget()
) -> tuple[DensityMatrix, float]:
    """Full preparation chain: singlet, noise channel, hybrid transfer, with
    the noise a model or a preset name.  Returns the hybrid state and the
    budget's transfer success on the preparation arm, ``budget.transfer_prep_eff``.

    The channel acts on the polarization pair, Bob = second factor, in a
    fixed order: Werner admixture, phase damping in Bob's computational
    basis, then the miscalibration rotation on Bob.  The transferred state
    is renormalized, whatever the transferrer's success.
    """
    if isinstance(noise, str):
        noise = noise_preset(noise)
    elif not isinstance(noise, NoiseModel):
        raise TypeError(f"noise must be a NoiseModel or a preset name, got {type(noise).__name__}")
    if not isinstance(budget, RateBudget):
        raise TypeError(f"budget must be a RateBudget, got {type(budget).__name__}")
    m = noise.werner_p * _SINGLET + (1.0 - noise.werner_p) * np.eye(4) / 4.0
    if noise.dephase_q != 0.0:
        damped = sum(p @ m @ p for p in _BOB_PROJECTORS)
        m = (1.0 - noise.dephase_q) * m + noise.dephase_q * damped
    if noise.miscal_angle != 0.0:
        c, s = np.cos(noise.miscal_angle), np.sin(noise.miscal_angle)
        # kron(I, rotation), with kron's own products so that its zeros
        # keep their signs
        r = (_EYE2[:, None, :, None] * np.array([[c, -s], [s, c]])[:, None, :]).reshape(4, 4)
        m = r @ m @ r.conj().T
    m = (m + m.conj().T) / 2
    m = _TRANSFER_UNITARY @ m @ _TRANSFER_UNITARY.conj().T
    m = (m + m.conj().T) / 2
    return DensityMatrix(m / np.trace(m).real), budget.transfer_prep_eff


def fit_noise_model() -> NoiseModel:
    """Noise parameters hitting the reference fidelity and linear entropy
    exactly.

    Closed form on top of the pure singlet (werner_p = 1): phase damping
    alone sets the mixedness, S_L = (2/3)(1 - (1-q)^2), and the rotation
    then lowers the fidelity without changing it, F = (1 - q/2) cos^2(t).
    A Werner admixture cannot be part of the solution: matching F = 0.957
    that way would force S_L near 0.11, an order of magnitude too mixed, so
    the miscalibration term has to carry the fidelity deficit.  The
    concurrence is then C = 1 - q, not the measured 0.957: the three
    reference values are not simultaneously representable in this model.
    """
    q = 1.0 - np.sqrt(1.0 - 1.5 * REFERENCE_LINEAR_ENTROPY)
    theta = np.arccos(np.sqrt(REFERENCE_FIDELITY / (1.0 - q / 2.0)))
    return NoiseModel(werner_p=1.0, dephase_q=float(q), miscal_angle=float(theta))


# Built once: a NoiseModel is frozen, so every caller can share it.
_PRESETS = {"ideal": NoiseModel(), "fitted": fit_noise_model()}


def noise_preset(name: str) -> NoiseModel:
    """Named noise models: "ideal" (no noise) and "fitted" (reference fit)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown noise preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
