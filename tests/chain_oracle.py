"""The transfer chain derived element by element in raw numpy: the oracle the
tests hold the compiled operator of ``hybridoam.source`` to.

One photon's space is polarization x (|0>, |+2>, |-2>): the fundamental
spatial mode and the o2 pair.  Conventions:

* q-plate of charge 1: |L,0> -> |R,+2>, |R,0> -> |L,-2>, and a second pass
  inverts it; |L,+2> and |R,-2>, which no fundamental-mode input reaches,
  are padded with the identity so that the plate is exactly unitary.
* pi->o2 transferrer: q-plate, a polarizing beamsplitter transmitting |H>,
  then diag(1, i) in the (h, v) basis, so that H -> h and V -> v.
* o2->pi transferrer: q-plate, the fiber filter onto the fundamental mode,
  then diag(1, -i) on polarization: the exact inverse of the forward map.
* Each transferrer's Kraus operator is scaled so that one pass succeeds with
  ``TRANSFER_SUCCESS[mode]``.
"""

import numpy as np

from hybridoam.source import O2_FRAME_ALIGNMENT, TRANSFER_SUCCESS

S2 = np.sqrt(2.0)
H, V = np.eye(2, dtype=complex)
L, R = (H + 1j * V) / S2, (H - 1j * V) / S2
KET0, KETP2, KETM2 = np.eye(3, dtype=complex)
I2, I3 = np.eye(2), np.eye(3)

# the fiber filter: projector onto the fundamental mode
SMF = np.outer(KET0, KET0)


def _ketbra(ket, bra):
    return np.outer(ket, bra.conj())


QPLATE = sum(
    _ketbra(np.kron(*dst), np.kron(*src))
    for src, dst in [
        ((L, KET0), (R, KETP2)),
        ((R, KET0), (L, KETM2)),
        ((R, KETP2), (L, KET0)),
        ((L, KETM2), (R, KET0)),
        ((L, KETP2), (L, KETP2)),
        ((R, KETM2), (R, KETM2)),
    ]
)

# h and v of the o2 pair, and the rotation closing the forward map:
# diag(1, i) in the (h, v) basis
H_O2, V_O2 = (KETP2 + KETM2) / S2, (KETP2 - KETM2) / S2
_W = _ketbra(KET0, KET0) + _ketbra(H_O2, H_O2) + 1j * _ketbra(V_O2, V_O2)


def forward(mode):
    """Kraus operator of the pi->o2 transferrer."""
    pbs = np.kron(_ketbra(H, H), I3)
    return np.sqrt(2 * TRANSFER_SUCCESS[mode]) * np.kron(I2, _W) @ pbs @ QPLATE


def backward(mode):
    """Kraus operator of the o2->pi transferrer (the readout)."""
    fix = np.kron(np.diag([1.0, -1.0j]), I3)
    return np.sqrt(2 * TRANSFER_SUCCESS[mode]) * fix @ np.kron(I2, SMF) @ QPLATE


def reference_hybrid_state(rho_pol, mode):
    """Bob's photon, in the fundamental mode, through the fiber filter, the
    pi->o2 transferrer and the frame alignment; Bob's polarization is then
    traced out and his OAM restricted to the o2 pair.  Returns the
    renormalized (Alice polarization, Bob o2) matrix and the success
    probability."""
    align = np.eye(3, dtype=complex)
    align[1:, 1:] = O2_FRAME_ALIGNMENT
    bob = np.kron(I2, align) @ forward(mode) @ np.kron(I2, SMF)
    op = np.kron(I2, bob)
    out = op @ np.kron(rho_pol, SMF) @ op.conj().T
    # Alice pol, Bob pol, Bob OAM on each side; trace Bob pol, keep o2
    reduced = np.einsum("abcdbf->acdf", out.reshape(2, 2, 3, 2, 2, 3))
    block = reduced[:, 1:, :, 1:].reshape(4, 4)
    total = np.trace(out).real
    assert abs(np.trace(block).real - total) < 1e-12  # nothing left outside o2
    return block / total, total / np.trace(rho_pol).real
