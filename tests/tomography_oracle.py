"""Linear inversion, physical projection, the Poisson log-likelihood and the
trace distance of 36-setting count tables in raw numpy: the oracle the
tests hold ``hybridoam.tomography`` to.

Each analyzer's projector P is built here from its label's ket, and its
Pauli axis and sign are read off P as the one Pauli matrix sigma with
Tr(P sigma) = +-1; a setting belongs to the basis pair of its two axes.  A
Pauli expectation is the signed sum of a basis pair's within-pair
frequencies; a single-side expectation is averaged over the partner's
three bases.  The log-likelihood is Poisson with each
basis pair's observed total as the scale.
"""

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
S2 = np.sqrt(2.0)
# each analyzer label's ket: Alice's over (|H>, |V>), Bob's over (|+2>, |-2>);
# a and d carry the global phases exp(-i pi/4) and exp(+i pi/4) of their
# definitions, which drop out of every projector
KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / S2,
    "-": np.array([1.0, -1.0], dtype=complex) / S2,
    "L": np.array([1.0, 1.0j], dtype=complex) / S2,
    "R": np.array([1.0, -1.0j], dtype=complex) / S2,
    "+2": np.array([1.0, 0.0], dtype=complex),
    "-2": np.array([0.0, 1.0], dtype=complex),
    "h": np.array([1.0, 1.0], dtype=complex) / S2,
    "v": np.array([1.0, -1.0], dtype=complex) / S2,
    "a": np.exp(-1j * np.pi / 4) * np.array([1.0, 1.0j], dtype=complex) / S2,
    "d": np.exp(+1j * np.pi / 4) * np.array([1.0, -1.0j], dtype=complex) / S2,
}


def projector(label):
    """The projector of an analyzer label, or of a "theta=<x>" scan tag,
    whose ket is (cos(x/2), sin(x/2))."""
    if label.startswith("theta="):
        theta = float(label[len("theta="):])
        ket = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
    else:
        ket = KETS[label]
    return np.outer(ket, ket.conj())


def setting_projector(setting):
    """Pi_A x Pi_B of a setting, from its two labels."""
    return np.kron(projector(setting.alice), projector(setting.bob))


def _axis(proj):
    """(axis, sign) of a Pauli eigenstate's projector."""
    for axis, sigma in PAULI.items():
        value = np.trace(proj @ sigma).real
        if abs(abs(value) - 1.0) < 1e-12:
            return axis, int(round(value))
    raise ValueError("not a Pauli eigenstate")


def _rows(records):
    """Per record: counts, its basis pair's total, and both (axis, sign)."""
    rows = [
        (float(r.counts), _axis(projector(r.setting.alice)), _axis(projector(r.setting.bob)))
        for r in records
    ]
    totals = {}
    for n, (aa, _), (bb, _) in rows:
        totals[aa, bb] = totals.get((aa, bb), 0.0) + n
    return [(n, totals[a[0], b[0]], a, b) for n, a, b in rows]


def linear_inversion(records):
    """rho = (I + sum of Pauli expectations times their Pauli products) / 4."""
    rho = np.eye(4, dtype=complex) / 4
    for n, total, (aa, sa), (bb, sb) in _rows(records):
        f = n / total
        rho += f * sa * sb * np.kron(PAULI[aa], PAULI[bb]) / 4
        rho += f * sa / 3 * np.kron(PAULI[aa], I2) / 4
        rho += f * sb / 3 * np.kron(I2, PAULI[bb]) / 4
    return rho


def project(matrix):
    """Negative eigenvalues clamped to zero, the trace renormalized to one."""
    w, v = np.linalg.eigh((matrix + matrix.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    return (v * (w / w.sum())) @ v.conj().T


def _loglik_terms(rho, records):
    """n_k log(N_k p_k), -N_k p_k and -log n_k! for each setting k, with N_k
    the total of its basis pair and p_k = Tr(Pi_k rho), floored at 1e-15."""
    terms = []
    for rec, (n, total, _, _) in zip(records, _rows(records)):
        proj = setting_projector(rec.setting)
        lam = total * max(np.trace(proj @ rho).real, 1e-15)
        terms += [n * math.log(lam), -lam, -math.lgamma(n + 1.0)]
    return terms


def log_likelihood(rho, records):
    """The Poisson log-likelihood, as an exactly rounded sum of its terms."""
    return math.fsum(_loglik_terms(rho, records))


def loglik_round_off(rho, records):
    """16 eps times the summed size of the log-likelihood's terms: a bound
    on how far two float64 evaluations of it may differ."""
    return 16 * np.finfo(float).eps * sum(map(abs, _loglik_terms(rho, records)))


def trace_distance(a, b):
    """Half the trace norm of a - b."""
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()
