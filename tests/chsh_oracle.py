"""The CHSH analyzers and exact correlations in raw numpy: the oracle the
tests hold ``hybridoam.bell`` to.

Each observable is a pair of orthogonal kets for its plus and minus
outcomes: Alice's over (|H>, |V>), Bob's over (|+2>, |-2>).  Bob's b and b'
are the -pi/8 and +pi/8 rotations of the {|+2>, |-2>} basis, written out
with cos(pi/8) and sin(pi/8).  The exact correlation of a pair is
E(A, B) = Tr[rho (A x B)] with A = Pi+ - Pi-.
"""

import numpy as np

S2 = np.sqrt(2.0)
C8, S8 = np.cos(np.pi / 8), np.sin(np.pi / 8)

KETS = {
    "a": ([1.0, 0.0], [0.0, 1.0]),
    "a'": ([1 / S2, 1 / S2], [1 / S2, -1 / S2]),
    "b": ([C8, -S8], [S8, C8]),
    "b'": ([C8, S8], [S8, -C8]),
}
# S = E(a,b) + E(a',b) + E(a,b') - E(a',b')
PAIRS = (("a", "b", 1), ("a'", "b", 1), ("a", "b'", 1), ("a'", "b'", -1))


def projectors(name):
    """The plus- and minus-outcome projectors of an observable."""
    return [np.outer(k, np.conj(k)).astype(complex) for k in map(np.array, KETS[name])]


def observable(name):
    plus, minus = projectors(name)
    return plus - minus


def correlation(rho, x, y):
    """E(x, y) = Tr[rho (x x y)] for a 4x4 density matrix."""
    return float(np.trace(rho @ np.kron(observable(x), observable(y))).real)


def chsh(rho):
    """The four pair correlations, in PAIRS order, and S."""
    es = [correlation(rho, x, y) for x, y, _ in PAIRS]
    return es, sum(sign * e for (_, _, sign), e in zip(PAIRS, es))


def outcome_probabilities(rho, x, y):
    """Born probabilities of the outcomes (i, j) of a pair, in the order
    ++, +-, -+, --."""
    return [
        np.trace(rho @ np.kron(px, py)).real
        for px in projectors(x) for py in projectors(y)
    ]


def correlation_from_counts(counts):
    """The count-ratio estimator [N(++) + N(--) - N(+-) - N(-+)] / N of a
    pair's four outcome counts in the order ++, +-, -+, --."""
    npp, npm, nmp, nmm = (float(c) for c in counts)
    return (npp + nmm - npm - nmp) / (npp + npm + nmp + nmm)


def predicted_s(visibility):
    """S of a state whose correlations are uniformly scaled by a visibility:
    S = 2 sqrt(2) x V, the Werner-family relation."""
    return 2.0 * S2 * visibility
