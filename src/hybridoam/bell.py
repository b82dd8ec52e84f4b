"""CHSH test on the hybrid state with fixed analyzer settings.

Alice measures polarization observables a = {H,V} and a' = {+,-}; Bob
measures OAM observables b and b', the -pi/8 and +pi/8 rotations of the
{|+2>, |-2>} basis.  Written as logical Pauli operators these are
b = (Z - X)/sqrt(2) and b' = (Z + X)/sqrt(2), the optimal companions to
Z and X, so the ideal hybrid state reaches S = 2 sqrt(2).

The minus-outcome vector of b is the orthogonal completion
sin(pi/8)|+2> + cos(pi/8)|-2> of its plus vector; a dichotomic observable
must satisfy the completeness invariant, which pins the sign.

Empirical mode draws the four outcome counts of each setting pair from
four separate projective runs (16 runs total, one analyzer per side at a
time), splitting the per-pair duration evenly across outcomes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measurement import _born_counts, _stream
from .states import ATOL, DensityMatrix, _freeze, basis_ket

_COS8 = np.cos(np.pi / 8)
_SIN8 = np.sin(np.pi / 8)

_OUTCOME_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (++, +-, -+, --)


class UndefinedCorrelationError(ValueError):
    """Correlation estimator has no data (all four counts are zero)."""


@dataclass(frozen=True)
class DichotomicObservable:
    """A +/-1-valued local measurement given by two orthogonal projectors."""

    plus_proj: np.ndarray
    minus_proj: np.ndarray
    label: str

    def __post_init__(self):
        pp = np.asarray(self.plus_proj, dtype=complex)
        pm = np.asarray(self.minus_proj, dtype=complex)
        object.__setattr__(self, "plus_proj", pp)
        object.__setattr__(self, "minus_proj", pm)
        for p, who in ((pp, "plus"), (pm, "minus")):
            # written so that NaN fails the tolerance tests
            if not (np.max(np.abs(p @ p - p)) <= ATOL and abs(np.trace(p).real - 1) <= ATOL):
                raise ValueError(f"{who} projector of {self.label!r} is not rank 1")
        if not np.max(np.abs(pp + pm - np.eye(2))) <= ATOL:
            raise ValueError(f"observable {self.label!r} is not complete")

    @property
    def operator(self) -> np.ndarray:
        return self.plus_proj - self.minus_proj

    def projector(self, outcome: int) -> np.ndarray:
        return self.plus_proj if outcome == 0 else self.minus_proj


def observable_from_kets(plus, minus, label: str) -> DichotomicObservable:
    plus = np.asarray(plus, dtype=complex)
    minus = np.asarray(minus, dtype=complex)
    return DichotomicObservable(
        plus_proj=np.outer(plus, plus.conj()),
        minus_proj=np.outer(minus, minus.conj()),
        label=label,
    )


def observable_from_labels(plus: str, minus: str, label: str = "") -> DichotomicObservable:
    """Observable from two named basis states, e.g. ("+2", "-2")."""
    kp = basis_ket(plus)
    km = basis_ket(minus)
    return observable_from_kets(
        kp.amplitudes, km.amplitudes, label or f"{{{plus},{minus}}}"
    )


def chsh_settings() -> tuple[DichotomicObservable, ...]:
    """The four analyzers (a, a', b, b') used for the S measurement."""
    a = observable_from_labels("H", "V", "a")
    a_p = observable_from_labels("+", "-", "a'")
    b = observable_from_kets([_COS8, -_SIN8], [_SIN8, _COS8], "b")
    b_p = observable_from_kets([_COS8, _SIN8], [_SIN8, -_COS8], "b'")
    return a, a_p, b, b_p


def correlation(
    rho: DensityMatrix, a: DichotomicObservable, b: DichotomicObservable
) -> float:
    """Exact correlation E(A,B) = Tr[rho (A x B)] with A, B = Pi+ - Pi-."""
    if rho.dim != 4:
        raise ValueError("correlation expects a two-qubit state")
    e = float(np.trace(rho.matrix @ np.kron(a.operator, b.operator)).real)
    if abs(e) > 1.0 + ATOL:
        raise ValueError(f"correlation {e} outside [-1, 1]")
    return e


def correlation_from_counts(records) -> float:
    """Count-ratio estimator [N(++) + N(--) - N(+-) - N(-+)] / total.

    ``records`` holds the four outcome counts in the order ++, +-, -+, --
    (CountRecord instances or plain integers).
    """
    counts = [float(getattr(r, "counts", r)) for r in records]
    if len(counts) != 4:
        raise ValueError(f"need exactly 4 outcome counts, got {len(counts)}")
    # NaN fails the test
    if not all(0.0 <= c < math.inf for c in counts):
        raise ValueError(f"outcome counts must be finite and non-negative, got {counts}")
    total = sum(counts)
    if total <= 0:
        raise UndefinedCorrelationError("all four outcome counts are zero")
    npp, npm, nmp, nmm = counts
    return (npp + nmm - npm - nmp) / total


def _correlation_sigma(counts) -> float:
    """First-order Poisson error of the count-ratio estimator."""
    npp, npm, nmp, nmm = (float(c) for c in counts)
    agree, disagree = npp + nmm, npm + nmp
    total = agree + disagree
    if total <= 0:
        raise UndefinedCorrelationError("all four outcome counts are zero")
    return 2.0 * np.sqrt(agree * disagree) / total ** 1.5


@dataclass(frozen=True)
class ChshResult:
    """S value with per-pair correlations; sigma is None in exact mode."""

    s: float
    sigma: float | None
    correlations: tuple[float, float, float, float]
    correlation_sigmas: tuple[float, float, float, float] | None
    mode: str
    pair_labels: tuple[str, str, str, str]

    def violation_sigmas(self) -> float | None:
        """How many sigma the classical bound |S| <= 2 is exceeded by."""
        if self.sigma is None or self.sigma == 0:
            return None
        return (abs(self.s) - 2.0) / self.sigma

    def as_dict(self) -> dict:
        return {
            "S": self.s,
            "sigma": self.sigma,
            "violation_sigmas": self.violation_sigmas(),
            "settings": list(self.pair_labels),
            "correlations": list(self.correlations),
            "mode": self.mode,
        }


@functools.cache
def _compiled() -> tuple[tuple, np.ndarray]:
    """The signed setting pairs of S and their (16, 4, 4) outcome operator
    stack, built once; row 4k + 2i + j is outcome (i, j) of pair k."""
    a, a_p, b, b_p = chsh_settings()
    # S = E(a,b) + E(a',b) + E(a,b') - E(a',b')
    pairs = ((a, b, +1), (a_p, b, +1), (a, b_p, +1), (a_p, b_p, -1))
    ops = np.stack([
        np.kron(x.projector(i), y.projector(j)) for x, y, _ in pairs for i, j in _OUTCOME_PAIRS
    ])
    return pairs, _freeze(ops)


def chsh_exact(rho: DensityMatrix) -> ChshResult:
    """S from exact Born-rule correlations."""
    pairs, _ = _compiled()
    es = [correlation(rho, a, b) for a, b, _ in pairs]
    s = sum(sign * e for (_, _, sign), e in zip(pairs, es))
    return ChshResult(
        s=float(s),
        sigma=None,
        correlations=tuple(es),
        correlation_sigmas=None,
        mode="exact",
        pair_labels=tuple(f"{a.label},{b.label}" for a, b, _ in pairs),
    )


def chsh_empirical(
    rho: DensityMatrix,
    rate_cps: float = 100.0,
    duration_s: float = 60.0,
    seed: int = 0,
) -> ChshResult:
    """S from simulated projective runs with Poisson error propagation.

    Each of the four setting pairs gets duration_s of beam time, split
    evenly over its four outcome combinations.  The 16 counts, outcome
    (i, j) of pair k at index 4k + 2i + j, are drawn in that order from the
    stream (1,) off the global seed.
    """
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration_s}")
    pairs, ops = _compiled()
    n = len(_OUTCOME_PAIRS)
    _, counts = _born_counts(
        rho, ops, rate_cps, [duration_s / 4.0] * len(ops), _stream(seed, (1,))
    )
    es, sigmas = [], []
    for k in range(len(pairs)):
        pair_counts = counts[n * k : n * (k + 1)]
        es.append(correlation_from_counts(pair_counts))
        sigmas.append(_correlation_sigma(pair_counts))
    s_val = sum(sign * e for (_, _, sign), e in zip(pairs, es))
    sigma_s = float(np.sqrt(sum(sg ** 2 for sg in sigmas)))
    return ChshResult(
        s=float(s_val),
        sigma=sigma_s,
        correlations=tuple(es),
        correlation_sigmas=tuple(sigmas),
        mode="empirical",
        pair_labels=tuple(f"{a.label},{b.label}" for a, b, _ in pairs),
    )


def predicted_s(visibility: float) -> float:
    """S of a state whose correlations are uniformly scaled by a visibility.

    S = 2 sqrt(2) x V, the Werner-family relation.  Real data may deviate
    when the visibility reduction is not basis-uniform.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    return float(2.0 * np.sqrt(2.0) * visibility)
