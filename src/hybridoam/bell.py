"""CHSH test on the hybrid state with fixed analyzer settings.

Alice measures polarization observables a = {H,V} and a' = {+,-}; Bob
measures OAM observables b and b', the -pi/8 and +pi/8 rotations of the
{|+2>, |-2>} basis, set by a rotatable polarizer behind the transferrer.
Written as logical Pauli operators these are b = (Z - X)/sqrt(2) and
b' = (Z + X)/sqrt(2), the optimal companions to Z and X, so the ideal
hybrid state reaches S = 2 sqrt(2).

Every analyzer is a label of a MeasurementSetting.  Bob's are scan tags:
the state (cos(theta/2), sin(theta/2)) over (|+2>, |-2>) at theta = -pi/4
(b) and pi/4 (b') for the plus outcome, and at theta + pi, the orthogonal
state, for the minus outcome.

The 16 outcome settings, one projective run per outcome combination of
each setting pair, are counted on the one counting path, with the pair's
duration split evenly over its four outcomes: chsh_records draws their
counts, or takes their unrounded expectations in exact mode, and
ChshResult.from_records analyses such a table, so an exact correlation is
the count-ratio estimator on the Born probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import (
    DEFAULT_RATE_CPS,
    CountRecord,
    _count_records,
    _finite_float,
    _one_duration,
    _tag,
)
from .states import DensityMatrix

# seconds of beam time per setting pair, split over its four outcomes
DEFAULT_PAIR_DURATION_S = 60.0

# the plus- and minus-outcome analyzer labels of each observable
_ANALYZERS = {
    "a": ("H", "V"),
    "a'": ("+", "-"),
    "b": tuple(_tag(k * np.pi / 4) for k in (-1, 3)),
    "b'": tuple(_tag(k * np.pi / 4) for k in (1, 5)),
}
# S = E(a,b) + E(a',b) + E(a,b') - E(a',b')
_PAIRS = (("a", "b", +1), ("a'", "b", +1), ("a", "b'", +1), ("a'", "b'", -1))
_PAIR_LABELS = tuple(f"{x},{y}" for x, y, _ in _PAIRS)
# the (alice, bob) labels of the 16 outcome settings of S; setting 4k + 2i + j
# is outcome (i, j) of pair k
_OUTCOMES = tuple(
    (alice, bob) for x, y, _ in _PAIRS for alice in _ANALYZERS[x] for bob in _ANALYZERS[y]
)


class UndefinedCorrelationError(ValueError):
    """Correlation estimator has no data (all four counts are zero)."""


@dataclass(frozen=True)
class ChshResult:
    """S value with per-pair correlations; sigma is None in exact mode."""

    s: float
    sigma: float | None
    correlations: tuple[float, float, float, float]

    @property
    def mode(self) -> str:
        return "exact" if self.sigma is None else "empirical"

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
            "settings": list(_PAIR_LABELS),
            "correlations": list(self.correlations),
            "mode": self.mode,
        }

    @classmethod
    def from_records(cls, records) -> ChshResult:
        """S from the 16 outcome records of chsh_records, in its order and at
        one duration, or ValueError.  Each pair's correlation is the
        count-ratio estimator [N(++) + N(--) - N(+-) - N(-+)] / N over its
        four outcome counts, undefined (UndefinedCorrelationError) where all
        four are zero.  Float counts are exact expectations, as CountRecord
        holds them, and give no sigma; integer counts are draws, whose
        first-order Poisson errors give sigma.  A table that mixes the two is
        neither, and raises ValueError."""
        records = list(records)
        labels = tuple((r.setting.alice, r.setting.bob) for r in records)
        if labels != _OUTCOMES:
            raise ValueError("CHSH needs its 16 outcome settings in draw order")
        _one_duration((r.setting.duration_s for r in records), ValueError)
        kinds = {type(r.counts) for r in records}
        if len(kinds) > 1:
            raise ValueError("CHSH counts must be all draws (int) or all expectations (float)")
        es, variances = [], []
        for k in range(len(_PAIRS)):
            npp, npm, nmp, nmm = quad = [float(r.counts) for r in records[4 * k : 4 * k + 4]]
            total = sum(quad)
            if total <= 0:
                raise UndefinedCorrelationError("all four outcome counts are zero")
            es.append((npp + nmm - npm - nmp) / total)
            agree, disagree = npp + nmm, npm + nmp
            variances.append((2.0 * np.sqrt(agree * disagree) / (agree + disagree) ** 1.5) ** 2)
        s_val = float(sum(sign * e for (_, _, sign), e in zip(_PAIRS, es)))
        sigma = None if float in kinds else float(np.sqrt(sum(variances)))
        return cls(s_val, sigma, tuple(es))


def chsh_records(
    rho: DensityMatrix, rate_cps: float = DEFAULT_RATE_CPS,
    duration_s: float = DEFAULT_PAIR_DURATION_S, seed: int = 0, exact: bool = False,
) -> list[CountRecord]:
    """The 16 outcome records of S in draw order, outcome (i, j) of pair k at
    index 4k + 2i + j: each setting pair's duration_s split evenly over its
    four outcomes, their counts drawn from the stream (1,) off the global
    seed, or with ``exact`` their expectations."""
    outcome_s = _finite_float(duration_s, "duration", True) / 4.0
    return _count_records(rho, _OUTCOMES, outcome_s, rate_cps, seed, (1,), exact)


def chsh_exact(rho: DensityMatrix) -> ChshResult:
    """S from the Born probabilities of the 16 outcome settings: their
    expected counts at 1 cps for 1 s per outcome."""
    return ChshResult.from_records(chsh_records(rho, 1.0, 4.0, exact=True))


def chsh_empirical(
    rho: DensityMatrix, rate_cps: float = DEFAULT_RATE_CPS,
    duration_s: float = DEFAULT_PAIR_DURATION_S, seed: int = 0,
) -> ChshResult:
    """S, with Poisson error propagation, from the drawn records of chsh_records."""
    return ChshResult.from_records(chsh_records(rho, rate_cps, duration_s, seed))

