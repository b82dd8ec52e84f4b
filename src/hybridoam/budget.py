"""Coincidence-rate bookkeeping for the transfer chain.

Multiplies the stage efficiencies into preparation and detection
probabilities and an expected pair rate.  Reference values: a 6 kHz source,
q-plate conversion 0.80, probabilistic transferrers 0.5 each, fiber
coupling 0.2, giving p_prep = 0.40, p_det = 0.08 and a model rate of
192 cps against an observed 100 cps; unlisted losses (detector efficiency,
Alice-arm coupling) presumably account for the gap, and the report states
the ratio instead of inventing a fudge factor.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from .states import _check_real

DEFAULT_OBSERVED_RATE_CPS = 100.0


@dataclass(frozen=True)
class RateBudget:
    """Stage efficiencies of the source-to-detection chain."""

    c_source_cps: float = 6000.0
    qplate_eff: float = 0.80
    transfer_prep_eff: float = 0.5
    transfer_det_eff: float = 0.5
    fiber_coupling: float = 0.2
    deterministic_prep: bool = False
    deterministic_det: bool = False

    def __post_init__(self):
        _check_real("c_source_cps", self.c_source_cps, 0.0)
        for name in ("qplate_eff", "transfer_prep_eff", "transfer_det_eff",
                     "fiber_coupling"):
            _check_real(name, getattr(self, name), 0.0, 1.0)
        for name in ("deterministic_prep", "deterministic_det"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be true or false, got {getattr(self, name)!r}")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RateBudget":
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown budget keys: {sorted(extra)}")
        return cls(**d)


def prep_probability(b: RateBudget) -> float:
    """Probability the hybrid state is prepared on Bob's photon."""
    transfer = 1.0 if b.deterministic_prep else b.transfer_prep_eff
    return b.qplate_eff * transfer


def det_probability(b: RateBudget) -> float:
    """Probability Bob's OAM qubit survives analysis back to a detector."""
    transfer = 1.0 if b.deterministic_det else b.transfer_det_eff
    return b.qplate_eff * transfer * b.fiber_coupling


def expected_rate(b: RateBudget) -> float:
    """Model coincidence rate: source rate x p_prep x p_det."""
    return b.c_source_cps * prep_probability(b) * det_probability(b)


def upgraded_budget(b: RateBudget, fiber_coupling: float | None = None) -> RateBudget:
    """The projected improved chain: deterministic transferrers on both
    stages and (by default) doubled fiber coupling, capped at 1."""
    if fiber_coupling is None:
        fiber_coupling = min(1.0, 2.0 * b.fiber_coupling)
    return replace(
        b,
        deterministic_prep=True,
        deterministic_det=True,
        fiber_coupling=fiber_coupling,
    )


def budget_report(
    b: RateBudget | None = None,
    observed_rate_cps: float = DEFAULT_OBSERVED_RATE_CPS,
    upgrade: RateBudget | None = None,
) -> dict:
    """Rates, probabilities, and the observed-vs-model gap, plus the
    projected gain from the upgraded chain scaled off the observed rate."""
    if b is None:
        b = RateBudget()
    if upgrade is None:
        upgrade = upgraded_budget(b)
    rate = expected_rate(b)
    up_rate = expected_rate(upgrade)
    gain = up_rate / rate if rate > 0 else float("nan")
    return {
        "budget": b.as_dict(),
        "prep_probability": prep_probability(b),
        "det_probability": det_probability(b),
        "expected_rate_cps": rate,
        "observed_rate_cps": observed_rate_cps,
        "model_to_observed_ratio": rate / observed_rate_cps
        if observed_rate_cps > 0
        else float("nan"),
        "upgrade": {
            "budget": upgrade.as_dict(),
            "prep_probability": prep_probability(upgrade),
            "det_probability": det_probability(upgrade),
            "expected_rate_cps": up_rate,
            "rate_gain": gain,
            "projected_observed_rate_cps": observed_rate_cps * gain,
        },
    }


def format_report(report: dict) -> str:
    """Fixed-width table rendering of a budget report."""
    rows = [
        ("p_prep", f"{report['prep_probability']:.4f}"),
        ("p_det", f"{report['det_probability']:.4f}"),
        ("model rate (cps)", f"{report['expected_rate_cps']:.1f}"),
        ("observed rate (cps)", f"{report['observed_rate_cps']:.1f}"),
        ("model / observed", f"{report['model_to_observed_ratio']:.2f}"),
        ("upgraded rate gain", f"{report['upgrade']['rate_gain']:.2f}"),
        (
            "projected rate (cps)",
            f"{report['upgrade']['projected_observed_rate_cps']:.1f}",
        ),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v:>8}" for k, v in rows)
