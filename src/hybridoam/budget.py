"""Coincidence-rate bookkeeping for the transfer chain.

budget_report is the one path to every rate-chain number: it multiplies the
stage efficiencies into preparation and detection probabilities and an
expected pair rate, for the budget and for its upgraded chain.  Reference
values: a 6 kHz source, q-plate conversion 0.80, probabilistic transferrers
0.5 each, fiber coupling 0.2, giving p_prep = 0.40, p_det = 0.08 and a model
rate of 192 cps against an observed 100 cps; unlisted losses (detector
efficiency, Alice-arm coupling) presumably account for the gap, and the
report states the ratio instead of inventing a fudge factor.  The two
transfer efficiencies are the one model of the transferrer: a deterministic
stage is an efficiency of 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .states import _Parameters

DEFAULT_OBSERVED_RATE_CPS = 100.0


@dataclass(frozen=True)
class RateBudget(_Parameters):
    """Stage efficiencies of the source-to-detection chain, each in [0, 1],
    and the source's pair rate."""

    _BOUNDS = {"c_source_cps": (0.0,)}
    _KIND = "budget"

    c_source_cps: float = 6000.0
    qplate_eff: float = 0.80
    transfer_prep_eff: float = 0.5
    transfer_det_eff: float = 0.5
    fiber_coupling: float = 0.2


def budget_report(b: RateBudget) -> dict:
    """Rates, probabilities, and the gap between the model and the observed
    DEFAULT_OBSERVED_RATE_CPS, plus the projected gain from the upgraded
    chain scaled off the observed rate.

    Of a chain: p_prep = qplate_eff x transfer_prep_eff, the probability
    the hybrid state is prepared on Bob's photon; p_det = qplate_eff x
    transfer_det_eff x fiber_coupling, the probability Bob's OAM qubit
    survives analysis back to a detector; and the model coincidence rate
    c_source_cps x p_prep x p_det.  The upgraded chain has deterministic
    transferrers (efficiency 1.0) on both stages and doubled fiber
    coupling, capped at 1; its rate over b's is the gain, NaN at a zero rate.
    """

    def chain(budget: RateBudget) -> dict:
        p_prep = budget.qplate_eff * budget.transfer_prep_eff
        p_det = budget.qplate_eff * budget.transfer_det_eff * budget.fiber_coupling
        return {
            "budget": budget.as_dict(),
            "prep_probability": p_prep,
            "det_probability": p_det,
            "expected_rate_cps": budget.c_source_cps * p_prep * p_det,
        }

    upgraded = replace(b, transfer_prep_eff=1.0, transfer_det_eff=1.0,
                       fiber_coupling=min(1.0, 2.0 * b.fiber_coupling))
    report, upgrade = chain(b), chain(upgraded)
    rate = report["expected_rate_cps"]
    gain = upgrade["expected_rate_cps"] / rate if rate > 0 else float("nan")
    return {
        **report,
        "observed_rate_cps": DEFAULT_OBSERVED_RATE_CPS,
        "model_to_observed_ratio": rate / DEFAULT_OBSERVED_RATE_CPS,
        "upgrade": {
            **upgrade,
            "rate_gain": gain,
            "projected_observed_rate_cps": DEFAULT_OBSERVED_RATE_CPS * gain,
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
