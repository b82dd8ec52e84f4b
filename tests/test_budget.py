import numpy as np
import pytest

from hybridoam.budget import (
    DEFAULT_OBSERVED_RATE_CPS,
    RateBudget,
    budget_report,
    det_probability,
    expected_rate,
    format_report,
    prep_probability,
    upgraded_budget,
)


def test_default_chain_probabilities():
    b = RateBudget()
    # 0.8 qplate x 0.5 transferrer on the prep arm
    assert abs(prep_probability(b) - 0.40) < 1e-12
    # 0.8 x 0.5 x 0.2 fiber on the detection arm
    assert abs(det_probability(b) - 0.08) < 1e-12
    assert abs(expected_rate(b) - 192.0) < 1e-9


def test_upgrade_projection():
    b = RateBudget()
    up = upgraded_budget(b)
    assert up.transfer_prep_eff == up.transfer_det_eff == 1.0
    assert abs(up.fiber_coupling - 0.4) < 1e-12
    # 2x per transferrer, 2x fiber: 8x overall
    gain = expected_rate(up) / expected_rate(b)
    assert abs(gain - 8.0) < 1e-12
    # cap at unity
    near = RateBudget(fiber_coupling=0.7)
    assert abs(upgraded_budget(near).fiber_coupling - 1.0) < 1e-12


def test_deterministic_flags_change_single_stages():
    # a deterministic transferrer is a transfer efficiency of 1.0
    base = RateBudget()
    det_prep = RateBudget(transfer_prep_eff=1.0)
    assert abs(prep_probability(det_prep) - 0.80) < 1e-12
    assert abs(det_probability(det_prep) - det_probability(base)) < 1e-12
    det_det = RateBudget(transfer_det_eff=1.0)
    assert abs(det_probability(det_det) - 0.16) < 1e-12
    assert abs(expected_rate(det_det) / expected_rate(base) - 2.0) < 1e-12


def test_validation():
    with pytest.raises(ValueError):
        RateBudget(qplate_eff=1.2)
    with pytest.raises(ValueError):
        RateBudget(fiber_coupling=-0.1)
    with pytest.raises(ValueError):
        RateBudget(c_source_cps=-1.0)
    with pytest.raises(ValueError, match="c_source_cps"):
        RateBudget(c_source_cps=10**400)


def test_numpy_scalar_efficiencies_compute_in_float64():
    # every field is stored as the guard's float, so the probabilities and
    # the rate are Python floats whatever scalar type the caller passed
    narrow = RateBudget(6000, np.float32(0.8), np.float16(0.5), np.float32(0.5), np.float32(0.2))
    assert all(type(v) is float for v in narrow.as_dict().values())
    assert type(prep_probability(narrow)) is float
    assert prep_probability(narrow) == float(np.float32(0.8)) * 0.5
    assert type(expected_rate(narrow)) is float
    assert narrow.as_dict()["c_source_cps"] == 6000.0


def test_dict_roundtrip():
    b = RateBudget(qplate_eff=0.9, transfer_det_eff=1.0)
    assert RateBudget.from_dict(b.as_dict()) == b
    with pytest.raises(ValueError):
        RateBudget.from_dict({"qplate_eff": 0.9, "mirror_loss": 0.01})


def test_report_contents():
    rep = budget_report(RateBudget())
    assert abs(rep["prep_probability"] - 0.40) < 1e-12
    assert abs(rep["det_probability"] - 0.08) < 1e-12
    assert abs(rep["expected_rate_cps"] - 192.0) < 1e-9
    assert rep["observed_rate_cps"] == DEFAULT_OBSERVED_RATE_CPS
    # model over-predicts the observed rate; the gap is reported, not hidden
    assert abs(rep["model_to_observed_ratio"] - 1.92) < 1e-12
    up = rep["upgrade"]
    assert abs(up["rate_gain"] - 8.0) < 1e-12
    assert abs(up["projected_observed_rate_cps"] - 800.0) < 1e-9


def test_format_report_rows():
    text = format_report(budget_report(RateBudget()))
    assert "p_prep" in text and "0.4000" in text
    assert "p_det" in text and "0.0800" in text
    assert "192.0" in text and "800.0" in text
    assert "model / observed" in text


def test_zero_rate_edges():
    rep = budget_report(RateBudget(c_source_cps=0.0))
    assert rep["expected_rate_cps"] == 0.0
    assert rep["upgrade"]["rate_gain"] != rep["upgrade"]["rate_gain"]  # NaN
