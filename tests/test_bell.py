import numpy as np
import pytest

from hybridoam.bell import (
    ChshResult,
    DichotomicObservable,
    UndefinedCorrelationError,
    chsh_empirical,
    chsh_exact,
    chsh_settings,
    correlation,
    correlation_from_counts,
    observable_from_kets,
    observable_from_labels,
    predicted_s,
)
from hybridoam.source import NoiseModel, hybrid_singlet, prepare_hybrid
from hybridoam.states import OAM_O2, POLARIZATION, DensityMatrix

S_MAX = 2.0 * np.sqrt(2.0)


def test_settings_are_valid_observables():
    a, a_p, b, b_p = chsh_settings()
    for obs in (a, a_p, b, b_p):
        assert np.max(np.abs(obs.plus_proj + obs.minus_proj - np.eye(2))) < 1e-12
        op = obs.operator
        assert np.max(np.abs(op @ op - np.eye(2))) < 1e-12  # eigenvalues +-1
    assert (a.label, a_p.label, b.label, b_p.label) == ("a", "a'", "b", "b'")


def test_tsirelson_value_on_the_ideal_state():
    res = chsh_exact(hybrid_singlet())
    assert abs(res.s - S_MAX) < 1e-12
    assert res.sigma is None and res.mode == "exact"
    c = 1.0 / np.sqrt(2.0)
    assert np.allclose(res.correlations, (c, c, c, -c), atol=1e-12)
    assert res.pair_labels == ("a,b", "a',b", "a,b'", "a',b'")


def test_s_scales_linearly_in_werner_weight():
    for p in (0.0, 0.5, 0.887, 1.0):
        rho, _ = prepare_hybrid(NoiseModel(werner_p=p))
        assert abs(chsh_exact(rho).s - S_MAX * p) < 1e-12


def test_maximally_mixed_state_has_zero_s():
    rho = DensityMatrix(np.eye(4) / 4, (POLARIZATION, OAM_O2))
    assert abs(chsh_exact(rho).s) < 1e-12


def test_correlation_bounds_and_count_estimator():
    rho = hybrid_singlet()
    a, _, b, _ = chsh_settings()
    e = correlation(rho, a, b)
    assert -1.0 <= e <= 1.0
    assert abs(correlation_from_counts([30, 10, 10, 30]) - 0.5) < 1e-12
    assert abs(correlation_from_counts([0, 5, 5, 0]) + 1.0) < 1e-12
    with pytest.raises(ValueError):
        correlation_from_counts([1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        correlation_from_counts([0, 0, 0, 0])
    for bad in ([np.nan, 1, 1, 1], [np.inf, 1, 1, 1], [-1, 1, 0, 0]):
        with pytest.raises(ValueError, match="finite and non-negative"):
            correlation_from_counts(bad)


def test_observable_validation():
    with pytest.raises(ValueError):
        observable_from_kets([1, 0], [1, 0], "degenerate")  # not complete
    with pytest.raises(ValueError):
        DichotomicObservable(np.eye(2), np.zeros((2, 2)), "rank2")
    obs = observable_from_labels("+2", "-2")
    assert obs.label == "{+2,-2}"
    assert np.allclose(obs.operator, np.diag([1, -1]), atol=1e-12)


def test_empirical_chsh_reproducible_and_near_exact():
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.887))
    r1 = chsh_empirical(rho, rate_cps=100.0, duration_s=60.0, seed=0)
    r2 = chsh_empirical(rho, rate_cps=100.0, duration_s=60.0, seed=0)
    assert r1.s == r2.s and r1.sigma == r2.sigma
    assert r1.mode == "empirical"
    assert abs(r1.s - S_MAX * 0.887) < 5 * r1.sigma
    assert 0.01 < r1.sigma < 0.1
    assert r1.violation_sigmas() > 5  # comfortably nonclassical
    with pytest.raises(ValueError):
        chsh_empirical(rho, duration_s=0.0)


def test_empirical_seed_changes_the_draw():
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.887))
    r1 = chsh_empirical(rho, seed=0)
    r2 = chsh_empirical(rho, seed=1)
    assert r1.s != r2.s


def test_result_serialization():
    res = chsh_exact(hybrid_singlet())
    d = res.as_dict()
    assert set(d) == {
        "S", "sigma", "violation_sigmas", "settings", "correlations", "mode",
    }
    assert d["violation_sigmas"] is None
    emp = ChshResult(
        s=2.5, sigma=0.04, correlations=(0.7, 0.7, 0.7, -0.4),
        correlation_sigmas=(0.02,) * 4, mode="empirical",
        pair_labels=("a,b", "a',b", "a,b'", "a',b'"),
    )
    assert abs(emp.violation_sigmas() - 12.5) < 1e-12


def test_predicted_s_follows_visibility():
    assert abs(predicted_s(1.0) - S_MAX) < 1e-12
    assert abs(predicted_s(0.93) - 0.93 * S_MAX) < 1e-12
    assert abs(predicted_s(0.0)) < 1e-12
