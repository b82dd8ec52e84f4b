import warnings

import numpy as np
import pytest

import chsh_oracle
from tomography_oracle import projector
from hybridoam.bell import (
    ChshResult,
    UndefinedCorrelationError,
    chsh_empirical,
    chsh_exact,
    chsh_settings,
    correlation_from_counts,
    predicted_s,
)
from hybridoam.measurement import MeasurementSetting
from hybridoam.source import NoiseModel, prepare_hybrid
from hybridoam.states import OAM_O2, POLARIZATION, DensityMatrix

SINGLET = prepare_hybrid()[0]

S_MAX = 2.0 * np.sqrt(2.0)


def test_settings_are_valid_observables():
    settings = chsh_settings()
    assert len(settings) == 16 and all(s.duration_s == 15.0 for s in settings)
    assert [s.duration_s for s in chsh_settings(8.0)] == [2.0] * 16
    # outcome (i, j) of pair k is setting 4k + 2i + j, and each side's two
    # outcomes are labels of the oracle's orthogonal projectors
    for k, (x, y, _) in enumerate(chsh_oracle.PAIRS):
        pair = settings[4 * k : 4 * k + 4]
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            s = pair[2 * i + j]
            assert np.max(np.abs(projector(s.alice) - chsh_oracle.projectors(x)[i])) < 1e-15
            assert np.max(np.abs(projector(s.bob) - chsh_oracle.projectors(y)[j])) < 1e-15
        for side in ("alice", "bob"):
            plus, minus = (projector(getattr(pair[n], side)) for n in (0, 3))
            assert np.max(np.abs(plus + minus - np.eye(2))) < 1e-15
            op = plus - minus
            assert np.max(np.abs(op @ op - np.eye(2))) < 1e-15  # eigenvalues +-1
    # Bob's analyzers are the theta tags -pi/4 and pi/4, with theta + pi
    # for the minus outcome
    bobs = [settings[j].bob for j in (0, 1)] + [settings[8 + j].bob for j in (0, 1)]
    thetas = [float(b[len("theta="):]) for b in bobs]
    assert np.allclose(thetas, np.array([-1, 3, 1, 5]) * np.pi / 4, rtol=0, atol=1e-15)


def test_tsirelson_value_on_the_ideal_state():
    res = chsh_exact(SINGLET)
    assert abs(res.s - S_MAX) < 1e-12
    assert res.sigma is None and res.mode == "exact"
    c = 1.0 / np.sqrt(2.0)
    assert np.allclose(res.correlations, (c, c, c, -c), atol=1e-12)
    assert res.as_dict()["settings"] == ["a,b", "a',b", "a,b'", "a',b'"]


def test_s_scales_linearly_in_werner_weight():
    for p in (0.0, 0.5, 0.887, 1.0):
        rho, _ = prepare_hybrid(NoiseModel(werner_p=p))
        assert abs(chsh_exact(rho).s - S_MAX * p) < 1e-12


def test_maximally_mixed_state_has_zero_s():
    rho = DensityMatrix(np.eye(4) / 4, (POLARIZATION, OAM_O2))
    assert abs(chsh_exact(rho).s) < 1e-12


def test_correlation_bounds_and_count_estimator():
    assert all(-1.0 <= e <= 1.0 for e in chsh_exact(SINGLET).correlations)
    assert abs(correlation_from_counts([30, 10, 10, 30]) - 0.5) < 1e-12
    assert abs(correlation_from_counts([0, 5, 5, 0]) + 1.0) < 1e-12
    with pytest.raises(ValueError):
        correlation_from_counts([1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        correlation_from_counts([0, 0, 0, 0])
    for bad in ([np.nan, 1, 1, 1], [np.inf, 1, 1, 1], [-1, 1, 0, 0], [10**400, 1, 1, 1]):
        with pytest.raises(ValueError, match="finite and non-negative"):
            correlation_from_counts(bad)
    # finite counts whose total is past float64's range
    with pytest.raises(ValueError, match="finite sum"):
        correlation_from_counts([1e308] * 4)


def _random_noise_model(rng):
    return NoiseModel(
        werner_p=float(rng.uniform(0, 1)),
        dephase_q=float(rng.uniform(0, 1)),
        miscal_angle=float(rng.uniform(-np.pi, np.pi)),
    )


def test_exact_chsh_matches_the_oracle():
    # the count-ratio estimator on exact Born probabilities is Tr[rho (A x B)]
    rng = np.random.default_rng(15)
    states = [SINGLET, DensityMatrix(np.eye(4) / 4, (POLARIZATION, OAM_O2))]
    states += [prepare_hybrid(_random_noise_model(rng))[0] for _ in range(200)]
    for rho in states:
        es, s = chsh_oracle.chsh(rho.matrix)
        res = chsh_exact(rho)
        assert np.max(np.abs(np.array(res.correlations) - es)) <= 1e-14
        assert abs(res.s - s) <= 1e-14


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
    res = chsh_exact(SINGLET)
    d = res.as_dict()
    assert set(d) == {
        "S", "sigma", "violation_sigmas", "settings", "correlations", "mode",
    }
    assert d["violation_sigmas"] is None
    emp = ChshResult(s=2.5, sigma=0.04, correlations=(0.7, 0.7, 0.7, -0.4))
    assert emp.mode == "empirical"
    assert abs(emp.violation_sigmas() - 12.5) < 1e-12


def test_predicted_s_follows_visibility():
    assert abs(predicted_s(1.0) - S_MAX) < 1e-12
    assert abs(predicted_s(0.93) - 0.93 * S_MAX) < 1e-12
    assert abs(predicted_s(0.0)) < 1e-12


_TAGS = (
    "theta=", "theta=nan", "theta=inf", "theta=-inf", "theta=abc", "theta=0.3",
    "theta=-1e300", "H", "+", "+2", "h", "", None, 0.3, b"H", ["H"],
)
_NUMBERS = (
    np.nan, np.inf, -np.inf, -1.0, -1, 0, 0.0, 5e-324, 1.0, 60.0, 1e308,
    True, False, np.True_, np.False_, np.float32(3.0), np.float32(1e30),
    np.float32(np.nan), np.int64(7), 2**64, 10**400, "3", None,
)


def test_fuzzed_chsh_inputs_succeed_or_raise_typed_errors():
    rng = np.random.default_rng(20261019)
    states = (
        SINGLET,
        prepare_hybrid("fitted")[0],
        DensityMatrix(np.eye(4) / 4, (POLARIZATION, OAM_O2)),
    )

    def pick(pool):
        return pool[rng.integers(len(pool))]

    calls = (
        lambda: MeasurementSetting(pick(_TAGS), pick(_TAGS), pick(_NUMBERS)),
        lambda: chsh_settings(pick(_NUMBERS)),
        lambda: chsh_empirical(pick(states), pick(_NUMBERS), pick(_NUMBERS), pick(_NUMBERS)),
        # a valid state and seed, so that a rate and duration reach the draw
        lambda: chsh_empirical(states[1], pick(_NUMBERS), pick(_NUMBERS), 2**64),
        lambda: chsh_exact(pick(states)),
    )
    outcomes = set()
    for case in range(5000):
        call = calls[case % len(calls)]
        # a RuntimeWarning is an error here, whatever the suite's settings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call()
                outcomes.add("ok")
            except ValueError:
                outcomes.add("ValueError")
            except TypeError:
                outcomes.add("TypeError")
    # the draw reaches success and both refusals
    assert outcomes == {"ok", "ValueError", "TypeError"}
