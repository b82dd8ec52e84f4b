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
    chsh_records,
)
from hybridoam.measurement import (
    CountRecord,
    MeasurementSetting,
    fit_fringe,
    fringe_scan,
)
from hybridoam.source import NoiseModel, prepare_hybrid
from hybridoam.states import OAM_O2, POLARIZATION, DensityMatrix

SINGLET = prepare_hybrid()[0]

S_MAX = 2.0 * np.sqrt(2.0)


def _settings(duration_s=60.0):
    return [r.setting for r in chsh_records(SINGLET, duration_s=duration_s)]


def test_settings_are_valid_observables():
    settings = _settings()
    assert len(settings) == 16 and all(s.duration_s == 15.0 for s in settings)
    assert [s.duration_s for s in _settings(8.0)] == [2.0] * 16
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


def _table(counts):
    """The 16 CHSH outcome records with the given counts, in draw order."""
    return [CountRecord(s, c, 0) for s, c in zip(_settings(), counts)]


def test_correlation_bounds_and_count_estimator():
    assert all(-1.0 <= e <= 1.0 for e in chsh_exact(SINGLET).correlations)
    # each pair's correlation is the count-ratio estimator on its four counts
    res = ChshResult.from_records(_table([30, 10, 10, 30] * 3 + [0, 5, 5, 0]))
    assert res.correlations == (0.5, 0.5, 0.5, -1.0)
    assert res.s == 0.5 + 0.5 + 0.5 + 1.0
    assert res.correlations == tuple(
        chsh_oracle.correlation_from_counts(q) for q in ([30, 10, 10, 30],) * 3 + ([0, 5, 5, 0],)
    )
    for k in range(4):
        counts = [1] * 16
        counts[4 * k : 4 * k + 4] = [0, 0, 0, 0]
        with pytest.raises(UndefinedCorrelationError):
            ChshResult.from_records(_table(counts))
    # the most counts a record holds, in every outcome, has a finite sum
    assert ChshResult.from_records(_table([2**53] * 16)).correlations == (0.0,) * 4


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


def test_chsh_is_the_analysis_of_its_records():
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.887))
    drawn = chsh_records(rho, rate_cps=50.0, duration_s=30.0, seed=4)
    assert all(isinstance(r.counts, int) and r.seed == 4 for r in drawn)
    assert ChshResult.from_records(drawn) == chsh_empirical(rho, 50.0, 30.0, 4)
    # float counts are exact expectations, with no sigma, whatever the rate
    exact = chsh_records(rho, rate_cps=3.0, duration_s=7.0, exact=True)
    assert all(isinstance(r.counts, float) for r in exact)
    res = ChshResult.from_records(exact)
    assert res.sigma is None
    assert abs(res.s - chsh_exact(rho).s) <= 1e-15
    # an exact table of subnormal means has no Poisson error to compute either
    tiny = ChshResult.from_records(chsh_records(rho, rate_cps=1e-320, exact=True))
    assert tiny.sigma is None and np.isfinite(tiny.s)
    # any other table is refused: short, reordered, relabelled or of mixed durations
    swapped = [drawn[1], drawn[0], *drawn[2:]]
    relabelled = [CountRecord(MeasurementSetting("L", r.setting.bob, r.setting.duration_s),
                              r.counts, r.seed) for r in drawn]
    mixed = [*drawn[:15], CountRecord(MeasurementSetting(drawn[15].setting.alice,
                                                         drawn[15].setting.bob, 1.0), 3, 4)]
    for bad in ([], drawn[:15], drawn + drawn[:1], swapped, relabelled):
        with pytest.raises(ValueError, match="16 outcome settings in draw order"):
            ChshResult.from_records(bad)
    with pytest.raises(ValueError, match=r"different durations: \[1.0, 7.5\] s"):
        ChshResult.from_records(mixed)
    # a table is drawn or exact, not both
    half_exact = [*drawn[:15], CountRecord(drawn[15].setting, 12.0, 4)]
    with pytest.raises(ValueError, match="all draws .* or all expectations"):
        ChshResult.from_records(half_exact)


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
    # on the Werner family the exact S is 2 sqrt(2) V, with V the exact
    # fringe visibility against Bob's |+2>
    grid = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    for p in (1.0, 0.93, 0.0):
        rho = prepare_hybrid(NoiseModel(werner_p=p))[0]
        v = fit_fringe(fringe_scan(rho, "+2", grid, exact=True))[1]
        assert abs(v - p) < 1e-12
        assert abs(chsh_exact(rho).s - chsh_oracle.predicted_s(v)) < 1e-12


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

    drawn = chsh_records(states[1])

    def hostile_table():
        # the drawn table with up to three records dropped, duplicated,
        # relabelled or moved to another duration, or their counts replaced
        records = list(drawn)
        for _ in range(rng.integers(4)):
            i = int(rng.integers(len(records)))
            r = records[i]
            edit = rng.integers(5)
            if edit == 0:
                del records[i]
            elif edit == 1:
                records.insert(int(rng.integers(len(records))), r)
            elif edit == 2:
                records[i] = CountRecord(
                    MeasurementSetting(pick(_TAGS), r.setting.bob, r.setting.duration_s),
                    r.counts, r.seed,
                )
            elif edit == 3:
                records[i] = CountRecord(
                    MeasurementSetting(r.setting.alice, r.setting.bob, pick(_NUMBERS)),
                    r.counts, r.seed,
                )
            else:
                records[i] = CountRecord(r.setting, pick(_NUMBERS), r.seed)
        return records

    calls = (
        lambda: MeasurementSetting(pick(_TAGS), pick(_TAGS), pick(_NUMBERS)),
        lambda: chsh_records(
            pick(states), pick(_NUMBERS), pick(_NUMBERS), pick(_NUMBERS), pick((False, True))
        ),
        lambda: ChshResult.from_records(hostile_table()),
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
