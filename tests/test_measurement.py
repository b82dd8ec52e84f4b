import ast
from pathlib import Path

import numpy as np
import pytest

from hybridoam.measurement import (
    DEFAULT_DURATION_S,
    DEFAULT_RATE_CPS,
    CountRecord,
    FitFailureError,
    MeasurementSetting,
    exact_counts,
    expected_counts,
    fit_fringe,
    fringe_scan,
    fringe_scan_records,
    joint_probability,
    read_counts_csv,
    simulate_counts,
    visibility_minmax,
    write_counts_csv,
)
import hybridoam.bell as bell
import hybridoam.measurement as measurement
import hybridoam.tomography as tomography
from hybridoam.source import NoiseModel, hybrid_singlet, prepare_hybrid
from hybridoam.states import (
    OAM_O2,
    POLARIZATION,
    DensityMatrix,
    StateVector,
    basis_ket,
    project_to_physical,
)

GRID16 = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)


def test_joint_probabilities_of_the_hybrid_singlet():
    rho = hybrid_singlet()
    probs = {
        (a, b): joint_probability(rho, MeasurementSetting(a, b))
        for a in ("H", "V")
        for b in ("+2", "-2")
    }
    assert abs(probs[("H", "+2")] - 0.5) < 1e-12
    assert abs(probs[("V", "-2")] - 0.5) < 1e-12
    assert probs[("H", "-2")] < 1e-12
    assert probs[("V", "+2")] < 1e-12
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    # conjugate-basis correlations persist for the entangled state
    assert abs(joint_probability(rho, MeasurementSetting("+", "v")) - 0.5) < 1e-12
    assert joint_probability(rho, MeasurementSetting("+", "h")) < 1e-12


def test_joint_probability_rejects_wrong_shape():
    with pytest.raises(ValueError):
        joint_probability(
            DensityMatrix(np.diag([1.0, 0.0]), (POLARIZATION,)), MeasurementSetting("H", "+2")
        )


def test_expected_counts_scale():
    rho = hybrid_singlet()
    s = MeasurementSetting("H", "+2", duration_s=15.0)
    assert abs(expected_counts(rho, s, 100.0) - 750.0) < 1e-9
    with pytest.raises(ValueError):
        expected_counts(rho, s, -1.0)


def test_exact_counts_keep_fractional_expectations():
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.25))
    s = MeasurementSetting("H", "+2", duration_s=15.0)
    rec = exact_counts(rho, s, 100.0)
    assert isinstance(rec, CountRecord) and isinstance(rec.counts, float)
    # p = 0.25*0.5 + 0.75*0.25 = 0.3125, times 1500
    assert abs(rec.counts - 468.75) < 1e-9
    assert abs(rec.expected_rate_cps - 31.25) < 1e-9


def _numpy_stream(seed, path):
    """An experiment's stream as numpy's own SeedSequence and default_rng
    build it."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def test_simulate_counts_deterministic_and_unbiased():
    rho = hybrid_singlet()
    s = MeasurementSetting("H", "+2", duration_s=15.0)
    seeds = _numpy_stream(0, (9,)).integers(0, 2**63, size=200)
    a = simulate_counts(rho, s, 100.0, seeds[0])
    b = simulate_counts(rho, s, 100.0, seeds[0])
    assert a.counts == b.counts
    assert isinstance(a.counts, int)
    draws = [simulate_counts(rho, s, 100.0, seed).counts for seed in seeds]
    lam = 750.0
    assert abs(np.mean(draws) - lam) < 3 * np.sqrt(lam / 200)


def test_simulate_counts_draws_as_default_rng_does():
    # a seed below 2**32 is one entropy word, one past 2**64 three, and
    # 2**200 seven; numpy integers are integers
    seeds = [5, 0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 7, 2**200,
             np.uint64(2**63), np.int64(7)]
    rho = hybrid_singlet()
    s = MeasurementSetting("H", "+2")
    for seed in seeds:
        rec = simulate_counts(rho, s, 100.0, seed)
        assert rec.counts == np.random.default_rng(seed).poisson(750.0)
        assert rec.seed == int(seed) and type(rec.seed) is int


def test_experiment_streams_are_distinct_and_reproducible():
    # the same seed gives tomography, CHSH, each fringe scan and the
    # bootstrap streams of their own; numpy builds each from its path
    paths = ((0,), (1,), (2, 0), (2, 1), (3,))
    for seed in (0, 1, 2**64 + 7):
        heads = []
        for path in paths:
            head = measurement._stream(seed, path).integers(0, 2**63, size=4).tolist()
            assert head == measurement._stream(seed, path).integers(0, 2**63, size=4).tolist()
            assert head == _numpy_stream(seed, path).integers(0, 2**63, size=4).tolist()
            heads.append(head)
        heads += [measurement._stream(seed + 1, path).integers(0, 2**63, size=4).tolist()
                  for path in paths]
        assert len({tuple(h) for h in heads}) == 2 * len(paths)
    # through the public entry points: reruns agree, other seeds and scans do not
    rho = hybrid_singlet()
    tomo = [r.counts for r in tomography.simulate_tomography(rho, seed=3)]
    assert tomo == [r.counts for r in tomography.simulate_tomography(rho, seed=3)]
    assert tomo != [r.counts for r in tomography.simulate_tomography(rho, seed=4)]
    chsh = bell.chsh_empirical(rho, seed=3)
    assert chsh == bell.chsh_empirical(rho, seed=3)
    assert chsh.correlations != bell.chsh_empirical(rho, seed=4).correlations


def test_counts_match_numpys_generator_on_each_path(monkeypatch):
    # every experiment's counts are one draw, in canonical setting order,
    # from numpy's default_rng on SeedSequence(seed, spawn_key=path)
    rho, _ = prepare_hybrid("fitted")
    for seed in (0, 2**32, 2**200, np.int64(5)):
        recs = tomography.simulate_tomography(rho, 100.0, 15.0, seed)
        means = [r.expected_rate_cps * 15.0 for r in recs]
        want = _numpy_stream(seed, (0,)).poisson(means).tolist()
        assert [r.counts for r in recs] == want
        for k in (0, 7, 2**32 + 1):
            scan = fringe_scan_records(rho, "h", GRID16, 100.0, 15.0, seed, k)
            means = [r.expected_rate_cps * 15.0 for r in scan]
            assert [r.counts for r in scan] == _numpy_stream(seed, (2, k)).poisson(means).tolist()
        # CHSH: outcome (i, j) of pair k is draw 4k + 2i + j
        a, a_p, b, b_p = bell.chsh_settings()
        rng = _numpy_stream(seed, (1,))
        es = []
        for x, y in ((a, b), (a_p, b), (a, b_p), (a_p, b_p)):
            probs = _chsh_probabilities(rho, x, y)
            means = [max(p, 0.0) * 100.0 * 15.0 for p in probs]
            es.append(bell.correlation_from_counts(rng.poisson(means).tolist()))
        chsh = bell.chsh_empirical(rho, rate_cps=100.0, duration_s=60.0, seed=seed)
        assert chsh.correlations == tuple(es)
        # the bootstrap: resample r is row r of one (n_resamples, 36) draw
        stacks = _bootstrap_stacks(monkeypatch, recs, 100, seed)
        obs = [float(r.counts) for r in recs]
        want = _numpy_stream(seed, (3,)).poisson(obs, size=(100, 36))
        assert np.array_equal(stacks[1:], want)


def _chsh_probabilities(rho, x, y):
    """Born probabilities of the outcomes (i, j) of a CHSH analyzer pair,
    in the order ++, +-, -+, --."""
    return [
        np.trace(rho.matrix @ np.kron(x.projector(i), y.projector(j))).real
        for i in (0, 1) for j in (0, 1)
    ]


def _bootstrap_stacks(monkeypatch, records, n_resamples, seed):
    """The count stack the bootstrap solves: the observed table, then its
    resamples in canonical setting order."""
    stacks, solve = [], tomography._solve

    def spy(counts, start, least):
        stacks.append(counts)
        return solve(counts, start, least)

    with monkeypatch.context() as m:
        m.setattr(tomography, "_solve", spy)
        tomography.metric_uncertainties(records, n_resamples=n_resamples, seed=seed)
    (stack,) = stacks
    return stack


def test_resamples_do_not_depend_on_how_many_are_drawn(monkeypatch):
    rho, _ = prepare_hybrid("fitted")
    recs = tomography.simulate_tomography(rho, seed=6)
    first = _bootstrap_stacks(monkeypatch, recs, 100, 6)
    more = _bootstrap_stacks(monkeypatch, recs, 130, 6)
    assert first.shape == (101, 36) and more.shape == (131, 36)
    assert np.array_equal(more[:101], first)
    assert not np.array_equal(_bootstrap_stacks(monkeypatch, recs, 100, 7), first)


def test_bad_seeds_are_refused_in_draw_and_exact_mode():
    rho = hybrid_singlet()
    s = MeasurementSetting("H", "+2")
    recs = tomography.simulate_tomography(rho)
    refused = ((-1, ValueError), (-(2**70), ValueError), (1.7, TypeError),
               (np.float64(2.0), TypeError), (None, TypeError), ("3", TypeError))
    for bad, error in refused:
        if bad is not None:  # numpy takes None as a request for fresh entropy
            with pytest.raises(error):
                np.random.default_rng(bad)
        runs = (
            lambda: simulate_counts(rho, s, 100.0, bad),
            lambda: exact_counts(rho, s, 100.0, bad),
            lambda: tomography.simulate_tomography(rho, seed=bad),
            lambda: tomography.simulate_tomography(rho, seed=bad, exact=True),
            lambda: fringe_scan_records(rho, "+2", GRID16, seed=bad),
            lambda: fringe_scan_records(rho, "+2", GRID16, seed=bad, exact=True),
            lambda: bell.chsh_empirical(rho, seed=bad),
            lambda: tomography.metric_uncertainties(recs, seed=bad),
        )
        for run in runs:
            with pytest.raises(error):
                run()
    # a scan index is a path element: negative or not an integer, as numpy says
    for bad, error in ((-1, ValueError), (1.7, TypeError)):
        with pytest.raises(error):
            np.random.SeedSequence(0, spawn_key=(2, bad))
        for exact in (False, True):
            with pytest.raises(error):
                fringe_scan_records(rho, "+2", GRID16, scan_index=bad, exact=exact)


def test_stream_derivation_lives_in_measurement():
    """Only measurement.py names numpy's stream machinery."""
    names = {"default_rng", "SeedSequence", "Generator", "PCG64"}

    def referenced(path):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
        return found & names

    package = Path(measurement.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {"bell.py", "tomography.py", "cli.py"} <= {p.name for p in modules}
    for path in modules:
        if path.name == "measurement.py":
            assert referenced(path)  # the scan does see the names where they are
        else:
            assert not referenced(path), path.name


def test_setting_validation():
    with pytest.raises(ValueError):
        MeasurementSetting("H", "+2", duration_s=0.0)
    with pytest.raises(ValueError, match="not a polarization state"):
        MeasurementSetting("+2", "H")  # degrees swapped
    with pytest.raises(ValueError, match="not a polarization state"):
        MeasurementSetting("X", "h")
    # a scan tag names a polarization analyzer only
    with pytest.raises(ValueError, match="not a oam_o2 state"):
        MeasurementSetting("H", "theta=0.3")
    with pytest.raises(ValueError, match="not a oam_o2 state"):
        fringe_scan_records(hybrid_singlet(), "theta=0.3", GRID16)
    with pytest.raises(ValueError):
        CountRecord(MeasurementSetting("H", "+2"), -1, None, 0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CountRecord(MeasurementSetting("H", "+2"), bad, None, 0)


def test_settings_are_their_labels(tmp_path):
    # a setting is its two analyzer labels and its duration: equal
    # settings compare and hash equal
    s = MeasurementSetting("H", "+2")
    assert s == MeasurementSetting("H", "+2", DEFAULT_DURATION_S)
    assert hash(s) == hash(MeasurementSetting("H", "+2", DEFAULT_DURATION_S))
    assert len({s, MeasurementSetting("H", "+2"), MeasurementSetting("V", "+2")}) == 2
    assert s != MeasurementSetting("H", "+2", 1.0)
    # every setting the package builds projects onto its labels' states
    fringe = fringe_scan_records(hybrid_singlet(), "h", GRID16)
    path = tmp_path / "counts.csv"
    write_counts_csv(fringe, path)
    settings = [
        *tomography.tomography_settings(),
        *(r.setting for r in fringe),
        *(r.setting for r in read_counts_csv(path)),
    ]
    for s in settings:
        if s.alice.startswith("theta="):
            theta = float(s.alice[len("theta="):])
            ket = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
        else:
            ket = basis_ket(s.alice).amplitudes
        assert np.array_equal(s.alice_proj, np.outer(ket, ket.conj()))
        ket = basis_ket(s.bob).amplitudes
        assert np.array_equal(s.bob_proj, np.outer(ket, ket.conj()))
        assert s.label == f"{s.alice}|{s.bob}"


def test_exact_fringe_is_a_perfect_cosine():
    rho = hybrid_singlet()
    pts = fringe_scan(rho, "+2", GRID16, exact=True)
    n0, v, phi0 = fit_fringe(pts)
    assert abs(n0 - 375.0) < 1e-9  # rate*duration/4 at the defaults
    assert abs(v - 1.0) < 1e-12
    assert abs(phi0) < 1e-12
    assert abs(visibility_minmax(pts) - 1.0) < 1e-12


def test_fringe_phase_tracks_bob_projector():
    rho = hybrid_singlet()
    n0, v, phi0 = fit_fringe(fringe_scan(rho, "h", GRID16, exact=True))
    assert abs(v - 1.0) < 1e-12
    assert abs(phi0 + np.pi / 2) < 1e-12


def test_fringe_visibility_matches_werner_weight():
    for p in (0.90, 0.93, 0.966):
        rho, _ = prepare_hybrid(NoiseModel(werner_p=p))
        _, v, _ = fit_fringe(fringe_scan(rho, "+2", GRID16, exact=True))
        assert abs(v - p) < 1e-6


def test_noisy_fringe_recovers_visibility():
    rho = hybrid_singlet()
    # 4e4 counts per period point keeps the fit error well under a percent
    pts = fringe_scan(rho, "+2", GRID16, rate_cps=100.0, duration_s=400.0, seed=5)
    _, v, _ = fit_fringe(pts)
    assert abs(v - 1.0) < 0.01


def test_fit_fringe_failure_modes():
    with pytest.raises(FitFailureError):
        fit_fringe([(0.0, 10.0), (1.0, 12.0), (2.0, 9.0)])  # too few points
    with pytest.raises(FitFailureError):
        fit_fringe([(0.1, 5.0)] * 6)  # degenerate grid
    n0, v, phi0 = fit_fringe([(t, 100.0) for t in GRID16])
    assert abs(v) < 1e-12 and abs(n0 - 100.0) < 1e-9
    for bad in ((0, float("nan")), (0, float("inf")), (1, float("nan"))):
        points = [[t, 100.0] for t in GRID16]
        points[3][bad[0]] = bad[1]
        with pytest.raises(FitFailureError, match="finite"):
            fit_fringe(points)
    with pytest.raises(FitFailureError):
        visibility_minmax([])
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(FitFailureError, match="finite and non-negative"):
            visibility_minmax([(0.0, bad), (1.0, 1.0)])


def test_fringe_scans_draw_from_their_own_stream():
    rho = hybrid_singlet()
    recs = fringe_scan_records(rho, "+2", GRID16, seed=3)
    again = fringe_scan_records(rho, "+2", GRID16, seed=3)
    assert [r.counts for r in recs] == [r.counts for r in again]
    other_scan = fringe_scan_records(rho, "+2", GRID16, seed=3, scan_index=1)
    assert [r.counts for r in recs] != [r.counts for r in other_scan]
    assert recs[0].setting.alice.startswith("theta=")
    # the points draw in grid order: a point's count depends on the points
    # before it, not on those after
    head = fringe_scan_records(rho, "+2", GRID16[:7], seed=3)
    assert [r.counts for r in head] == [r.counts for r in recs[:7]]
    assert all(r.seed == 3 for r in recs)


def test_a_csv_seed_column_regenerates_its_table(tmp_path):
    rho, _ = prepare_hybrid("fitted")
    tables = {
        "tomography": (
            tomography.simulate_tomography(rho, 50.0, 15.0, seed=2**40 + 3),
            lambda seed: tomography.simulate_tomography(rho, 50.0, 15.0, seed=seed),
        ),
        "fringe": (
            fringe_scan_records(rho, "h", GRID16, 50.0, 15.0, seed=8, scan_index=1),
            lambda seed: fringe_scan_records(rho, "h", GRID16, 50.0, 15.0, seed, 1),
        ),
    }
    for name, (records, rerun) in tables.items():
        path = tmp_path / f"{name}.csv"
        write_counts_csv(records, path)
        back = read_counts_csv(path)
        (seed,) = {r.seed for r in back}
        assert [r.counts for r in rerun(seed)] == [r.counts for r in back]


def _loop_records(rho, settings, rate, seed, path, exact):
    """The reference: one exact record per setting, then one draw per
    setting, in order, from numpy's own generator for the path."""
    records = [exact_counts(rho, s, rate, seed=seed) for s in settings]
    if exact:
        return records
    rng = _numpy_stream(seed, path)
    return [
        CountRecord(
            r.setting, int(rng.poisson(r.counts)), r.expected_rate_cps, r.seed
        )
        for r in records
    ]


def _as_rows(records):
    return [
        (r.setting.label, r.setting.alice, r.setting.bob, r.setting.duration_s,
         r.counts, type(r.counts), r.expected_rate_cps, r.seed)
        for r in records
    ]


def _theta_setting(theta, bob, duration_s):
    s = MeasurementSetting(f"theta={theta:.17g}", bob, duration_s)
    ket = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
    assert np.array_equal(s.alice_proj, np.outer(ket, ket.conj()))
    return s


def _random_state(seed):
    g = np.random.default_rng(seed).normal(size=(2, 4, 4))
    m = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    return DensityMatrix(m / np.trace(m).real, (POLARIZATION, OAM_O2))


def test_compiled_counts_match_a_per_setting_loop():
    states = (hybrid_singlet(), prepare_hybrid("fitted")[0], _random_state(11))
    # multi-word seeds, and np.int64, which numpy reads as an integer
    cases = (
        (0.5, 7.5, 0), (100.0, 15.0, 7), (1234.5, 1.0, 2**40),
        (100.0, 15.0, 2**32 - 1), (100.0, 15.0, 2**32), (100.0, 15.0, 2**64 + 7),
        (100.0, 15.0, 2**200), (100.0, 15.0, np.int64(5)),
    )
    for rho in states:
        for rate, duration, seed in cases:
            for exact in (False, True):
                # tomography: setting i is draw i of stream (0,)
                settings = tomography.tomography_settings(duration)
                got = tomography.simulate_tomography(rho, rate, duration, seed, exact)
                want = _loop_records(rho, settings, rate, seed, (0,), exact)
                assert _as_rows(got) == _as_rows(want)
                # fringes: point i of scan k is draw i of stream (2, k); a
                # scan index past 2**32 puts two words in the spawn key
                for k, bob in ((0, "+2"), (1, "h"), (2**32 + 1, "h")):
                    settings = [_theta_setting(t, bob, duration) for t in GRID16]
                    got = fringe_scan_records(
                        rho, bob, GRID16, rate, duration, seed, k, exact
                    )
                    want = _loop_records(rho, settings, rate, seed, (2, k), exact)
                    assert _as_rows(got) == _as_rows(want)
            # CHSH: outcome (i, j) of pair k is draw 4k + 2i + j of stream (1,)
            result = bell.chsh_empirical(
                rho, rate_cps=rate, duration_s=4 * duration, seed=seed
            )
            a, a_p, b, b_p = bell.chsh_settings()
            means = [
                max(p, 0.0) * rate * duration
                for x, y in ((a, b), (a_p, b), (a, b_p), (a_p, b_p))
                for p in _chsh_probabilities(rho, x, y)
            ]
            rng = _numpy_stream(seed, (1,))
            counts = [int(rng.poisson(m)) for m in means]
            es = [bell.correlation_from_counts(counts[4 * k : 4 * k + 4]) for k in range(4)]
            assert result.correlations == tuple(es)
            assert result.s == es[0] + es[1] + es[2] - es[3]


def _with_pair(upper, lower):
    """I/4 with entries [0, 1] and [1, 0] set."""
    m = np.eye(4) / 4
    m[0, 1], m[1, 0] = upper, lower
    return m


NAN2 = np.full((2, 2), np.nan)
NAN4 = np.full((4, 4), np.nan)
PAIR = (POLARIZATION, OAM_O2)
SINGLET = hybrid_singlet()
# each refused at its own guard: a tolerance test that NaN fails, or a
# finiteness check where no tolerance test can see it
NON_FINITE = {
    "projector": (lambda: MeasurementSetting("theta=nan", "+2", 1.0), "scan angle"),
    "infinite-projector": (lambda: MeasurementSetting("theta=inf", "+2", 1.0), "scan angle"),
    "observable": (lambda: bell.DichotomicObservable(NAN2, NAN2, "nan"), "not rank 1"),
    "ket": (lambda: StateVector([np.nan, 0.0], (POLARIZATION,)), "not normalized"),
    "infinite-ket": (lambda: StateVector([np.inf, 0.0], (POLARIZATION,)), "not normalized"),
    "density-matrix": (
        lambda: DensityMatrix(NAN4, PAIR, require_positive=False), "not Hermitian"
    ),
    "positive-density-matrix": (lambda: DensityMatrix(NAN4, PAIR), "not Hermitian"),
    "infinite-density-matrix": (
        lambda: DensityMatrix(np.diag([np.inf, 0, 0, 0]), PAIR, require_positive=False),
        "infinite",
    ),
    "overflowing-trace-density-matrix": (
        lambda: DensityMatrix(np.diag([1e308, 1e308, 0, 0]), PAIR), "trace is inf"
    ),
    "infinite-projection-input": (
        lambda: project_to_physical(np.diag([np.inf, 0, 0, 0])), "finite entries"
    ),
    "infinite-off-diagonal-density-matrix": (
        lambda: DensityMatrix(np.full((4, 4), -np.inf), PAIR), "infinite"
    ),
    # finite, but past what float64 can subtract, add or sum
    "overflowing-difference-density-matrix": (
        lambda: DensityMatrix(_with_pair(1e308, -1e308), PAIR), "not Hermitian"
    ),
    "overflowing-sum-projection-of-a-density-matrix": (
        lambda: project_to_physical(
            DensityMatrix(_with_pair(1e308, 1e308), PAIR, require_positive=False)
        ),
        "finite entries",
    ),
    "overflowing-sum-projection-input": (
        lambda: project_to_physical(np.diag([1e308, 1e308, 0, 0])), "finite entries"
    ),
    "chsh-duration": (lambda: bell.chsh_empirical(SINGLET, duration_s=np.nan), "duration"),
    "chsh-infinite-duration": (
        lambda: bell.chsh_empirical(SINGLET, duration_s=np.inf), "duration"
    ),
    "chsh-rate": (lambda: bell.chsh_empirical(SINGLET, rate_cps=np.nan), "rate"),
    "tomography-rate": (lambda: tomography.simulate_tomography(SINGLET, np.nan), "rate"),
    "exact-infinite-rate": (
        lambda: tomography.simulate_tomography(SINGLET, np.inf, exact=True), "rate"
    ),
    "tomography-infinite-duration": (
        lambda: tomography.simulate_tomography(SINGLET, duration_s=np.inf), "duration"
    ),
    "infinite-fringe-angle": (
        lambda: fringe_scan_records(SINGLET, "h", [0.0, np.inf, 1.0]), "theta grid"
    ),
    "nan-fringe-grid": (lambda: fringe_scan_records(SINGLET, "h", [np.nan] * 4), "theta grid"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_inputs_are_refused_at_their_guard(case):
    build, message = NON_FINITE[case]
    with pytest.raises(ValueError, match=message):
        build()


H_PLUS2 = MeasurementSetting("H", "+2")
# each of these would run as 1, or with True as the duration
BOOLS = {
    "simulate-counts-seed": lambda: simulate_counts(SINGLET, H_PLUS2, 100.0, True),
    "exact-counts-seed": lambda: exact_counts(SINGLET, H_PLUS2, 100.0, True),
    "tomography-seed": lambda: tomography.simulate_tomography(SINGLET, seed=True),
    "chsh-seed": lambda: bell.chsh_empirical(SINGLET, seed=True),
    "bootstrap-seed": lambda: tomography.metric_uncertainties(
        tomography.simulate_tomography(SINGLET), seed=True
    ),
    "scan-index": lambda: fringe_scan_records(SINGLET, "+2", GRID16, scan_index=True),
    "exact-scan-index": lambda: fringe_scan_records(
        SINGLET, "+2", GRID16, scan_index=True, exact=True
    ),
    "setting-duration": lambda: MeasurementSetting("H", "+2", True),
    "setting-numpy-duration": lambda: MeasurementSetting("H", "+2", np.True_),
    # refused although settings of duration 1 are already compiled
    "tomography-duration": lambda: tomography.simulate_tomography(
        SINGLET, duration_s=True
    ),
    "fringe-duration": lambda: fringe_scan_records(SINGLET, "+2", GRID16, duration_s=True),
}


@pytest.mark.parametrize("case", BOOLS)
def test_bools_are_refused_where_integers_or_durations_go(case):
    tomography.simulate_tomography(SINGLET, duration_s=1)
    fringe_scan_records(SINGLET, "+2", GRID16, duration_s=1)
    with pytest.raises(TypeError, match="bool"):
        BOOLS[case]()


def test_counting_rejects_bad_inputs():
    rho = hybrid_singlet()
    # analyzers are named by label; a projector matrix or other object is not one
    not_labels = (
        lambda bob: fringe_scan_records(rho, bob, GRID16),
        lambda bob: MeasurementSetting("H", bob),
    )
    for bad in (np.diag([1.0, 0.0]), None, 2, ["h"]):
        for run in not_labels:
            with pytest.raises(TypeError, match="oam_o2 analyzer must be a label, one of .*h"):
                run(bad)
    with pytest.raises(TypeError, match="polarization analyzer must be a label"):
        MeasurementSetting(np.diag([1.0, 0.0]), "h")
    one_qubit = DensityMatrix(np.diag([1.0, 0.0]), (POLARIZATION,))
    runs = (
        lambda state, rate: tomography.simulate_tomography(state, rate),
        lambda state, rate: fringe_scan_records(state, "h", GRID16, rate),
        lambda state, rate: bell.chsh_empirical(state, rate_cps=rate),
    )
    for run in runs:
        with pytest.raises(ValueError, match="rate must be non-negative"):
            run(rho, -1.0)
        with pytest.raises(ValueError, match="two-qubit"):
            run(one_qubit, 100.0)


def test_compiled_settings_are_read_only():
    fringe = fringe_scan_records(hybrid_singlet(), "h", GRID16)
    settings = [
        *tomography._compiled_settings(15.0)[0],
        *(r.setting for r in fringe),
    ]
    assert all(
        not s.alice_proj.flags.writeable and not s.bob_proj.flags.writeable
        for s in settings
    )
    scan = measurement._fringe_settings("h", GRID16.tobytes(), 15.0)
    stacks = (tomography._compiled_settings(15.0)[1], scan[1], bell._compiled()[1])
    assert all(not ops.flags.writeable for ops in stacks)
    # a scan is built once per label, grid and duration, and every point
    # shares Bob's one checked, read-only projector
    assert scan is measurement._fringe_settings("h", GRID16.tobytes(), 15.0)
    assert all(a is b for a, b in zip(scan[0], (r.setting for r in fringe)))
    assert all(s.bob_proj is fringe[0].setting.bob_proj for s in scan[0])
    assert bell._compiled() is bell._compiled()


def test_count_records_refuse_counts_float64_cannot_hold():
    s = MeasurementSetting("H", "+2")
    for ok in (0, 2**53, float(2**53), 5, 7.25, True, np.int64(9), np.float64(2.5)):
        assert CountRecord(s, ok, None, 0).counts == ok
    for bad in (2**53 + 1, float(2**54), 2**62, 2**64, 10**30, 1e30, np.uint64(2**64 - 1)):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            CountRecord(s, bad, None, 0)
    for bad, match in (
        (float("nan"), "finite"), (float("inf"), "finite"), (np.float64("-inf"), "finite"),
        (-1, "non-negative"), (-0.5, "non-negative"), (-(2**70), "non-negative"),
    ):
        with pytest.raises(ValueError, match=match):
            CountRecord(s, bad, None, 0)
    with pytest.raises(TypeError):
        CountRecord(s, "5", None, 0)


def test_counts_csv_roundtrip(tmp_path):
    rho = hybrid_singlet()
    recs = fringe_scan_records(rho, "h", GRID16, seed=2)
    path = tmp_path / "counts.csv"
    write_counts_csv(recs, path)
    back = read_counts_csv(path)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        assert b.counts == a.counts and isinstance(b.counts, int)
        assert b.setting.label == a.setting.label
        assert np.max(np.abs(b.setting.alice_proj - a.setting.alice_proj)) < 1e-12
        assert b.expected_rate_cps is None


def test_counts_csv_roundtrip_fractional(tmp_path):
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.25))
    recs = [exact_counts(rho, MeasurementSetting("H", "+2"), 100.0)]
    path = tmp_path / "exact.csv"
    write_counts_csv(recs, path)
    back = read_counts_csv(path)
    assert isinstance(back[0].counts, float)
    assert abs(back[0].counts - 468.75) < 1e-12
    assert abs(back[0].expected_rate_cps - 31.25) < 1e-12


def test_counts_csv_reads_share_their_settings(tmp_path):
    rho = hybrid_singlet()
    recs = tomography.simulate_tomography(rho, seed=3)
    path = tmp_path / "counts.csv"
    write_counts_csv(recs, path)
    first, again = read_counts_csv(path), read_counts_csv(path)
    # equal settings, whose shared projectors are read-only
    assert [a.setting for a in first] == [b.setting for b in again]
    assert all(
        not r.setting.alice_proj.flags.writeable and not r.setting.bob_proj.flags.writeable
        for r in first
    )
    for a, b in zip(first, recs):
        assert (a.setting.label, a.setting.alice, a.setting.bob) == (
            b.setting.label, b.setting.alice, b.setting.bob
        )
        assert a.setting.duration_s == b.setting.duration_s
        assert np.array_equal(a.setting.alice_proj, b.setting.alice_proj)
        assert np.array_equal(a.setting.bob_proj, b.setting.bob_proj)


def test_counts_csv_rejects_non_finite_counts(tmp_path):
    rho = hybrid_singlet()
    recs = fringe_scan_records(rho, "h", GRID16, seed=2)
    path = tmp_path / "counts.csv"
    write_counts_csv(recs, path)
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[4] = "nan"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        read_counts_csv(path)


def test_counts_csv_rejects_mislabelled_rows_and_negative_seeds(tmp_path):
    recs = tomography.simulate_tomography(hybrid_singlet(), seed=3)
    path = tmp_path / "counts.csv"
    write_counts_csv(recs, path)
    lines = path.read_text().splitlines()
    for column, value, match in ((0, "bogus", "does not name"), (0, "V|+2", "does not name"),
                                 (5, "-3", "non-negative")):
        cells = lines[1].split(",")
        cells[column] = value
        path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        with pytest.raises(ValueError, match=match):
            read_counts_csv(path)


def test_counts_csv_rejects_foreign_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("setting,counts\nH|+2,5\n")
    with pytest.raises(ValueError):
        read_counts_csv(path)


def test_defaults_are_the_reference_acquisition():
    assert DEFAULT_RATE_CPS == 100.0
    assert DEFAULT_DURATION_S == 15.0
