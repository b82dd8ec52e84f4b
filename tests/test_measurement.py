import ast
from pathlib import Path

import numpy as np
import pytest

import chsh_oracle
import tomography_oracle
from hybridoam.measurement import (
    DEFAULT_DURATION_S,
    DEFAULT_RATE_CPS,
    CountRecord,
    FitFailureError,
    MeasurementSetting,
    fit_fringe,
    fringe_scan,
    read_counts_csv,
    visibility_minmax,
    write_counts_csv,
)
import hybridoam.bell as bell
import hybridoam.measurement as measurement
import hybridoam.tomography as tomography
from hybridoam.source import NoiseModel, prepare_hybrid
from hybridoam.states import (
    OAM_O2,
    POLARIZATION,
    DensityMatrix,
    StateVector,
)

GRID16 = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
SINGLET = prepare_hybrid()[0]


def _exact_tomography(rho, rate_cps=100.0, duration_s=15.0):
    """The 36 exact tomography records, by setting label."""
    records = tomography.simulate_tomography(rho, rate_cps, duration_s, exact=True)
    return {r.setting.label: r for r in records}


def test_joint_probabilities_of_the_hybrid_singlet():
    # at 1 cps for 1 s a setting's expected count is its Born probability
    probs = {
        label: r.counts for label, r in _exact_tomography(SINGLET, 1.0, 1.0).items()
    }
    assert abs(probs["H|+2"] - 0.5) < 1e-12
    assert abs(probs["V|-2"] - 0.5) < 1e-12
    assert probs["H|-2"] < 1e-12
    assert probs["V|+2"] < 1e-12
    assert abs(sum(probs[f"{a}|{b}"] for a in "HV" for b in ("+2", "-2")) - 1.0) < 1e-12
    # conjugate-basis correlations persist for the entangled state
    assert abs(probs["+|v"] - 0.5) < 1e-12
    assert probs["+|h"] < 1e-12


def test_expected_counts_scale():
    assert abs(_exact_tomography(SINGLET)["H|+2"].counts - 750.0) < 1e-9
    with pytest.raises(ValueError):
        _exact_tomography(SINGLET, -1.0)


def test_exact_counts_keep_fractional_expectations():
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.25))
    rec = _exact_tomography(rho)["H|+2"]
    assert isinstance(rec, CountRecord) and isinstance(rec.counts, float)
    # p = 0.25*0.5 + 0.75*0.25 = 0.3125, times 1500
    assert abs(rec.counts - 468.75) < 1e-9
    # and per second, the expected rate
    assert abs(_exact_tomography(rho, 100.0, 1.0)["H|+2"].counts - 31.25) < 1e-9


def _numpy_stream(seed, path):
    """An experiment's stream as numpy's own SeedSequence and default_rng
    build it."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def test_simulate_counts_deterministic_and_unbiased():
    # the H|+2 count of a tomography table, first in its stream, over seeds
    seeds = _numpy_stream(0, (9,)).integers(0, 2**63, size=200)
    a = tomography.simulate_tomography(SINGLET, seed=seeds[0])[0]
    b = tomography.simulate_tomography(SINGLET, seed=seeds[0])[0]
    assert a.setting.label == "H|+2"
    assert a.counts == b.counts
    assert isinstance(a.counts, int)
    draws = [tomography.simulate_tomography(SINGLET, seed=seed)[0].counts for seed in seeds]
    lam = 750.0
    assert abs(np.mean(draws) - lam) < 3 * np.sqrt(lam / 200)


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
    rho = SINGLET
    tomo = [r.counts for r in tomography.simulate_tomography(rho, seed=3)]
    assert tomo == [r.counts for r in tomography.simulate_tomography(rho, seed=3)]
    assert tomo != [r.counts for r in tomography.simulate_tomography(rho, seed=4)]
    chsh = bell.chsh_empirical(rho, seed=3)
    assert chsh == bell.chsh_empirical(rho, seed=3)
    assert chsh.correlations != bell.chsh_empirical(rho, seed=4).correlations


def test_counts_match_numpys_generator_on_each_path(monkeypatch):
    # every experiment's counts are one draw, in canonical setting order,
    # from numpy's default_rng on SeedSequence(seed, spawn_key=path)
    # a seed below 2**32 is one entropy word, one past 2**64 three, and
    # 2**200 seven; numpy integers are integers, and records hold them as int
    rho, _ = prepare_hybrid("fitted")
    seeds = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 7, 2**200, np.int64(5), np.uint64(2**63))
    for seed in seeds:
        # the means are the exact records' counts, the same floats
        recs = tomography.simulate_tomography(rho, 100.0, 15.0, seed)
        means = [r.counts for r in tomography.simulate_tomography(rho, 100.0, 15.0, seed, True)]
        want = _numpy_stream(seed, (0,)).poisson(means).tolist()
        assert [r.counts for r in recs] == want
        assert all(r.seed == int(seed) and type(r.seed) is int for r in recs)
        for k in (0, 7, 2**32 + 1):
            scan = fringe_scan(rho, "h", GRID16, 100.0, 15.0, seed, k)
            means = [
                r.counts for r in fringe_scan(rho, "h", GRID16, 100.0, 15.0, seed, k, True)
            ]
            assert [r.counts for r in scan] == _numpy_stream(seed, (2, k)).poisson(means).tolist()
        # CHSH: outcome (i, j) of pair k is draw 4k + 2i + j
        rng = _numpy_stream(seed, (1,))
        es = []
        for x, y, _ in chsh_oracle.PAIRS:
            probs = _chsh_probabilities(rho, x, y)
            means = [max(p, 0.0) * 100.0 * 15.0 for p in probs]
            es.append(chsh_oracle.correlation_from_counts(rng.poisson(means).tolist()))
        chsh = bell.chsh_empirical(rho, rate_cps=100.0, duration_s=60.0, seed=seed)
        assert chsh.correlations == tuple(es)
        # the bootstrap: resample r is row r of one (n_resamples, 36) draw
        stacks = _bootstrap_stacks(monkeypatch, recs, 100, seed)
        obs = [float(r.counts) for r in recs]
        want = _numpy_stream(seed, (3,)).poisson(obs, size=(100, 36))
        assert np.array_equal(stacks[1:], want)


def _chsh_probabilities(rho, x, y):
    """Born probabilities of the outcomes (i, j) of the CHSH pair of oracle
    observables x and y, in the order ++, +-, -+, --."""
    return [
        np.trace(rho.matrix @ np.kron(px, py)).real
        for px in chsh_oracle.projectors(x) for py in chsh_oracle.projectors(y)
    ]


def _bootstrap_stacks(monkeypatch, records, n_resamples, seed):
    """The count stack the bootstrap solves: the observed table, then its
    resamples in canonical setting order, joined from every solve it makes."""
    stacks, solve = [], tomography._solve

    def spy(counts, start, least):
        stacks.append(counts)
        return solve(counts, start, least)

    with monkeypatch.context() as m:
        m.setattr(tomography, "_solve", spy)
        tomography.metric_uncertainties(records, n_resamples=n_resamples, seed=seed)
    return np.concatenate(stacks)


def test_resamples_do_not_depend_on_how_many_are_drawn(monkeypatch):
    rho, _ = prepare_hybrid("fitted")
    recs = tomography.simulate_tomography(rho, seed=6)
    first = _bootstrap_stacks(monkeypatch, recs, 100, 6)
    more = _bootstrap_stacks(monkeypatch, recs, 130, 6)
    assert first.shape == (101, 36) and more.shape == (131, 36)
    assert np.array_equal(more[:101], first)
    assert not np.array_equal(_bootstrap_stacks(monkeypatch, recs, 100, 7), first)


def test_bad_seeds_are_refused_in_draw_and_exact_mode():
    rho = SINGLET
    recs = tomography.simulate_tomography(rho)
    refused = ((-1, ValueError), (-(2**70), ValueError), (1.7, TypeError),
               (np.float64(2.0), TypeError), (None, TypeError), ("3", TypeError))
    for bad, error in refused:
        if bad is not None:  # numpy takes None as a request for fresh entropy
            with pytest.raises(error):
                np.random.default_rng(bad)
        runs = (
            lambda: tomography.simulate_tomography(rho, seed=bad),
            lambda: tomography.simulate_tomography(rho, seed=bad, exact=True),
            lambda: fringe_scan(rho, "+2", GRID16, seed=bad),
            lambda: fringe_scan(rho, "+2", GRID16, seed=bad, exact=True),
            lambda: bell.chsh_empirical(rho, seed=bad),
            lambda: tomography.metric_uncertainties(recs, seed=bad),
        )
        for run in runs:
            with pytest.raises(error):
                run()
    # a scan index is a path element: negative or not an integer, as _seed
    # and numpy say, and an integral float is not an integer either
    for bad, error in ((-1, ValueError), (1.7, TypeError), (1.0, TypeError)):
        with pytest.raises(error):
            np.random.SeedSequence(0, spawn_key=(2, bad))
        for exact in (False, True):
            with pytest.raises(error):
                fringe_scan(rho, "+2", GRID16, scan_index=bad, exact=exact)


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


def test_scan_tag_format_lives_in_measurement():
    """Only measurement.py writes or parses a theta= tag: the others call its
    _tag and _theta, and name the prefix only in docstrings."""
    package = Path(measurement.__file__).parent
    for path in sorted(package.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        names |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        consts = [n.value for n in nodes if isinstance(n, ast.Constant)]
        texts = {c for c in consts if isinstance(c, str) and "theta=" in c}
        docs = {ast.get_docstring(n, clean=False) for n in nodes
                if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))}
        home = path.name == "measurement.py"
        assert ("_THETA_PREFIX" in names) == home, path.name
        assert home or texts <= docs, (path.name, texts - docs)


def test_setting_validation():
    with pytest.raises(ValueError):
        MeasurementSetting("H", "+2", duration_s=0.0)
    with pytest.raises(ValueError, match="not a polarization state"):
        MeasurementSetting("+2", "H")  # degrees swapped
    with pytest.raises(ValueError, match="not a polarization state"):
        MeasurementSetting("X", "h")
    # a scan tag names Bob's analyzer too: cos(theta/2)|+2> + sin(theta/2)|-2>
    assert MeasurementSetting("H", "theta=0.3").bob == "theta=0.3"
    # a tag's angle is a plain number, as a CSV cell's is, so an angle has
    # no spelling that Python's literals alone accept; 1.50 is one
    for tag in ("theta=1_0", "theta= 1.5", "theta=+1.5", "theta=1.5 ", "theta=\u0661"):
        for alice, bob in ((tag, "h"), ("H", tag)):
            with pytest.raises(ValueError, match="scan angle .* is not a plain number"):
                MeasurementSetting(alice, bob)
    assert MeasurementSetting("theta=1.50", "h").alice == "theta=1.50"
    scan = fringe_scan(SINGLET, "theta=0.3", GRID16, exact=True)
    want = _loop_records(SINGLET, [r.setting for r in scan], 100.0, 0, (2, 0), True)
    assert _as_rows(scan) == _as_rows(want)
    with pytest.raises(ValueError):
        CountRecord(MeasurementSetting("H", "+2"), -1, 0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CountRecord(MeasurementSetting("H", "+2"), bad, 0)


def test_settings_are_their_labels(tmp_path):
    # a setting is its two analyzer labels and its duration: equal
    # settings compare and hash equal
    s = MeasurementSetting("H", "+2")
    assert s == MeasurementSetting("H", "+2", DEFAULT_DURATION_S)
    assert hash(s) == hash(MeasurementSetting("H", "+2", DEFAULT_DURATION_S))
    assert len({s, MeasurementSetting("H", "+2"), MeasurementSetting("V", "+2")}) == 2
    assert s != MeasurementSetting("H", "+2", 1.0)
    # every setting the package builds, or reads, is named by its labels
    fringe = fringe_scan(SINGLET, "h", GRID16)
    path = tmp_path / "counts.csv"
    write_counts_csv(fringe, path)
    settings = [
        *(r.setting for r in tomography.simulate_tomography(SINGLET)),
        *(r.setting for r in fringe),
        *(r.setting for r in read_counts_csv(path)),
        *(r.setting for r in bell.chsh_records(SINGLET)),
    ]
    for s in settings:
        assert s.label == f"{s.alice}|{s.bob}"


def _exact_fringe(rho, bob):
    """The exact scan records over GRID16 at the default rate and duration."""
    return fringe_scan(rho, bob, GRID16, exact=True)


def _scan(thetas, counts, bob="+2", duration_s=DEFAULT_DURATION_S):
    """A scan's records with the given angles and counts, built by hand."""
    return [
        CountRecord(MeasurementSetting(f"theta={float(t)!r}", bob, duration_s), c, 0)
        for t, c in zip(thetas, counts)
    ]


def test_exact_fringe_is_a_perfect_cosine():
    rho = SINGLET
    pts = _exact_fringe(rho, "+2")
    n0, v, phi0 = fit_fringe(pts)
    assert abs(n0 - 375.0) < 1e-9  # rate*duration/4 at the defaults
    assert abs(v - 1.0) < 1e-12
    assert abs(phi0) < 1e-12
    assert abs(visibility_minmax(pts) - 1.0) < 1e-12


def test_fringe_phase_tracks_bob_projector():
    rho = SINGLET
    n0, v, phi0 = fit_fringe(_exact_fringe(rho, "h"))
    assert abs(v - 1.0) < 1e-12
    assert abs(phi0 + np.pi / 2) < 1e-12


def test_fringe_visibility_matches_werner_weight():
    for p in (0.90, 0.93, 0.966):
        rho, _ = prepare_hybrid(NoiseModel(werner_p=p))
        _, v, _ = fit_fringe(_exact_fringe(rho, "+2"))
        assert abs(v - p) < 1e-6


def test_noisy_fringe_recovers_visibility():
    rho = SINGLET
    # 4e4 counts per period point keeps the fit error well under a percent
    pts = fringe_scan(rho, "+2", GRID16, rate_cps=100.0, duration_s=400.0, seed=5)
    _, v, _ = fit_fringe(pts)
    assert abs(v - 1.0) < 0.01


def test_fit_fringe_failure_modes():
    with pytest.raises(FitFailureError, match="at least 4 points, got 3"):
        fit_fringe(_scan((0.0, 1.0, 2.0), (10, 12, 9)))
    with pytest.raises(FitFailureError, match="degenerate"):
        fit_fringe(_scan([0.1] * 6, [5] * 6))
    n0, v, phi0 = fit_fringe(_scan(GRID16, [100.0] * 16))
    assert abs(v) < 1e-12 and abs(n0 - 100.0) < 1e-9
    # non-negative counts on a non-uniform grid can still fit a negative baseline
    lopsided = _scan((0.0, 0.2, 0.4, np.pi / 2 + 0.3, 3.0), (0, 0, 0, 100, 0))
    with pytest.raises(FitFailureError, match="baseline -14.46"):
        fit_fringe(lopsided)
    # no counts at all have no contrast
    assert visibility_minmax(_scan(GRID16, [0] * 16)) == 0.0
    with pytest.raises(FitFailureError, match="no points"):
        visibility_minmax([])
    # the most counts a record holds have a finite max + min
    assert visibility_minmax(_scan((0.0, 1.0), (2**53, 2**53))) == 0.0


def test_fringe_analyses_read_one_scans_records():
    # each analysis reads the records of one scan: theta tags on Alice's
    # side, against one Bob analyzer, at one duration
    scan = _scan(GRID16, [100 + 10 * k for k in range(16)])
    untagged = [*scan[:3], CountRecord(MeasurementSetting("H", "+2"), 5, 0), *scan[3:]]
    two_bobs = scan[:8] + _scan(GRID16[8:], [100] * 8, bob="h")
    two_durations = scan[:8] + _scan(GRID16[8:], [100] * 8, duration_s=30.0)
    for analysis in (fit_fringe, visibility_minmax):
        analysis(scan)
        with pytest.raises(FitFailureError, match="'H\\|\\+2' is not a fringe scan point"):
            analysis(untagged)
        with pytest.raises(FitFailureError, match=r"one Bob analyzer, got \['\+2', 'h'\]"):
            analysis(two_bobs)
        with pytest.raises(FitFailureError, match=r"different durations: \[15.0, 30.0\] s"):
            analysis(two_durations)


def test_fringe_scans_draw_from_their_own_stream():
    rho = SINGLET
    recs = fringe_scan(rho, "+2", GRID16, seed=3)
    again = fringe_scan(rho, "+2", GRID16, seed=3)
    assert [r.counts for r in recs] == [r.counts for r in again]
    other_scan = fringe_scan(rho, "+2", GRID16, seed=3, scan_index=1)
    assert [r.counts for r in recs] != [r.counts for r in other_scan]
    assert recs[0].setting.alice.startswith("theta=")
    # the points draw in grid order: a point's count depends on the points
    # before it, not on those after
    head = fringe_scan(rho, "+2", GRID16[:7], seed=3)
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
            fringe_scan(rho, "h", GRID16, 50.0, 15.0, seed=8, scan_index=1),
            lambda seed: fringe_scan(rho, "h", GRID16, 50.0, 15.0, seed, 1),
        ),
    }
    for name, (records, rerun) in tables.items():
        path = tmp_path / f"{name}.csv"
        write_counts_csv(records, path)
        back = read_counts_csv(path)
        (seed,) = {r.seed for r in back}
        assert [r.counts for r in rerun(seed)] == [r.counts for r in back]


def _born_probability(rho, setting):
    """A setting's Born probability on its own, as
    Re(vec(Pi) . vec(conj(rho))) = Tr[rho Pi]: one dot product of the two
    vecs, each read as 32 real floats, with Pi built from the setting's
    labels."""
    op = tomography_oracle.setting_projector(setting)
    p = float(op.reshape(16).view(np.float64) @ rho.matrix.reshape(16).view(np.float64))
    assert abs(p - np.trace(rho.matrix @ op).real) < 1e-14
    return p


def _loop_records(rho, settings, rate, seed, path, exact):
    """The reference: each setting's Born probability and mean count on its
    own, then, unless exact, one draw per setting, in order, from numpy's
    own generator for the path."""
    rng = None if exact else _numpy_stream(seed, path)
    records = []
    for s in settings:
        mean = max(_born_probability(rho, s), 0.0) * float(rate) * s.duration_s
        counts = mean if exact else int(rng.poisson(mean))
        records.append(CountRecord(s, counts, int(seed)))
    return records


def _as_rows(records):
    return [
        (r.setting.label, r.setting.alice, r.setting.bob, r.setting.duration_s,
         r.counts, type(r.counts), r.seed)
        for r in records
    ]


def _theta_setting(theta, bob, duration_s):
    return MeasurementSetting(f"theta={theta:.17g}", bob, duration_s)


def _random_state(seed):
    g = np.random.default_rng(seed).normal(size=(2, 4, 4))
    m = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    return DensityMatrix(m / np.trace(m).real, (POLARIZATION, OAM_O2))


def test_compiled_counts_match_a_per_setting_loop():
    states = (SINGLET, prepare_hybrid("fitted")[0], _random_state(11))
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
                got = tomography.simulate_tomography(rho, rate, duration, seed, exact)
                settings = [r.setting for r in got]
                want = _loop_records(rho, settings, rate, seed, (0,), exact)
                assert _as_rows(got) == _as_rows(want)
                # fringes: point i of scan k is draw i of stream (2, k); a
                # scan index past 2**32 puts two words in the spawn key
                for k, bob in ((0, "+2"), (1, "h"), (2**32 + 1, "h")):
                    settings = [_theta_setting(t, bob, duration) for t in GRID16]
                    got = fringe_scan(
                        rho, bob, GRID16, rate, duration, seed, k, exact
                    )
                    want = _loop_records(rho, settings, rate, seed, (2, k), exact)
                    assert _as_rows(got) == _as_rows(want)
            # CHSH: outcome (i, j) of pair k is draw 4k + 2i + j of stream (1,)
            result = bell.chsh_empirical(
                rho, rate_cps=rate, duration_s=4 * duration, seed=seed
            )
            means = [
                max(p, 0.0) * rate * duration
                for x, y, _ in chsh_oracle.PAIRS
                for p in _chsh_probabilities(rho, x, y)
            ]
            rng = _numpy_stream(seed, (1,))
            counts = [int(rng.poisson(m)) for m in means]
            es = [chsh_oracle.correlation_from_counts(counts[4 * k : 4 * k + 4]) for k in range(4)]
            assert result.correlations == tuple(es)
            assert result.s == es[0] + es[1] + es[2] - es[3]


def _with_pair(upper, lower):
    """I/4 with entries [0, 1] and [1, 0] set."""
    m = np.eye(4) / 4
    m[0, 1], m[1, 0] = upper, lower
    return m


NAN4 = np.full((4, 4), np.nan)
PAIR = (POLARIZATION, OAM_O2)
# each refused at its own guard: a tolerance test that NaN fails, or a
# finiteness check where no tolerance test can see it
NON_FINITE = {
    "projector": (lambda: MeasurementSetting("theta=nan", "+2", 1.0), "scan angle"),
    "infinite-projector": (lambda: MeasurementSetting("theta=inf", "+2", 1.0), "scan angle"),
    "bob-projector": (lambda: MeasurementSetting("H", "theta=nan", 1.0), "scan angle"),
    "ket": (lambda: StateVector([np.nan, 0.0, 0.0, 0.0], PAIR), "not normalized"),
    "infinite-ket": (lambda: StateVector([np.inf, 0.0, 0.0, 0.0], PAIR), "not normalized"),
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
    "infinite-off-diagonal-density-matrix": (
        lambda: DensityMatrix(np.full((4, 4), -np.inf), PAIR), "infinite"
    ),
    # finite, but past what float64 can subtract, add or sum
    "overflowing-difference-density-matrix": (
        lambda: DensityMatrix(_with_pair(1e308, -1e308), PAIR), "not Hermitian"
    ),
    "chsh-duration": (lambda: bell.chsh_empirical(SINGLET, duration_s=np.nan), "duration"),
    "chsh-infinite-duration": (
        lambda: bell.chsh_empirical(SINGLET, duration_s=np.inf), "duration"
    ),
    "chsh-rate": (lambda: bell.chsh_empirical(SINGLET, rate_cps=np.nan), "rate"),
    "tomography-rate": (lambda: tomography.simulate_tomography(SINGLET, np.nan), "rate"),
    # an integer past float64's range, which float() cannot convert
    "huge-integer-rate": (lambda: tomography.simulate_tomography(SINGLET, 10**400), "rate"),
    "huge-integer-duration": (lambda: MeasurementSetting("H", "+2", 10**400), "duration"),
    # the message shows the converted float, which any integer can be printed as
    "digit-limit-rate": (
        lambda: tomography.simulate_tomography(SINGLET, 10**5000),
        r"rate must be finite and lie in \[0.0, inf\], got inf$",
    ),
    "digit-limit-duration": (
        lambda: MeasurementSetting("H", "+2", -10**5000),
        r"duration must be finite and lie in \[5e-324, inf\], got -inf$",
    ),
    "chsh-huge-integer-duration": (
        lambda: bell.chsh_empirical(SINGLET, duration_s=10**400), "duration"
    ),
    "exact-infinite-rate": (
        lambda: tomography.simulate_tomography(SINGLET, np.inf, exact=True), "rate"
    ),
    "tomography-infinite-duration": (
        lambda: tomography.simulate_tomography(SINGLET, duration_s=np.inf), "duration"
    ),
    "infinite-fringe-angle": (
        lambda: fringe_scan(SINGLET, "h", [0.0, np.inf, 1.0]), "theta grid"
    ),
    "nan-fringe-grid": (lambda: fringe_scan(SINGLET, "h", [np.nan] * 4), "theta grid"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_inputs_are_refused_at_their_guard(case):
    build, message = NON_FINITE[case]
    with pytest.raises(ValueError, match=message):
        build()


# each of these would run as 1, or with True as the duration
BOOLS = {
    "simulate-counts-seed": lambda: fringe_scan(SINGLET, "+2", GRID16, seed=True),
    "exact-counts-seed": lambda: tomography.simulate_tomography(SINGLET, seed=True, exact=True),
    "tomography-seed": lambda: tomography.simulate_tomography(SINGLET, seed=True),
    "chsh-seed": lambda: bell.chsh_empirical(SINGLET, seed=True),
    "bootstrap-seed": lambda: tomography.metric_uncertainties(
        tomography.simulate_tomography(SINGLET), seed=True
    ),
    "scan-index": lambda: fringe_scan(SINGLET, "+2", GRID16, scan_index=True),
    "exact-scan-index": lambda: fringe_scan(
        SINGLET, "+2", GRID16, scan_index=True, exact=True
    ),
    "setting-duration": lambda: MeasurementSetting("H", "+2", True),
    "setting-numpy-duration": lambda: MeasurementSetting("H", "+2", np.True_),
    # refused although settings of duration 1 are already compiled
    "tomography-duration": lambda: tomography.simulate_tomography(
        SINGLET, duration_s=True
    ),
    "fringe-duration": lambda: fringe_scan(SINGLET, "+2", GRID16, duration_s=True),
    # and these as a rate of 1, or a CHSH pair duration of 1
    "tomography-rate": lambda: tomography.simulate_tomography(SINGLET, True),
    "exact-tomography-rate": lambda: tomography.simulate_tomography(
        SINGLET, np.True_, exact=True
    ),
    "fringe-rate": lambda: fringe_scan(SINGLET, "+2", GRID16, rate_cps=True),
    "chsh-rate": lambda: bell.chsh_empirical(SINGLET, rate_cps=True),
    "chsh-numpy-rate": lambda: bell.chsh_empirical(SINGLET, rate_cps=np.True_),
    "chsh-duration": lambda: bell.chsh_empirical(SINGLET, duration_s=True),
    "chsh-numpy-duration": lambda: bell.chsh_empirical(SINGLET, duration_s=np.True_),
    "chsh-settings-duration": lambda: bell.chsh_records(SINGLET, duration_s=True),
}


@pytest.mark.parametrize("case", BOOLS)
def test_bools_are_refused_where_integers_or_durations_go(case):
    tomography.simulate_tomography(SINGLET, duration_s=1)
    fringe_scan(SINGLET, "+2", GRID16, duration_s=1)
    bell.chsh_records(SINGLET, duration_s=1)
    with pytest.raises(TypeError, match="bool"):
        BOOLS[case]()


def test_counting_rejects_bad_inputs():
    rho = SINGLET
    # analyzers are named by label; a projector matrix or other object is not one
    not_labels = (
        lambda bob: fringe_scan(rho, bob, GRID16),
        lambda bob: MeasurementSetting("H", bob),
    )
    for bad in (np.diag([1.0, 0.0]), None, 2, ["h"]):
        for run in not_labels:
            with pytest.raises(TypeError, match="oam_o2 analyzer must be a label, one of .*h"):
                run(bad)
    with pytest.raises(TypeError, match="polarization analyzer must be a label"):
        MeasurementSetting(np.diag([1.0, 0.0]), "h")
    # a single angle is no scan
    for grid in (GRID16.reshape(2, 8), 0.5):
        with pytest.raises(ValueError, match="one-dimensional"):
            fringe_scan(rho, "h", grid)
    with pytest.raises(ValueError, match="theta grid is empty"):
        fringe_scan(rho, "h", [])
    runs = (
        lambda rate: tomography.simulate_tomography(rho, rate),
        lambda rate: fringe_scan(rho, "h", GRID16, rate),
        lambda rate: bell.chsh_empirical(rho, rate_cps=rate),
    )
    for run in runs:
        with pytest.raises(ValueError, match=r"rate must be finite and lie in \[0.0, inf\]"):
            run(-1.0)
    # a float32 rate or duration is read as a float: a mean past float64's
    # range is refused, not cast to float32 under numpy's overflow warning
    for rate, duration in ((np.float32(3.0), 1e308), (1e308, np.float32(3.0))):
        runs = (
            lambda: tomography.simulate_tomography(rho, rate, duration),
            lambda: tomography.simulate_tomography(rho, rate, duration, exact=True),
            lambda: fringe_scan(rho, "h", GRID16, rate, duration),
            lambda: bell.chsh_empirical(rho, rate, duration),
        )
        for run in runs:
            with pytest.raises(ValueError):
                run()
    # a mean past 2**53, the most a record holds, is refused before numpy's
    # Poisson draw, which would refuse it in its own words, and in exact
    # mode alike (CHSH's exact mode counts at 1 cps)
    runs = (
        lambda exact: tomography.simulate_tomography(rho, 1e300, exact=exact),
        lambda exact: fringe_scan(rho, "h", GRID16, 1e300, exact=exact),
        lambda exact: bell.chsh_empirical(rho, 1e300),
    )
    for run in runs:
        for exact in (False, True):
            with pytest.raises(ValueError, match="mean counts above 2\\*\\*53 .*got [67]"):
                run(exact)


def _indefinite_state():
    """I/4 + 0.6 ZZ + 0.9 XX: trace one and Hermitian, with eigenvalues
    1.75, 0.55, -0.05 and -1.25, so some of its probabilities lie outside
    [0, 1] on both sides."""
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    m = np.eye(4) / 4 + 0.6 * np.kron(z, z) + 0.9 * np.kron(x, x)
    return DensityMatrix(m, (POLARIZATION, OAM_O2), require_positive=False)


def test_counting_refuses_probabilities_outside_the_unit_interval():
    rho = _indefinite_state()
    experiments = {
        "tomography": (
            [r.setting for r in tomography.simulate_tomography(SINGLET)],
            lambda exact: tomography.simulate_tomography(rho, exact=exact),
        ),
        "fringe": (
            [_theta_setting(t, "h", 15.0) for t in GRID16],
            lambda exact: fringe_scan(rho, "h", GRID16, exact=exact),
        ),
        "chsh": (
            [r.setting for r in bell.chsh_records(SINGLET)],
            lambda exact: bell.chsh_exact(rho) if exact else bell.chsh_empirical(rho),
        ),
    }
    for name, (settings, count) in experiments.items():
        probs = [_born_probability(rho, s) for s in settings]
        outside = [p for p in probs if p < -1e-12 or p > 1.0 + 1e-12]
        # the first offender is neither the least nor the greatest
        # probability, so only a check in setting order names it
        assert min(probs) < outside[0] < max(probs), name
        for exact in (False, True):
            with pytest.raises(ValueError) as err:
                count(exact)
            assert str(err.value) == f"probability {outside[0]} outside [0, 1]", (name, exact)


def test_scan_labels_are_formatted_once_per_grid():
    pairs = measurement._scan_pairs(GRID16.tobytes(), "h")
    # a repeated grid, as a new array or a list, reuses the cached pairs
    for grid in (GRID16.copy(), list(GRID16)):
        fringe = fringe_scan(SINGLET, "h", grid)
        assert [(r.setting.alice, r.setting.bob) for r in fringe] == list(pairs)
        grid_bytes = np.asarray(grid, dtype=float).tobytes()
        assert measurement._scan_pairs(grid_bytes, "h") is pairs
    assert pairs == tuple((f"theta={t:.17g}", "h") for t in GRID16.tolist())
    # each tag reads back the float scanned
    assert [measurement._theta(a) for a, _ in pairs] == GRID16.tolist()
    # keyed by the bytes: -0.0 tags differently from 0.0
    signed = [r.setting.alice for r in fringe_scan(SINGLET, "h", -GRID16)]
    assert signed[0] == "theta=-0" and pairs[0][0] == "theta=0"


def test_fringe_scan_returns_the_grid_floats_its_tags_read_back_to():
    # each record's tag reads back, with its 17 digits, to the grid's own
    # float, -0.0 included, and the fit reads those angles
    for grid in (GRID16, -GRID16, np.array([-0.0, 0.0, -1e-300, 1.0 / 3.0])):
        records = fringe_scan(SINGLET, "h", grid, 100.0, 15.0, seed=2, scan_index=1)
        points = measurement._scan_points(records)
        thetas = np.array([t for t, _ in points])
        assert thetas.tobytes() == grid.tobytes()
        assert all(type(t) is float and type(c) is float for t, c in points)
        assert [c for _, c in points] == [float(r.counts) for r in records]


# each public guard of a real number, as a function of the guarded value
GUARDS = {
    "noise-parameter": lambda x: NoiseModel.from_dict({"miscal_angle": x}).miscal_angle,
    "duration": lambda x: MeasurementSetting("H", "+2", x).duration_s,
    "rate": lambda x: [r.counts for r in tomography.simulate_tomography(SINGLET, x, exact=True)],
    "fringe-count": lambda x: visibility_minmax(
        [CountRecord(MeasurementSetting("theta=0", "h"), x, 0), *_scan((1.0,), (1.0,), "h")]
    ),
    "outcome-count": lambda x: bell.ChshResult.from_records(
        [CountRecord(r.setting, x, 0) for r in bell.chsh_records(SINGLET)]
    ).correlations,
}


@pytest.mark.parametrize("guard", GUARDS)
def test_real_number_guards_accept_and_refuse_the_same_values(guard):
    check = GUARDS[guard]
    want = check(3.0)
    for ok in (3.0, 3, np.float64(3.0), np.float32(3.0), np.int64(3)):
        got = check(ok)
        assert got == want and type(got) is type(want), (guard, type(ok))
    for bad in (True, np.bool_(True), "1.5", 1j):
        with pytest.raises(TypeError):
            check(bad)
    # an integer past float64's range reads as inf, which the caller refuses
    with pytest.raises(ValueError):
        check(10**400)


# each public guard of a seed, as a function of the guarded seed
SEED_GUARDS = {
    "record": lambda x: CountRecord(MeasurementSetting("H", "+2"), 1, x).seed,
    "tomography": lambda x: [
        (r.counts, r.seed) for r in tomography.simulate_tomography(SINGLET, seed=x)
    ],
    "fringe": lambda x: [
        (r.counts, r.seed) for r in fringe_scan(SINGLET, "h", GRID16, seed=x)
    ],
    "chsh": lambda x: bell.chsh_empirical(SINGLET, seed=x).correlations,
}


@pytest.mark.parametrize("guard", SEED_GUARDS)
def test_seed_guards_accept_and_refuse_the_same_values(guard):
    check = SEED_GUARDS[guard]
    want = check(3)
    for ok in (3, np.int64(3), np.uint64(3), np.int8(3)):
        assert check(ok) == want, (guard, type(ok))
    # SeedSequence would read a bool as 0 or 1, and None as a request for
    # fresh entropy; a float seed is refused even where it is integral
    for bad in (True, np.bool_(True), None, 3.0, np.float64(3.0), "3", 3 + 0j):
        with pytest.raises(TypeError, match="seed must be an integer"):
            check(bad)
    for bad in (-1, np.int64(-1), -(10**400)):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, inf\]"):
            check(bad)
    # a multi-word seed is taken whole
    assert check(2**200) == check(2**200) != want


def test_compiled_settings_are_read_only():
    fringe = fringe_scan(SINGLET, "h", GRID16)
    scan_pairs = tuple((r.setting.alice, r.setting.bob) for r in fringe)
    keys = ((tomography._KEYS, 15.0), (scan_pairs, 15.0), (bell._OUTCOMES, 15.0))
    compiled = [measurement._compiled(*key) for key in keys]
    for _, ops in compiled:
        assert not ops.flags.writeable
    # the one cache builds an experiment once per label pairs and duration, so
    # its records carry the cached settings
    assert all(measurement._compiled(*key) is c for key, c in zip(keys, compiled))
    tomo = tomography.simulate_tomography(SINGLET, duration_s=15.0)
    assert all(a is r.setting for a, r in zip(compiled[0][0], tomo))
    scan = compiled[1][0]
    assert all(a is r.setting for a, r in zip(scan, fringe))
    chsh = bell.chsh_records(SINGLET, duration_s=60.0)
    assert all(a is r.setting for a, r in zip(compiled[2][0], chsh))
    # a new duration builds new settings on the same stack, whose 36
    # canonical products are tomography's model rows
    other = measurement._compiled(tomography._KEYS, 7.0)
    assert other[0][0].duration_s == 7.0 and other[1] is compiled[0][1]
    assert not tomography._ROWS.flags.writeable
    assert np.array_equal(tomography._PROJECTORS, compiled[0][1].reshape(36, 16))


def test_count_records_refuse_counts_float64_cannot_hold():
    s = MeasurementSetting("H", "+2")
    for ok in (0, 2**53, float(2**53), 5, 7.25, np.int64(9), np.float64(2.5)):
        assert CountRecord(s, ok, 0).counts == ok
    for bad in (2**53 + 1, float(2**54), 2**62, 2**64, 10**30, 1e30, np.uint64(2**64 - 1)):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            CountRecord(s, bad, 0)
    for bad, match in (
        (float("nan"), "finite"), (float("inf"), "finite"), (np.float64("-inf"), "finite"),
        (-1, "non-negative"), (-0.5, "non-negative"), (-(2**70), "non-negative"),
    ):
        with pytest.raises(ValueError, match=match):
            CountRecord(s, bad, 0)
    with pytest.raises(TypeError):
        CountRecord(s, "5", 0)
    # and a seed is a non-negative integer, numpy's too, as the CSV holds it
    for ok in (0, 2**200, np.int64(5), np.uint64(2**63)):
        assert CountRecord(s, 1, ok).seed == ok
    for bad, error in ((-1, ValueError), (np.int32(-2), ValueError), ("x", TypeError),
                       (1.5, TypeError), (2.0, TypeError), (True, TypeError), (None, TypeError)):
        with pytest.raises(error, match="seed"):
            CountRecord(s, 1, bad)
    # a huge count or seed, past Python's 4,300-digit limit for printing an
    # integer too, gets the record's own message with a bounded value
    for counts, seed, message in (
        (10**5000, 0, "counts above 2**53 are not exact in float64, got inf"),
        (10**400, 0, "counts above 2**53 are not exact in float64, got inf"),
        (2**53 + 1, 0, "counts above 2**53 are not exact in float64, got 9.0072e+15"),
        (5, -10**5000, "seed must lie in [0, inf], got -inf"),
        (5, -10**400, "seed must lie in [0, inf], got -inf"),
    ):
        with pytest.raises(ValueError) as refused:
            CountRecord(s, counts, seed)
        assert str(refused.value) == message
    # a bool is not a count: the CSV would write it as True
    for bad in (True, False, np.True_):
        with pytest.raises(TypeError, match="bool"):
            CountRecord(s, bad, 0)
    # nor is a number that neither Python's int nor float holds, which the
    # CSV could not write back: a long double, an array
    for bad in (np.longdouble(1) / 10, np.array(3.0), np.array([3.0])):
        with pytest.raises(TypeError, match="int or a float"):
            CountRecord(s, bad, 0)
    # a narrow numpy float is compared with 2**53 as a Python float
    assert CountRecord(s, np.float16(2.5), 0).counts == 2.5


def test_every_record_the_constructor_accepts_round_trips_the_csv(tmp_path):
    # counts and seeds of many types and sizes, drawn from a seeded stream:
    # every record CountRecord accepts is written and read back equal, and
    # every other pair is refused with TypeError or ValueError
    rng = np.random.default_rng(20261019)
    counts = (
        0, 5, 2**53, 2**53 + 1, -1, 0.0, -0.0, 7.25, 1e-300, 5e-324, float(2**53),
        1e30, float("nan"), float("inf"), True, False, np.True_, np.False_,
        np.int64(9), np.uint64(2**63), np.int8(-3), np.float32(0.1), np.float16(2.5),
        np.float64(468.75), np.longdouble(1) / 10, np.array(3.0), np.array([3.0]), "5", None,
    )
    seeds = (
        0, 1, 2**64 + 7, 2**200, -1, np.int64(5), np.uint64(2**63), np.int32(-2),
        True, False, np.True_, 1.5, 2.0, np.float64(3.0), "x", "3", None,
    )
    settings = (MeasurementSetting("H", "+2"), MeasurementSetting("theta=0.3", "h", 0.25))
    accepted, refused = [], 0
    for _ in range(600):
        c = counts[rng.integers(len(counts))]
        if rng.random() < 0.3:  # a float of any size, or an integer up to past 2**53
            c = float(10.0 ** rng.uniform(-320.0, 18.0)) if rng.random() < 0.5 else int(
                rng.integers(0, 2**54)
            )
        seed = seeds[rng.integers(len(seeds))]
        try:
            accepted.append(CountRecord(settings[rng.integers(2)], c, seed))
        except (TypeError, ValueError):
            refused += 1
    assert len(accepted) > 100 and refused > 100
    path = tmp_path / "counts.csv"
    write_counts_csv(accepted, path)
    back = read_counts_csv(path)
    assert len(back) == len(accepted)
    for a, b in zip(accepted, back):
        assert (b.setting, b.counts, b.seed) == (a.setting, a.counts, a.seed), (a, b)
        assert type(b.seed) is int
        # an integer count reads back an int, and a float count a float
        assert type(b.counts) is (int if isinstance(a.counts, (int, np.integer)) else float)


def test_counts_csv_roundtrip(tmp_path):
    rho = SINGLET
    recs = fringe_scan(rho, "h", GRID16, seed=2)
    path = tmp_path / "counts.csv"
    write_counts_csv(recs, path)
    back = read_counts_csv(path)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        assert b.counts == a.counts and isinstance(b.counts, int)
        assert b.setting == a.setting
        assert b.seed == a.seed == 2


def test_counts_csv_roundtrip_fractional(tmp_path):
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.25))
    recs = [_exact_tomography(rho)["H|+2"]]
    path = tmp_path / "exact.csv"
    write_counts_csv(recs, path)
    back = read_counts_csv(path)
    assert isinstance(back[0].counts, float)
    assert abs(back[0].counts - 468.75) < 1e-12
    assert back[0].counts == recs[0].counts


def test_a_float_count_reads_back_a_float(tmp_path):
    # an exact expectation that happens to be a whole number keeps its point,
    # -0.0 its sign, and a tiny one its bits through its exponent form
    s = MeasurementSetting("H", "+2")
    path = tmp_path / "whole.csv"
    counts = [375.0, -0.0, 375, 5e-324, 1e-5, 2.5e-300, float(2**53)]
    write_counts_csv([CountRecord(s, c, 0) for c in counts], path)
    assert [row.split(",")[4] for row in path.read_text().splitlines()[1:]] == [
        "375.0", "-0.0", "375", "4.9406564584124654e-324", "1.0000000000000001e-05",
        "2.5e-300", "9007199254740992.0",
    ]
    back = [r.counts for r in read_counts_csv(path)]
    assert [type(c) for c in back] == [type(c) for c in counts]
    assert [float(c).hex() for c in back] == [float(c).hex() for c in counts]
    # so the maximally mixed state's exact CHSH table reads back exact, all
    # floats, though half its expectations are 375 exactly
    mixed = DensityMatrix(np.eye(4) / 4, (POLARIZATION, OAM_O2))
    exact = bell.chsh_records(mixed, exact=True)
    write_counts_csv(exact, path)
    back = read_counts_csv(path)
    assert all(type(r.counts) is float for r in back)
    assert [r.counts for r in back] == [r.counts for r in exact]
    assert any(r.counts == 375.0 for r in back)
    result = bell.ChshResult.from_records(back)
    assert result == bell.ChshResult.from_records(exact) and result.sigma is None
    # a drawn table stays ints, each cell its integer literal, byte for byte
    drawn = bell.chsh_records(mixed, seed=5)
    write_counts_csv(drawn, path)
    first = path.read_bytes()
    assert [row.split(",")[4] for row in path.read_text().splitlines()[1:]] == [
        str(r.counts) for r in drawn
    ]
    back = read_counts_csv(path)
    assert all(type(r.counts) is int for r in back)
    write_counts_csv(back, path)
    assert path.read_bytes() == first


def test_counts_csv_reads_share_their_settings(tmp_path):
    rho = SINGLET
    recs = tomography.simulate_tomography(rho, seed=3)
    path = tmp_path / "counts.csv"
    write_counts_csv(recs, path)
    first, again = read_counts_csv(path), read_counts_csv(path)
    # equal settings
    assert [a.setting for a in first] == [b.setting for b in again]
    for a, b in zip(first, recs):
        assert (a.setting.label, a.setting.alice, a.setting.bob) == (
            b.setting.label, b.setting.alice, b.setting.bob
        )
        assert a.setting.duration_s == b.setting.duration_s


def test_counts_csv_rejects_non_finite_counts(tmp_path):
    rho = SINGLET
    recs = fringe_scan(rho, "h", GRID16, seed=2)
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
    recs = tomography.simulate_tomography(SINGLET, seed=3)
    path = tmp_path / "counts.csv"
    write_counts_csv(recs, path)
    lines = path.read_text().splitlines()
    cases = [(0, "bogus", "does not name"), (0, "V|+2", "does not name"),
             (5, "-3", r"seed must lie in \[0, inf\], got -3")]
    # Python's number literals accept these, but write_counts_csv never writes them
    cases += [(4, value, "counts cell")
              for value in ("1_000", "+1000", " 1000", "1_0.5", "\u0661\u0660")]
    cases += [(3, "1_5", "duration_s cell"), (5, "+7", "seed cell")]
    # and a scan tag's angle is read by the same rule
    cases += [(1, "theta=1_0", "scan angle")]
    for column, value, match in cases:
        cells = lines[1].split(",")
        cells[column] = value
        path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        with pytest.raises(ValueError, match=match):
            read_counts_csv(path)
    for row in (lines[1] + ",99", lines[1].rsplit(",", 1)[0]):
        path.write_text("\n".join([lines[0], row, *lines[2:]]) + "\n")
        with pytest.raises(ValueError, match="line 2 does not have 6 cells"):
            read_counts_csv(path)


def test_counts_csv_rejects_foreign_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("setting,counts\nH|+2,5\n")
    with pytest.raises(ValueError):
        read_counts_csv(path)
    # a repeated column, whose last cell would silently replace the first
    header = "setting_label,alice,bob,duration_s,counts,seed,counts"
    path.write_text(f"{header}\nH|+2,H,+2,15,5,0,999\n")
    with pytest.raises(ValueError, match="unexpected CSV columns"):
        read_counts_csv(path)


def test_defaults_are_the_reference_acquisition():
    assert DEFAULT_RATE_CPS == 100.0
    assert DEFAULT_DURATION_S == 15.0
