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
    setting_from_labels,
    setting_stream_seed,
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
    density_from_ket,
)

GRID16 = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)


def test_joint_probabilities_of_the_hybrid_singlet():
    rho = hybrid_singlet()
    probs = {
        (a, b): joint_probability(rho, setting_from_labels(a, b))
        for a in ("H", "V")
        for b in ("+2", "-2")
    }
    assert abs(probs[("H", "+2")] - 0.5) < 1e-12
    assert abs(probs[("V", "-2")] - 0.5) < 1e-12
    assert probs[("H", "-2")] < 1e-12
    assert probs[("V", "+2")] < 1e-12
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    # conjugate-basis correlations persist for the entangled state
    assert abs(joint_probability(rho, setting_from_labels("+", "v")) - 0.5) < 1e-12
    assert joint_probability(rho, setting_from_labels("+", "h")) < 1e-12


def test_joint_probability_rejects_wrong_shape():
    with pytest.raises(ValueError):
        joint_probability(
            density_from_ket(basis_ket("H")), setting_from_labels("H", "+2")
        )


def test_expected_counts_scale():
    rho = hybrid_singlet()
    s = setting_from_labels("H", "+2", duration_s=15.0)
    assert abs(expected_counts(rho, s, 100.0) - 750.0) < 1e-9
    with pytest.raises(ValueError):
        expected_counts(rho, s, -1.0)


def test_exact_counts_keep_fractional_expectations():
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.25))
    s = setting_from_labels("H", "+2", duration_s=15.0)
    rec = exact_counts(rho, s, 100.0)
    assert isinstance(rec, CountRecord) and isinstance(rec.counts, float)
    # p = 0.25*0.5 + 0.75*0.25 = 0.3125, times 1500
    assert abs(rec.counts - 468.75) < 1e-9
    assert abs(rec.expected_rate_cps - 31.25) < 1e-9


def test_simulate_counts_deterministic_and_unbiased():
    rho = hybrid_singlet()
    s = setting_from_labels("H", "+2", duration_s=15.0)
    seed = setting_stream_seed(0, (0, 0))
    a = simulate_counts(rho, s, 100.0, seed)
    b = simulate_counts(rho, s, 100.0, seed)
    assert a.counts == b.counts
    assert isinstance(a.counts, int)
    draws = [
        simulate_counts(rho, s, 100.0, setting_stream_seed(0, (9, i))).counts
        for i in range(200)
    ]
    lam = 750.0
    assert abs(np.mean(draws) - lam) < 3 * np.sqrt(lam / 200)


# batches whose paths share a leading run of words that ends at each
# position: a batch pools its shared words once and mixes the rest per stream
PREFIX_BATCHES = (
    [(i, 5) for i in range(4)],  # differ at word 0
    [(0, i) for i in range(36)],  # tomography's (0, i)
    [(1, k, idx) for k in range(4) for idx in range(4)],  # CHSH's (1, k, idx)
    [(2, 3, i) for i in range(16)],  # a fringe scan's (2, s, i)
    [(4, 5, 6)],  # one path: every word shared
    [(2, 3, 4)] * 3,  # alike paths: every word shared
    [(2**40 + 1, i) for i in range(3)],  # a shared element of two words
    [(1, 2), (1, 2, 3), (1,), (1, 2, 2**33)],  # mixed lengths
)


def test_stream_seeds_are_distinct_and_reproducible():
    s1 = setting_stream_seed(0, (0, 3))
    assert s1 == setting_stream_seed(0, (0, 3))
    assert s1 != setting_stream_seed(0, (0, 4))
    assert s1 != setting_stream_seed(1, (0, 3))
    assert s1 != setting_stream_seed(0, (1, 3))
    # numpy's SeedSequence is the oracle, for what it accepts...
    accepted = (
        (True, (0, True)), (np.int64(5), (np.int64(2), 7)), (np.uint64(2**64 - 1), (3,)),
        (2**64 + 7, (2**32 + 1, 0)), (2**200, (1, 2**70)), (5, ()),
    )
    for seed, path in accepted:
        assert setting_stream_seed(seed, path) == _numpy_seed(seed, path)
    # one batch whose paths hold different numbers of words
    paths = [(0, 1), (2**40, 3, 4), (), (7,)]
    seeds, states = measurement._streams(9, paths, draw=False)
    assert states is None
    assert seeds.tolist() == [_numpy_seed(9, p) for p in paths]
    # a shared prefix ending at each word, under seeds of one to seven words
    for seed in (0, 2**32 - 1, 2**64 + 7, 2**200):
        for paths in PREFIX_BATCHES:
            got = measurement._streams(seed, paths, draw=False)[0]
            assert got.tolist() == [_numpy_seed(seed, p) for p in paths]
    # batches built as the counting code builds them, at the one-word limit:
    # elements up to 2**32 - 1 take the one-pass block, 2**32, bools and
    # numpy integers the per-element words
    top = 2**32 - 1
    for paths in (
        [(0, i) for i in range(36)],
        [(2, top, i) for i in range(16)],
        [(top, i) for i in range(top - 3, top + 1)],
        [(1, i) for i in range(2**32 - 2, 2**32 + 2)],
        [(3, True), (3, 1)],
        [(2, np.int64(5), i) for i in range(4)],
    ):
        got = measurement._streams(top, paths, draw=False)[0]
        assert got.dtype == np.uint64
        assert got.tolist() == [_numpy_seed(top, p) for p in paths]
    # ...and for what it refuses, checked before any cast to uint32
    refused = (
        (-1, (0, 1), ValueError), (0, (0, -1), ValueError), (0, (-(2**40),), ValueError),
        (1.7, (0, 1), TypeError), (0, (0, 1.7), TypeError), (np.float64(2.0), (0,), TypeError),
    )
    for seed, path, error in refused:
        with pytest.raises(error):
            np.random.SeedSequence(seed, spawn_key=path)
        with pytest.raises(error):
            setting_stream_seed(seed, path)
    rho = hybrid_singlet()
    s = setting_from_labels("H", "+2")
    for bad, error in ((-1, ValueError), (1.7, TypeError)):
        with pytest.raises(error):
            np.random.default_rng(bad)
        with pytest.raises(error):
            simulate_counts(rho, s, 100.0, bad)
        with pytest.raises(error):
            tomography.simulate_tomography(rho, seed=bad)
        with pytest.raises(error):
            fringe_scan_records(rho, "+2", GRID16, scan_index=bad)
        with pytest.raises(error):
            bell.chsh_empirical(rho, seed=bad)


def test_counting_seeds_pcg64_as_default_rng_does():
    # default_rng(s) seeds PCG64 from SeedSequence(s).generate_state(4, uint64);
    # a seed below 2**32 is one entropy word, one past 2**64 three, and
    # 2**200 seven
    seeds = [5, 0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 7, 2**200,
             setting_stream_seed(3, (0, 1)), True, np.uint64(2**63)]
    rho = hybrid_singlet()
    s = setting_from_labels("H", "+2")
    for seed in seeds:
        got = simulate_counts(rho, s, 100.0, seed).counts
        assert got == np.random.default_rng(seed).poisson(750.0)
    # a batch reseeds from its stream seeds' words: every batch shape gives
    # numpy's states and draws, wherever its shared prefix ends
    for seed in (0, 7, 2**32 - 1, 2**64 + 7, 2**200):
        for paths in PREFIX_BATCHES:
            stream_seeds, states = measurement._streams(seed, paths)
            want = [_numpy_seed(seed, p) for p in paths]
            assert stream_seeds.tolist() == want
            assert states.tolist() == [
                np.random.SeedSequence(w).generate_state(4, np.uint64).tolist() for w in want
            ]
            means = np.linspace(0.5, 5000.0, len(paths))
            assert measurement._poisson_draws(states, means) == [
                np.random.default_rng(w).poisson(mean) for w, mean in zip(want, means)
            ]


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
        MeasurementSetting(
            alice_proj=np.eye(2),  # rank 2
            bob_proj=np.diag([1.0, 0.0]),
            duration_s=1.0,
            label="bad",
        )
    with pytest.raises(ValueError):
        setting_from_labels("H", "+2", duration_s=0.0)
    with pytest.raises(ValueError):
        setting_from_labels("+2", "H")  # degrees swapped
    with pytest.raises(ValueError):
        CountRecord(setting_from_labels("H", "+2"), -1, None, 0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CountRecord(setting_from_labels("H", "+2"), bad, None, 0)


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


def test_fringe_records_use_per_point_streams():
    rho = hybrid_singlet()
    recs = fringe_scan_records(rho, "+2", GRID16, seed=3)
    again = fringe_scan_records(rho, "+2", GRID16, seed=3)
    assert [r.counts for r in recs] == [r.counts for r in again]
    other_scan = fringe_scan_records(rho, "+2", GRID16, seed=3, scan_index=1)
    assert [r.counts for r in recs] != [r.counts for r in other_scan]
    assert recs[0].setting.alice.startswith("theta=")


def _numpy_seed(seed, path):
    """A stream seed as numpy's own SeedSequence derives it."""
    return int(np.random.SeedSequence(seed, spawn_key=path).generate_state(1, np.uint64)[0])


def _loop_records(rho, settings, rate, seeds, exact):
    """The reference: one exact record per setting, drawn by numpy's own
    default_rng on the setting's stream seed."""
    records = [exact_counts(rho, s, rate, seed=sd) for s, sd in zip(settings, seeds)]
    if exact:
        return records
    return [
        CountRecord(
            r.setting,
            int(np.random.default_rng(r.seed).poisson(r.counts)),
            r.expected_rate_cps,
            r.seed,
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
    aname = f"theta={theta:.17g}"
    ket = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
    return MeasurementSetting(
        alice_proj=np.outer(ket, ket.conj()),
        bob_proj=setting_from_labels("H", bob).bob_proj,
        duration_s=duration_s,
        label=f"{aname}|{bob}",
        alice=aname,
        bob=bob,
    )


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
                # tomography: setting i on stream (0, i)
                settings = tomography.tomography_settings(duration)
                seeds = [_numpy_seed(seed, (0, i)) for i in range(36)]
                got = tomography.simulate_tomography(rho, rate, duration, seed, exact)
                want = _loop_records(rho, settings, rate, seeds, exact)
                assert _as_rows(got) == _as_rows(want)
                # fringes: point i of scan k on stream (2, k, i); a scan index
                # past 2**32 puts two words in the spawn key
                for k, bob in ((0, "+2"), (1, "h"), (2**32 + 1, "h")):
                    settings = [_theta_setting(t, bob, duration) for t in GRID16]
                    seeds = [_numpy_seed(seed, (2, k, i)) for i in range(16)]
                    got = fringe_scan_records(
                        rho, bob, GRID16, rate, duration, seed, k, exact
                    )
                    want = _loop_records(rho, settings, rate, seeds, exact)
                    assert _as_rows(got) == _as_rows(want)
                    # Bob's projector as a matrix: same counts, no Bob label
                    matrix = fringe_scan_records(
                        rho, settings[0].bob_proj, GRID16, rate, duration, seed, k,
                        exact,
                    )
                    assert [r.counts for r in matrix] == [r.counts for r in got]
                    assert matrix[0].setting.bob == ""
            # CHSH: outcome (i, j) of pair k on stream (1, k, 2i + j)
            result = bell.chsh_empirical(
                rho, rate_cps=rate, duration_s=4 * duration, seed=seed
            )
            a, a_p, b, b_p = bell.chsh_settings()
            es = []
            for k, (x, y) in enumerate(((a, b), (a_p, b), (a, b_p), (a_p, b_p))):
                settings = [
                    MeasurementSetting(x.projector(i), y.projector(j), duration, "")
                    for i in (0, 1) for j in (0, 1)
                ]
                seeds = [_numpy_seed(seed, (1, k, idx)) for idx in range(4)]
                counts = [r.counts for r in _loop_records(rho, settings, rate, seeds, False)]
                es.append(bell.correlation_from_counts(counts))
            assert result.correlations == tuple(es)
            assert result.s == es[0] + es[1] + es[2] - es[3]


NAN2 = np.full((2, 2), np.nan)
NAN4 = np.full((4, 4), np.nan)
PAIR = (POLARIZATION, OAM_O2)
SINGLET = hybrid_singlet()
# each refused at its own guard: a tolerance test that NaN fails, or a
# finiteness check where no tolerance test can see it
NON_FINITE = {
    "projector": (
        lambda: MeasurementSetting(NAN2, np.diag([1.0, 0.0]), 1.0, "nan"), "not Hermitian"
    ),
    "observable": (lambda: bell.DichotomicObservable(NAN2, NAN2, "nan"), "not rank 1"),
    "ket": (lambda: StateVector([np.nan, 0.0], (POLARIZATION,)), "not normalized"),
    "unnormalized-ket": (
        lambda: StateVector([np.nan, 1.0], (POLARIZATION,), unnormalized=True), "finite"
    ),
    "infinite-unnormalized-ket": (
        lambda: StateVector([np.inf, 0.0], (POLARIZATION,), unnormalized=True), "finite"
    ),
    "density-matrix": (
        lambda: DensityMatrix(NAN4, PAIR, require_positive=False), "not Hermitian"
    ),
    "positive-density-matrix": (lambda: DensityMatrix(NAN4, PAIR), "not Hermitian"),
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


def test_counting_rejects_bad_inputs():
    rho = hybrid_singlet()
    a, a_p, b, b_p = bell.chsh_settings()
    skew = np.array([[1, 1], [0, 0]])  # idempotent, trace 1, not Hermitian
    bad = bell.DichotomicObservable(skew, np.eye(2) - skew, "skew")
    with pytest.raises(ValueError, match="not Hermitian"):
        bell.chsh_empirical(rho, settings=(a, a_p, b, bad))
    with pytest.raises(ValueError, match="not idempotent"):
        fringe_scan_records(rho, np.diag([1.0, 0.5]), GRID16)
    one_qubit = density_from_ket(basis_ket("H"))
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
    stacks = (
        tomography._compiled_settings(15.0)[1],
        measurement._fringe_settings(
            fringe[0].setting.bob_proj.tobytes(), "h", GRID16.tobytes(), 15.0
        )[1],
        bell._default_compiled()[1],
    )
    assert all(not ops.flags.writeable for ops in stacks)
    # a scan label's projector is checked once and then shared, read-only
    label = measurement._label_projector("h")
    assert label is measurement._label_projector("h") and label[1] == "h"
    assert np.array_equal(label[0], fringe[0].setting.bob_proj)
    assert not label[0].flags.writeable


def test_count_records_refuse_counts_float64_cannot_hold():
    s = setting_from_labels("H", "+2")
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
    recs = [exact_counts(rho, setting_from_labels("H", "+2"), 100.0)]
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
    # one checked setting per (label, alice, bob, duration), shared read-only
    assert all(a.setting is b.setting for a, b in zip(first, again))
    assert not first[0].setting.alice_proj.flags.writeable
    assert not first[0].setting.bob_proj.flags.writeable
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


def test_counts_csv_rejects_foreign_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("setting,counts\nH|+2,5\n")
    with pytest.raises(ValueError):
        read_counts_csv(path)


def test_defaults_are_the_reference_acquisition():
    assert DEFAULT_RATE_CPS == 100.0
    assert DEFAULT_DURATION_S == 15.0
