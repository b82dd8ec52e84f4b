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
from hybridoam.source import NoiseModel, hybrid_singlet, prepare_hybrid
from hybridoam.states import basis_ket, density_from_ket

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


def test_stream_seeds_are_distinct_and_reproducible():
    s1 = setting_stream_seed(0, (0, 3))
    assert s1 == setting_stream_seed(0, (0, 3))
    assert s1 != setting_stream_seed(0, (0, 4))
    assert s1 != setting_stream_seed(1, (0, 3))
    assert s1 != setting_stream_seed(0, (1, 3))


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
