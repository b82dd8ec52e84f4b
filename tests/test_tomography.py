import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hybridoam.measurement import CountRecord, setting_from_labels, setting_stream_seed
from hybridoam.source import NoiseModel, hybrid_singlet, hybrid_singlet_ket, prepare_hybrid
from hybridoam.states import (
    OAM_O2,
    POLARIZATION,
    DensityMatrix,
    StateVector,
    project_to_physical,
)
from hybridoam.tomography import (
    ALICE_LABELS,
    BOB_LABELS,
    InsufficientDataError,
    StateMetrics,
    concurrence,
    fidelity,
    linear_entropy,
    linear_inversion,
    log_likelihood,
    metric_uncertainties,
    mle_reconstruct,
    reconstruct,
    simulate_tomography,
    tomography_settings,
    trace_distance,
)

PSI = hybrid_singlet_ket()


def test_settings_enumeration():
    settings = tomography_settings()
    assert len(settings) == 36
    # Alice-major order, six Bob analyzers per Alice analyzer
    assert [s.label for s in settings[:6]] == [
        "H|+2", "H|-2", "H|h", "H|v", "H|a", "H|d",
    ]
    assert settings[6].label == "V|+2"
    assert {s.alice for s in settings} == set(ALICE_LABELS)
    assert {s.bob for s in settings} == set(BOB_LABELS)
    # built once: a fresh list of the same settings, whose projectors are read-only
    again = tomography_settings()
    assert again is not settings and all(a is b for a, b in zip(again, settings))
    assert not settings[0].alice_proj.flags.writeable
    assert not settings[0].bob_proj.flags.writeable


def test_exact_data_linear_inversion_is_exact():
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.887))
    recs = simulate_tomography(rho, exact=True)
    assert all(isinstance(r.counts, float) for r in recs)
    assert all(
        abs(r.expected_rate_cps * r.setting.duration_s - r.counts) < 1e-9
        for r in recs
    )
    est = linear_inversion(recs)
    assert np.max(np.abs(est.matrix - rho.matrix)) < 1e-12


def test_exact_data_mle_matches_truth():
    rho = hybrid_singlet()
    run = reconstruct(simulate_tomography(rho, exact=True))
    assert abs(fidelity(run.rho_mle, PSI) - 1.0) < 1e-10
    assert np.max(np.abs(run.rho_mle.matrix - rho.matrix)) < 1e-8
    assert trace_distance(run.rho_mle, rho) < 1e-8
    assert np.max(np.abs(run.rho_linear.matrix - rho.matrix)) < 1e-12


def test_maximally_mixed_state_reconstructs():
    rho = DensityMatrix(np.eye(4) / 4, (POLARIZATION, OAM_O2))
    run = reconstruct(simulate_tomography(rho, exact=True))
    assert np.max(np.abs(run.rho_linear.matrix - np.eye(4) / 4)) < 1e-12
    assert np.max(np.abs(run.rho_mle.matrix - np.eye(4) / 4)) < 1e-8


def test_werner_metrics_closed_forms_exact_mode():
    for p in (0.0, 0.5, 0.887, 1.0):
        rho, _ = prepare_hybrid(NoiseModel(werner_p=p))
        run = reconstruct(simulate_tomography(rho, exact=True))
        assert abs(fidelity(run.rho_mle, PSI) - (1 + 3 * p) / 4) < 1e-10
        assert abs(concurrence(run.rho_mle) - max(0.0, (3 * p - 1) / 2)) < 1e-10
        assert abs(linear_entropy(run.rho_mle) - (1 - p * p)) < 1e-10


def test_metric_oracles_on_known_states():
    pure = hybrid_singlet()
    assert abs(fidelity(pure, PSI) - 1.0) < 1e-12
    assert abs(concurrence(pure) - 1.0) < 1e-12
    assert linear_entropy(pure) < 1e-12
    mixed = DensityMatrix(np.eye(4) / 4, (POLARIZATION, OAM_O2))
    assert abs(fidelity(mixed, PSI) - 0.25) < 1e-12
    assert concurrence(mixed) < 1e-12
    assert abs(linear_entropy(mixed) - 1.0) < 1e-12
    assert abs(trace_distance(mixed, pure) - 0.75) < 1e-12
    assert trace_distance(pure, pure) < 1e-12
    prod = DensityMatrix(np.diag([1.0, 0, 0, 0]), (POLARIZATION, OAM_O2))
    assert concurrence(prod) < 1e-12


def test_noisy_reconstruction_is_physical_and_close():
    rho, _ = prepare_hybrid("fitted")
    run = reconstruct(simulate_tomography(rho, seed=0))
    w = np.linalg.eigvalsh(run.rho_mle.matrix)
    assert w[0] > -1e-10
    assert abs(np.trace(run.rho_mle.matrix).real - 1.0) < 1e-9
    assert trace_distance(run.rho_mle, rho) < 0.05
    # MLE never does worse than the projected linear estimate
    base = log_likelihood(project_to_physical(run.rho_linear), run.records)
    assert run.loglik >= base - 1e-9


def test_mle_starts_from_projected_linear_inversion_and_never_loses():
    rho, _ = prepare_hybrid("fitted")
    exact = simulate_tomography(rho, exact=True)
    res = mle_reconstruct(exact)
    start = project_to_physical(linear_inversion(exact))
    assert res.converged
    assert np.max(np.abs(res.rho.matrix - start.matrix)) < 1e-12
    # a start where a counted setting has zero probability has no likelihood
    with pytest.raises(ValueError, match="zero probability"):
        mle_reconstruct(exact, start=DensityMatrix(np.diag([1.0, 0, 0, 0]), start.basis))
    for rate, seed in ((1.0, 0), (5.0, 1), (100.0, 2)):
        recs = simulate_tomography(rho, rate_cps=rate, seed=seed)
        res = mle_reconstruct(recs)
        start = project_to_physical(linear_inversion(recs))
        assert res.converged
        assert res.loglik >= log_likelihood(start, recs)
        assert res.loglik == log_likelihood(res.rho, recs)
        # converged means at the maximum: solving on from there gains ~nothing
        again = mle_reconstruct(recs, start=res.rho)
        assert again.loglik - res.loglik <= 1e-9 * abs(res.loglik)


def test_import_loads_no_scipy():
    import hybridoam

    env = dict(os.environ)
    src_dir = str(Path(hybridoam.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    code = (
        "import sys, hybridoam, hybridoam.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_count_table_validation():
    rho = hybrid_singlet()
    recs = simulate_tomography(rho, seed=1)
    with pytest.raises(InsufficientDataError):
        linear_inversion(recs[:-1])  # one setting missing
    with pytest.raises(InsufficientDataError):
        linear_inversion(recs + [recs[0]])  # duplicated setting
    renamed = CountRecord(
        setting=setting_from_labels("theta=0.5", "+2"), counts=5,
        expected_rate_cps=None, seed=0,
    )
    with pytest.raises(InsufficientDataError):
        linear_inversion(recs[:-1] + [renamed])
    zero = [CountRecord(r.setting, 0, None, 0) for r in recs]
    with pytest.raises(InsufficientDataError):
        linear_inversion(zero)


def test_mle_gradient_spot_check():
    # central finite differences of the solver's stacked objective along
    # random Hermitian directions, against its analytic gradient
    from hybridoam.tomography import _ROWS, _as_rows, _count_table, _objective

    rho, _ = prepare_hybrid("fitted")
    counts, _ = _count_table(simulate_tomography(rho, seed=2))

    def hermitian(rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        return (a + a.conj().T) / 2

    rng = np.random.default_rng(11)
    for _ in range(3):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gram = a @ a.conj().T
        rho_m = 0.8 * gram / np.trace(gram).real + 0.05 * np.eye(4)
        eps = 1e-6
        dirs = np.stack([hermitian(rng) for _ in range(3)])
        stack = np.concatenate([rho_m[None], rho_m + eps * dirs, rho_m - eps * dirs])
        f, grad = _objective(_as_rows(stack) @ _ROWS.T, np.tile(counts, (len(stack), 1)))
        fd = (f[1:4] - f[4:]) / (2 * eps)
        analytic = _as_rows(dirs) @ grad[0]
        assert np.all(np.abs(analytic - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))


def test_stacked_solve_matches_each_table_alone():
    from hybridoam.tomography import _count_table, _solve

    rho, _ = prepare_hybrid("fitted")
    rng = np.random.default_rng(5)
    tables = [
        simulate_tomography(rho, rate_cps=rate, seed=seed)
        for rate, seed in ((1.0, 0), (5.0, 1), (100.0, 2), (1000.0, 3))
    ]
    tables.append(simulate_tomography(rho, exact=True))
    tables.append(
        [CountRecord(s, int(rng.integers(0, 400)), None, 0) for s in tomography_settings()]
    )
    counts = np.stack([_count_table(t)[0] for t in tables])
    starts = np.stack([project_to_physical(linear_inversion(t)).matrix for t in tables])
    rhos, converged, n_iter = _solve(counts, starts)
    for table, rho_stacked, conv, iters in zip(tables, rhos, converged, n_iter):
        alone = mle_reconstruct(table)
        assert np.max(np.abs(rho_stacked - alone.rho.matrix)) < 1e-9
        assert conv == alone.converged
        assert iters == alone.n_iter


def _bootstrap_by_reconstruct(records, seed):
    """The bootstrap as a loop of reconstruct calls over the (3, r) streams:
    the metric sigmas and the number of refused resamples."""
    obs = np.array([float(r.counts) for r in records])
    samples, failures = [], 0
    for r in range(100):
        drawn = np.random.default_rng(setting_stream_seed(seed, (3, r))).poisson(obs)
        resample = [
            CountRecord(rec.setting, int(c), None, rec.seed)
            for rec, c in zip(records, drawn)
        ]
        try:
            run = reconstruct(resample)
        except InsufficientDataError:
            failures += 1
            continue
        rho = run.rho_mle
        samples.append((fidelity(rho, PSI), concurrence(rho), linear_entropy(rho)))
    return np.array(samples).std(axis=0, ddof=1), failures


def test_bootstrap_matches_a_reconstruct_loop():
    rho, _ = prepare_hybrid("fitted")
    # 0.5 cps tables lose a few resamples to empty basis pairs
    for rate, seed in ((0.5, 1), (5.0, 0), (100.0, 3), (1000.0, 4)):
        recs = simulate_tomography(rho, rate_cps=rate, seed=seed)
        m = metric_uncertainties(recs, n_resamples=100, seed=seed)
        sigmas, failures = _bootstrap_by_reconstruct(recs, seed)
        got = (m.fidelity_sigma, m.concurrence_sigma, m.linear_entropy_sigma)
        assert np.max(np.abs(np.array(got) - sigmas)) < 1e-6
        assert m.failed_resamples == failures
        assert m.as_dict()["failed_resamples"] == failures
        assert (failures > 0) == (rate < 1.0)
        # the point values are the metrics of reconstruct's estimate, exactly
        best = reconstruct(recs).rho_mle
        point = (fidelity(best, PSI), concurrence(best), linear_entropy(best))
        assert (m.fidelity, m.concurrence, m.linear_entropy) == point


def test_mle_physical_on_random_counts():
    rng = np.random.default_rng(7)
    settings = tomography_settings()
    for _ in range(5):
        recs = [
            CountRecord(s, int(rng.integers(0, 400)), None, 0) for s in settings
        ]
        res = mle_reconstruct(recs)
        w = np.linalg.eigvalsh(res.rho.matrix)
        assert w[0] > -1e-10
        assert abs(np.trace(res.rho.matrix).real - 1.0) < 1e-9


def test_bootstrap_uncertainties_identity_resampler():
    rho, _ = prepare_hybrid("fitted")
    recs = simulate_tomography(rho, seed=4)
    m = metric_uncertainties(recs, n_resamples=100, resampler=lambda obs, r: obs)
    # identical resamples: point estimates survive, spreads collapse
    assert m.fidelity_sigma < 1e-12
    assert m.concurrence_sigma < 1e-12
    assert m.linear_entropy_sigma < 1e-12
    assert 0.9 < m.fidelity <= 1.0
    d = m.as_dict()
    assert set(d["uncertainties"]) == {"fidelity", "concurrence", "linear_entropy"}


def test_bootstrap_enforces_resample_floor_and_failure_budget():
    rho, _ = prepare_hybrid("fitted")
    recs = simulate_tomography(rho, seed=4)
    with pytest.raises(ValueError):
        metric_uncertainties(recs, n_resamples=50)
    with pytest.raises(RuntimeError):
        metric_uncertainties(
            recs, n_resamples=100, resampler=lambda obs, r: np.zeros_like(obs)
        )
    # bad resamples are an error, not a bootstrap failure to count
    with pytest.raises(ValueError, match="non-negative"):
        metric_uncertainties(recs, n_resamples=100, resampler=lambda obs, r: -obs)


def test_bootstrap_sigma_scale_at_reference_acquisition():
    rho, _ = prepare_hybrid("fitted")
    recs = simulate_tomography(rho, seed=3)
    m = metric_uncertainties(recs, n_resamples=100, seed=3)
    assert 0.003 <= m.fidelity_sigma <= 0.03


def test_state_metrics_validation():
    with pytest.raises(ValueError):
        StateMetrics(1.2, 0.5, 0.1, 0.01, 0.01, 0.01)
    with pytest.raises(ValueError):
        StateMetrics(0.9, 0.5, 0.1, -0.01, 0.01, 0.01)
