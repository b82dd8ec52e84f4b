import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from hybridoam.measurement import CountRecord, MeasurementSetting
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
        assert abs(concurrence(run.rho_mle) - max(0.0, (3 * p - 1) / 2)) < 1e-12
        assert abs(linear_entropy(run.rho_mle) - (1 - p * p)) < 1e-10


def test_concurrence_moves_by_round_off_only():
    # the fitted 100-cps estimate of seed 4 has a least eigenvalue of about
    # 1e-10, where a concurrence from the eigenvalues of the non-Hermitian
    # rho Y rho* Y moved by up to 3e-8 under perturbations of 2.5e-16
    rho, _ = prepare_hybrid("fitted")
    estimate = reconstruct(simulate_tomography(rho, seed=4)).rho_mle
    assert np.linalg.eigvalsh(estimate.matrix)[0] < 1e-8
    c = concurrence(estimate)
    rng = np.random.default_rng(17)
    for _ in range(200):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h += h.conj().T
        moved = DensityMatrix(
            estimate.matrix + 2.5e-16 * h / np.abs(h).max(), estimate.basis,
            require_positive=False,
        )
        assert abs(concurrence(moved) - c) <= 1e-12
    # and the Werner closed form C = (3p - 1) / 2, on the states themselves
    for p in (0.4, 0.6, 0.8, 0.95):
        assert abs(concurrence(prepare_hybrid(NoiseModel(werner_p=p))[0]) - (3 * p - 1) / 2) < 1e-12


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
    records = simulate_tomography(rho, seed=0)
    run = reconstruct(records)
    # any iterable of records will do, for the bootstrap too
    again = reconstruct(iter(records))
    assert again.records == run.records
    assert np.array_equal(again.rho_mle.matrix, run.rho_mle.matrix)
    assert metric_uncertainties(iter(records)) == metric_uncertainties(records)
    w = np.linalg.eigvalsh(run.rho_mle.matrix)
    assert w[0] > -1e-10
    assert abs(np.trace(run.rho_mle.matrix).real - 1.0) < 1e-9
    assert trace_distance(run.rho_mle, rho) < 0.05
    # MLE never does worse than the projected linear estimate
    base = log_likelihood(project_to_physical(run.rho_linear), run.records)
    assert run.loglik >= base - 1e-9


def test_mle_starts_from_projected_linear_inversion_and_never_loses():
    from hybridoam.tomography import _count_table, _solve

    rho, _ = prepare_hybrid("fitted")
    exact = simulate_tomography(rho, exact=True)
    res = reconstruct(exact)
    start = project_to_physical(linear_inversion(exact))
    assert res.converged
    assert np.max(np.abs(res.rho_mle.matrix - start.matrix)) < 1e-12
    # a start where a counted setting has zero probability has no likelihood
    counts = _count_table(exact)[0][None]
    with pytest.raises(ValueError, match="zero probability"):
        _solve(counts, np.diag([1.0, 0, 0, 0]).astype(complex)[None], np.zeros(1))
    for rate, seed in ((1.0, 0), (5.0, 1), (100.0, 2)):
        recs = simulate_tomography(rho, rate_cps=rate, seed=seed)
        res = reconstruct(recs)
        start = project_to_physical(linear_inversion(recs))
        assert res.converged
        assert res.loglik >= log_likelihood(start, recs)
        assert res.loglik == log_likelihood(res.rho_mle, recs)
        # the reported certificate is the concavity bound lambda_max(R) - N
        assert abs(res.loglik_gap_bound - _gap_bound_of(res.rho_mle, recs)) < 1e-7
        assert 0.0 <= res.loglik_gap_bound <= 1e-6
        # and it bounds the gain from any start, here the linear estimate's
        assert res.loglik - log_likelihood(start, recs) <= _gap_bound_of(start, recs)
        # converged means at the maximum: solving on from there, blended as
        # any start not taken as inside, gains ~nothing
        again = _solve(_count_table(recs)[0][None], res.rho_mle.matrix[None], np.zeros(1))[0][0]
        gain = log_likelihood(DensityMatrix(again, res.rho_mle.basis), recs) - res.loglik
        assert gain <= 1e-9 * abs(res.loglik)


def _gap_bound_of(rho, records):
    """lambda_max(R) - N with R = sum_k (n_k / p_k) Pi_k over counted settings."""
    r, total = np.zeros((4, 4), dtype=complex), 0.0
    for rec in records:
        if rec.counts > 0:
            proj = np.kron(rec.setting.alice_proj, rec.setting.bob_proj)
            r += rec.counts / np.trace(proj @ rho.matrix).real * proj
            total += rec.counts
    return float(np.linalg.eigvalsh(r)[-1] - total)


def test_import_loads_no_scipy():
    # a CLI start loads no scipy, and exactly the package modules it runs
    import hybridoam

    env = dict(os.environ)
    src_dir = str(Path(hybridoam.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    code = (
        "import json, sys, hybridoam.cli; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'hybridoam'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    modules = ("states", "source", "measurement", "tomography", "bell", "budget", "cli")
    assert json.loads(out.stdout) == sorted(
        ["hybridoam"] + [f"hybridoam.{name}" for name in modules]
    )


PUBLIC_NAMES = """
    ATOL ChshResult CountRecord DEFAULT_OBSERVED_RATE_CPS DETERMINISTIC
    DegenerateInputError DensityMatrix DichotomicObservable FitFailureError
    InsufficientDataError InvalidLabelError MeasurementSetting NoiseModel
    O2_FRAME_ALIGNMENT OAM_O2 POLARIZATION PROBABILISTIC REFERENCE_CONCURRENCE
    REFERENCE_FIDELITY REFERENCE_LINEAR_ENTROPY RateBudget StateMetrics StateVector
    TomographyRun UndefinedCorrelationError apply_noise basis_ket budget_report
    chsh_empirical chsh_exact chsh_settings concurrence correlation
    correlation_from_counts det_probability exact_counts expected_counts
    expected_rate fidelity fit_fringe fit_noise_model format_report fringe_scan
    fringe_scan_records hybrid_singlet hybrid_singlet_ket hybrid_state
    joint_probability linear_entropy linear_inversion log_likelihood
    matrix_from_json matrix_to_json metric_uncertainties noise_fit_report
    noise_preset observable_from_kets observable_from_labels predicted_s
    prep_probability prepare_hybrid project_to_physical read_counts_csv
    reconstruct simulate_counts simulate_tomography singlet
    singlet_ket tomography_settings trace_distance upgraded_budget
    visibility_minmax write_counts_csv
""".split()


def test_public_api_is_pinned():
    # every name `import hybridoam` exports besides its submodules, whose
    # set test_import_loads_no_scipy pins: adding or removing one is a
    # deliberate change of this list
    import types

    import hybridoam

    exported = {
        name for name, value in vars(hybridoam).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported) == sorted(PUBLIC_NAMES)


def test_count_table_validation():
    rho = hybrid_singlet()
    recs = simulate_tomography(rho, seed=1)
    with pytest.raises(InsufficientDataError):
        linear_inversion(recs[:-1])  # one setting missing
    with pytest.raises(InsufficientDataError):
        linear_inversion(recs + [recs[0]])  # duplicated setting
    renamed = CountRecord(
        setting=MeasurementSetting("theta=0.5", "+2"), counts=5,
        expected_rate_cps=None, seed=0,
    )
    with pytest.raises(InsufficientDataError):
        linear_inversion(recs[:-1] + [renamed])
    zero = [CountRecord(r.setting, 0, None, 0) for r in recs]
    with pytest.raises(InsufficientDataError):
        linear_inversion(zero)


def _bloch_point(rng):
    """Bloch coordinates x_m = Tr(rho G_m) of a random full-rank state."""
    from hybridoam.tomography import _BLOCH

    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    gram = a @ a.conj().T
    rho = 0.8 * gram / np.trace(gram).real + 0.05 * np.eye(4)
    return np.einsum("ij,mji->m", rho, _BLOCH).real


def _barrier_derivative_errors(counts, x, dirs, eps=1e-6, mu=0.5):
    """Relative errors of the solver's barrier gradient and Hessian along
    each direction, against central differences of the objective
    sum_k n_k log p_k + mu log det rho (computed here from the settings'
    projectors) and of the gradient; the point and its displaced copies
    are evaluated as one stack."""
    from hybridoam.tomography import _BLOCH, _newton_system, _point

    projectors = np.stack([np.kron(s.alice_proj, s.bob_proj) for s in tomography_settings()])
    n = len(dirs)
    stack = np.concatenate([x[None], x + eps * dirs, x - eps * dirs])
    rhos = (np.eye(4) + np.einsum("bm,mij->bij", stack, _BLOCH)) / 4
    p = np.einsum("kij,bji->bk", projectors, rhos).real
    f = np.log(p) @ counts + mu * np.linalg.slogdet(rhos)[1]
    p_stack, rho_stack = _point(stack)
    grad, neg_hess = _newton_system(
        rho_stack, p_stack, np.tile(counts, (len(stack), 1)),
        np.full(len(stack), mu),
    )[:2]
    fd = (f[1:n + 1] - f[n + 1:]) / (2 * eps)
    grad_err = np.abs(dirs @ grad[0] - fd) / np.maximum(1.0, np.abs(fd))
    fd_grad = (grad[1:n + 1] - grad[n + 1:]) / (2 * eps)
    hess_dirs = -dirs @ neg_hess[0]
    hess_err = np.abs(hess_dirs - fd_grad) / np.maximum(1.0, np.abs(fd_grad))
    return grad_err.max(), hess_err.max()


def test_mle_gradient_spot_check():
    # central finite differences of the solver's barrier objective along
    # random directions in the 15 Bloch coordinates, against its analytic
    # gradient and Hessian
    from hybridoam.tomography import _count_table

    rho, _ = prepare_hybrid("fitted")
    counts, _ = _count_table(simulate_tomography(rho, seed=2))
    rng = np.random.default_rng(11)
    for _ in range(3):
        grad_err, hess_err = _barrier_derivative_errors(
            counts, _bloch_point(rng), rng.normal(size=(3, 15))
        )
        assert grad_err <= 1e-5
        assert hess_err <= 1e-5


def test_newton_system_takes_the_dual_estimate():
    # with a dual estimate Z the barrier part of the Newton matrix is
    # Re Tr(Z G_m rho^-1 G_n) / 16 (the HKM primal-dual direction), for
    # every table of a stack with its own point and Z
    from hybridoam.tomography import (
        _BLOCH, _C, _count_table, _newton_system, _point,
    )

    rho, _ = prepare_hybrid("fitted")
    counts = np.stack([
        _count_table(simulate_tomography(rho, rate_cps=rate, seed=2))[0]
        for rate in (100.0, 5.0, 1000.0)
    ])
    rng = np.random.default_rng(12)
    x = np.stack([_bloch_point(rng) for _ in range(3)])
    a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    z = a @ np.swapaxes(a.conj(), 1, 2) + 0.1 * np.eye(4)
    mu = np.array([0.5, 2.0, 0.01])
    p, rho_x = _point(x)
    matrices = _newton_system(rho_x, p, counts, mu, z)[1]
    for b in range(3):
        rho_inv = np.linalg.inv(rho_x[b])
        barrier = np.einsum("ij,mjk,kl,nli->mn", z[b], _BLOCH, rho_inv, _BLOCH).real / 16
        likelihood = _C.T @ np.diag(counts[b] / p[b] ** 2) @ _C
        err = np.max(np.abs(matrices[b] - likelihood - barrier))
        assert err < 1e-12 * np.abs(matrices[b]).max()


def test_stacked_solve_matches_each_table_alone():
    # a table's solve is exactly the same alone and anywhere in a stack, so
    # the bootstrap's row 0 gives reconstruct's point values
    from hybridoam.states import _projection
    from hybridoam.tomography import _count_table, _solve

    rho, _ = prepare_hybrid("fitted")
    rng = np.random.default_rng(5)
    tables = [
        simulate_tomography(rho, rate_cps=rate, seed=seed)
        for rate, seed in ((0.5, 4), (1.0, 0), (5.0, 1), (100.0, 2), (1000.0, 3))
    ]
    tables.append(simulate_tomography(rho, exact=True))
    tables.append(
        [CountRecord(s, int(rng.integers(0, 400)), None, 0) for s in tomography_settings()]
    )
    # a full-rank state, whose start is taken unblended: the stack mixes
    # both start rules
    werner, _ = prepare_hybrid(NoiseModel(werner_p=0.8))
    tables.append(simulate_tomography(werner, rate_cps=1000.0, seed=6))
    counts = np.stack([_count_table(t)[0] for t in tables])
    projected = [_projection(linear_inversion(t)) for t in tables]
    starts = np.stack([start.matrix for start, _ in projected])
    least = np.array([least for _, least in projected])
    assert least[-1] > 1e-3 >= least[0]
    forward = _solve(counts, starts, least)
    backward = [out[::-1] for out in _solve(counts[::-1], starts[::-1], least[::-1])]
    for i, table in enumerate(tables):
        alone = reconstruct(table)
        assert alone.converged
        for rhos, bounds, n_iter in (forward, backward):
            assert np.array_equal(rhos[i], alone.rho_mle.matrix)
            assert bounds[i] == alone.loglik_gap_bound
            assert n_iter[i] == alone.n_iter


def _least_start_eigenvalue(records):
    return np.linalg.eigvalsh(project_to_physical(linear_inversion(records)).matrix)[0]


def test_mle_start_rule(monkeypatch):
    # a table's projected linear inversion whose least eigenvalue exceeds
    # 1e-3 is taken as it is, on the central path at duality measure 0.01;
    # any other start is blended with I/4 and starts at duality measure
    # max(1, 1e-3 x its gap bound)
    import hybridoam.tomography as tomography

    inside = [
        simulate_tomography(prepare_hybrid(NoiseModel(werner_p=p))[0], rate, seed=seed)
        for p, rate, seed in ((0.8, 1000.0, 0), (0.9, 100.0, 1), (0.95, 300.0, 3))
    ]
    fitted, _ = prepare_hybrid("fitted")
    boundary = [simulate_tomography(fitted, rate, seed=seed) for rate, seed in ((100.0, 3), (5.0, 4))]
    assert all(_least_start_eigenvalue(t) > 1e-3 for t in inside)
    assert all(_least_start_eigenvalue(t) <= 1e-3 for t in boundary)

    def solve_all():
        return [reconstruct(t) for t in inside + boundary]

    default = solve_all()
    # the blend and the blended start's duality measure do not touch a
    # start taken unblended
    monkeypatch.setattr(tomography, "_START_BLEND", 0.05)
    monkeypatch.setattr(tomography, "_MU_START", 3.0)
    reblended = solve_all()
    monkeypatch.undo()
    # with no start counted as inside, every table starts as before
    monkeypatch.setattr(tomography, "_INSIDE", np.inf)
    blended = solve_all()
    inside_rows, blended_rows = (0, 1, 2), (3, 4)
    for i in inside_rows:
        assert default[i].converged and blended[i].converged
        assert np.array_equal(default[i].rho_mle.matrix, reblended[i].rho_mle.matrix)
        assert default[i].n_iter == reblended[i].n_iter
        assert not np.array_equal(default[i].rho_mle.matrix, blended[i].rho_mle.matrix)
        assert default[i].n_iter <= blended[i].n_iter
    assert sum(default[i].n_iter for i in inside_rows) < sum(blended[i].n_iter for i in inside_rows)
    for i in blended_rows:
        assert default[i].converged
        assert np.array_equal(default[i].rho_mle.matrix, blended[i].rho_mle.matrix)
        assert (default[i].loglik, default[i].n_iter, default[i].loglik_gap_bound) == (
            blended[i].loglik, blended[i].n_iter, blended[i].loglik_gap_bound
        )
        assert not np.array_equal(default[i].rho_mle.matrix, reblended[i].rho_mle.matrix)


def test_gap_bound_counts_its_round_off():
    # lambda_max(R) - N carries round-off of a few eps N: on tables of
    # about 1e10 counts and more it came out negative, of order -1e-5, yet
    # certified; the reported bound is never negative and counts that
    # round-off, so no such table converges
    eps = np.finfo(float).eps
    for preset, scale in (("ideal", 10**6), ("ideal", 10**7), ("fitted", 10**6)):
        records = simulate_tomography(prepare_hybrid(preset)[0], 100.0, 15.0, seed=3)
        big = [CountRecord(r.setting, r.counts * scale, None, 0) for r in records]
        total = sum(r.counts for r in big)
        res = reconstruct(big)
        assert res.loglik_gap_bound >= 4 * eps * total > 1e-6
        assert not res.converged
        assert res.loglik == log_likelihood(res.rho_mle, big)
    # an ordinary table still certifies, with the allowance in its bound
    res = reconstruct(simulate_tomography(prepare_hybrid("ideal")[0], 100.0, 15.0, seed=3))
    assert res.converged and 0.0 < res.loglik_gap_bound <= 1e-6


def test_a_singular_row_stays_put_and_leaves_its_stack_alone():
    # round-off can make a point's rho or its dual Z singular; then its
    # Cholesky factor is NaN and the row is stuck: it keeps its point and
    # dual, both step lengths are 0, and the rows around it step exactly as
    # they would alone
    from hybridoam.tomography import _BLOCH, _count_table, _newton_step, _point

    rho, _ = prepare_hybrid("fitted")
    counts = np.stack([
        _count_table(simulate_tomography(rho, rate_cps=100.0, seed=seed))[0]
        for seed in range(4)
    ])
    rng = np.random.default_rng(13)
    x = np.stack([_bloch_point(rng) for _ in range(4)])
    rank3 = np.diag([0.0, 0.5, 0.25, 0.25])  # exact in Bloch coordinates
    x[1] = np.einsum("ij,mji->m", rank3, _BLOCH).real
    p, rhos = _point(x)
    assert rhos[1, 0, 0] == 0.0
    z = 0.5 * np.linalg.inv(rhos[[0, 0, 2, 3]])
    z[3] = rank3  # a singular dual
    z = (z + np.swapaxes(z.conj(), 1, 2)) / 2
    mu = np.full(4, 0.05)
    # the rank-3 row gives a counted setting zero probability
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(counts > 0, p, 1.0)
        x_new, z_new, t, t_dual = _newton_step(x, p, rhos, z, counts, mu)
    for stuck in (1, 3):
        assert np.array_equal(x_new[stuck], x[stuck])
        assert np.array_equal(z_new[stuck], z[stuck])
        assert t[stuck] == t_dual[stuck] == 0.0
    for b in (0, 2):
        alone = _newton_step(x[[b]], p[[b]], rhos[[b]], z[[b]], counts[[b]], mu[[b]])
        assert t[b] > 0.0
        for stacked, single in zip((x_new, z_new, t, t_dual), alone):
            assert np.array_equal(stacked[b], single[0])


def test_bootstrap_stack_finishes_within_a_round_budget(monkeypatch):
    # the stacked bootstrap runs until its slowest resample is certified; on a
    # fitted 100 cps table that took 155 rounds of the projected-gradient
    # solver the log-barrier Newton method replaced
    import hybridoam.tomography as tg

    solves, solve = [], tg._solve

    def spy(counts, start, least):
        solves.append(solve(counts, start, least))
        return solves[-1]

    monkeypatch.setattr(tg, "_solve", spy)
    rho, _ = prepare_hybrid("fitted")
    recs = simulate_tomography(rho, rate_cps=100.0, seed=0)
    metric_uncertainties(recs, n_resamples=100, seed=0)
    (_, bounds, n_iter), = solves
    assert len(n_iter) == 101  # the observed table and 100 resamples
    assert n_iter.max() <= 60
    assert bounds.max() <= 1e-6


def _bootstrap_by_reconstruct(records, seed):
    """The bootstrap as a loop of reconstruct calls over the resamples, each
    the next 36 draws of numpy's own default_rng on SeedSequence(seed,
    spawn_key=(3,)): the metric sigmas and the number of refused resamples."""
    obs = np.array([float(r.counts) for r in records])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    samples, failures = [], 0
    for r in range(100):
        drawn = rng.poisson(obs)
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
        d = m.as_dict()
        assert d["failed_resamples"] == failures
        assert d["uncertainties"] == dict(zip(("fidelity", "concurrence", "linear_entropy"), got))
        assert (failures > 0) == (rate < 1.0)
        # the point values are the metrics of reconstruct's estimate, exactly
        best = reconstruct(recs).rho_mle
        point = (fidelity(best, PSI), concurrence(best), linear_entropy(best))
        assert (m.fidelity, m.concurrence, m.linear_entropy) == point


def test_bootstrap_reports_unconverged_resamples():
    # a reference table certifies every resample; at 1e8 cps (about 1e10
    # counts per table) the gap bound's round-off allowance alone exceeds
    # the tolerance, so every resample stops unconverged after the round cap
    rho, _ = prepare_hybrid("fitted")
    for rate, unconverged in ((100.0, 0), (1e8, 100)):
        recs = simulate_tomography(rho, rate_cps=rate, seed=1)
        m = metric_uncertainties(recs, n_resamples=100, seed=1)
        assert m.failed_resamples == 0
        assert m.unconverged_resamples == unconverged
        assert m.as_dict()["unconverged_resamples"] == unconverged
        # the same count whether the point estimate joins the stack or not
        again = metric_uncertainties(reconstruct(recs), n_resamples=100, seed=1)
        assert again.unconverged_resamples == unconverged


def test_concurrent_runs_reproduce_their_serial_results():
    """Two threads simulating and bootstrapping at once, each on its own
    seed, get what each gets alone: no stream state is shared."""
    rho, _ = prepare_hybrid("fitted")

    def job(seed):
        recs = simulate_tomography(rho, seed=seed)
        metrics = metric_uncertainties(recs, n_resamples=100, seed=seed)
        return [(r.counts, r.seed) for r in recs], metrics

    seeds, rounds = (1, 2), 10
    serial = {seed: job(seed) for seed in seeds}
    # each round starts both threads together, so their draws overlap
    barrier = threading.Barrier(len(seeds), timeout=60)

    def rerun(seed):
        out = []
        for _ in range(rounds):
            barrier.wait()
            out.append(job(seed))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            futures = {seed: pool.submit(rerun, seed) for seed in seeds}
            results = {seed: f.result(timeout=120) for seed, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for seed in seeds:
        assert results[seed] == [serial[seed]] * rounds


def test_mle_physical_on_random_counts():
    rng = np.random.default_rng(7)
    settings = tomography_settings()
    for _ in range(5):
        recs = [
            CountRecord(s, int(rng.integers(0, 400)), None, 0) for s in settings
        ]
        res = reconstruct(recs)
        w = np.linalg.eigvalsh(res.rho_mle.matrix)
        assert w[0] > -1e-10
        assert abs(np.trace(res.rho_mle.matrix).real - 1.0) < 1e-9


def test_bootstrap_enforces_resample_floor_and_failure_budget():
    rho, _ = prepare_hybrid("fitted")
    recs = simulate_tomography(rho, seed=4)
    with pytest.raises(ValueError):
        metric_uncertainties(recs, n_resamples=50)
    # at 0.2 cps a basis pair expects 3 counts in 15 s, and more than 10% of
    # the resamples leave one empty
    for seed in range(6):
        sparse = simulate_tomography(rho, rate_cps=0.2, seed=seed)
        with pytest.raises(RuntimeError, match=r"^\d+/100 bootstrap resamples failed$"):
            metric_uncertainties(sparse, n_resamples=100, seed=seed)
        with pytest.raises(RuntimeError, match="bootstrap resamples failed"):
            metric_uncertainties(reconstruct(sparse), n_resamples=100, seed=seed)


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
