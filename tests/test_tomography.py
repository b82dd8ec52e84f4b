import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tomography_oracle as oracle
from hybridoam.measurement import CountRecord, MeasurementSetting
from hybridoam.source import NoiseModel, hybrid_singlet_ket, prepare_hybrid
from hybridoam.states import DensityMatrix
from hybridoam.tomography import (
    ALICE_LABELS,
    BOB_LABELS,
    MIN_RESAMPLES,
    InsufficientDataError,
    StateMetrics,
    concurrence,
    fidelity,
    linear_entropy,
    metric_uncertainties,
    reconstruct,
    simulate_tomography,
)

PSI = hybrid_singlet_ket()
SINGLET = prepare_hybrid()[0]
SETTINGS = [r.setting for r in simulate_tomography(SINGLET, exact=True)]


def test_settings_enumeration():
    settings = SETTINGS
    assert len(settings) == 36
    # Alice-major order, six Bob analyzers per Alice analyzer
    assert [s.label for s in settings[:6]] == [
        "H|+2", "H|-2", "H|h", "H|v", "H|a", "H|d",
    ]
    assert settings[6].label == "V|+2"
    assert {s.alice for s in settings} == set(ALICE_LABELS)
    assert {s.bob for s in settings} == set(BOB_LABELS)
    # built once: every table of a duration shares the same settings
    again = [r.setting for r in simulate_tomography(SINGLET, seed=1)]
    assert all(a is b for a, b in zip(again, settings))


def test_exact_data_linear_inversion_is_exact():
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.887))
    recs = simulate_tomography(rho, exact=True)
    assert all(isinstance(r.counts, float) for r in recs)
    # each exact count is the setting's expected rate times its duration
    per_second = simulate_tomography(rho, duration_s=1.0, exact=True)
    assert all(
        abs(p.counts * r.setting.duration_s - r.counts) < 1e-9
        for p, r in zip(per_second, recs)
    )
    est = reconstruct(recs).rho_linear
    assert np.max(np.abs(est.matrix - rho.matrix)) < 1e-12
    assert np.max(np.abs(est.matrix - oracle.linear_inversion(recs))) < 1e-12


def test_noisy_linear_inversion_matches_the_oracle():
    # the least-squares inverse of the likelihood's Bloch map is the
    # equal-weight Pauli-expectation inversion, on drawn tables too
    for noise in ("fitted", NoiseModel(werner_p=0.8)):
        rho, _ = prepare_hybrid(noise)
        for rate, seed in ((1.0, 0), (5.0, 1), (100.0, 2)):
            recs = simulate_tomography(rho, rate_cps=rate, seed=seed)
            est = reconstruct(recs).rho_linear.matrix
            assert np.max(np.abs(est - oracle.linear_inversion(recs))) < 1e-12


def test_basis_pairs_follow_the_label_order():
    # each basis is an adjacent orthogonal pair of labels, so on any state
    # the four settings of a basis pair, (i // 2, j // 2) on the 6 x 6 label
    # grid, count every pair: their exact counts sum to rate x duration
    plus, right = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, 1j]) / np.sqrt(2)
    tilted = np.array([np.cos(0.3), np.sin(0.3) * np.exp(0.7j)])
    products = [
        np.kron(a, b)
        for a, b in ((np.array([1.0, 0.0]), np.array([0.0, 1.0])), (plus, right), (right, tilted))
    ]
    states = [DensityMatrix(np.outer(v, v.conj())) for v in products]
    states += [SINGLET, DensityMatrix(np.eye(4) / 4)]
    for rho in states:
        table = {
            (r.setting.alice, r.setting.bob): r.counts
            for r in simulate_tomography(rho, rate_cps=100.0, duration_s=15.0, exact=True)
        }
        for a in (0, 2, 4):
            for b in (0, 2, 4):
                total = sum(
                    table[ALICE_LABELS[i], BOB_LABELS[j]]
                    for i in (a, a + 1) for j in (b, b + 1)
                )
                assert abs(total - 1500.0) < 1e-9


def test_exact_data_mle_matches_truth():
    rho = SINGLET
    run = reconstruct(simulate_tomography(rho, exact=True))
    assert abs(fidelity(run.rho_mle, PSI) - 1.0) < 1e-10
    assert np.max(np.abs(run.rho_mle.matrix - rho.matrix)) < 1e-8
    assert oracle.trace_distance(run.rho_mle.matrix, rho.matrix) < 1e-8
    assert np.max(np.abs(run.rho_linear.matrix - rho.matrix)) < 1e-12
    # a table of subnormal means, built by hand since simulating one is
    # refused: the means of the unlikely settings underflow to 0, and such a
    # setting adds -lambda to the log-likelihood, which stays finite
    ones = simulate_tomography(rho, 1.0, exact=True)
    tiny = reconstruct([CountRecord(r.setting, r.counts * 1e-310, r.seed) for r in ones])
    assert tiny.converged and np.isfinite(tiny.loglik)
    with pytest.raises(ValueError, match="subnormal"):
        simulate_tomography(rho, 1e-310, exact=True)


def test_maximally_mixed_state_reconstructs():
    rho = DensityMatrix(np.eye(4) / 4)
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
            estimate.matrix + 2.5e-16 * h / np.abs(h).max(),
            require_positive=False,
        )
        assert abs(concurrence(moved) - c) <= 1e-12
    # and the Werner closed form C = (3p - 1) / 2, on the states themselves
    for p in (0.4, 0.6, 0.8, 0.95):
        assert abs(concurrence(prepare_hybrid(NoiseModel(werner_p=p))[0]) - (3 * p - 1) / 2) < 1e-12


def test_metric_oracles_on_known_states():
    pure = SINGLET
    assert abs(fidelity(pure, PSI) - 1.0) < 1e-12
    assert abs(concurrence(pure) - 1.0) < 1e-12
    assert linear_entropy(pure) < 1e-12
    mixed = DensityMatrix(np.eye(4) / 4)
    assert abs(fidelity(mixed, PSI) - 0.25) < 1e-12
    assert concurrence(mixed) < 1e-12
    assert abs(linear_entropy(mixed) - 1.0) < 1e-12
    prod = DensityMatrix(np.diag([1.0, 0, 0, 0]))
    assert concurrence(prod) < 1e-12


def test_noisy_reconstruction_is_physical_and_close():
    rho, _ = prepare_hybrid("fitted")
    records = simulate_tomography(rho, seed=0)
    run = reconstruct(records)
    # any iterable of records will do, for the bootstrap too
    again = reconstruct(iter(records))
    assert np.array_equal(again.rho_mle.matrix, run.rho_mle.matrix)
    assert metric_uncertainties(iter(records)) == metric_uncertainties(records)
    # the bootstrap draws in canonical setting order, whatever the record order
    shuffled = [records[i] for i in np.random.default_rng(1).permutation(len(records))]
    assert metric_uncertainties(shuffled) == metric_uncertainties(records)
    w = np.linalg.eigvalsh(run.rho_mle.matrix)
    assert w[0] > -1e-10
    assert abs(np.trace(run.rho_mle.matrix).real - 1.0) < 1e-9
    assert oracle.trace_distance(run.rho_mle.matrix, rho.matrix) < 0.05
    # MLE never does worse than the projected linear estimate
    base = oracle.log_likelihood(oracle.project(run.rho_linear.matrix), records)
    assert run.loglik >= base - 1e-9


def test_mle_starts_from_projected_linear_inversion_and_never_loses():
    from hybridoam.tomography import _count_table, _solve

    rho, _ = prepare_hybrid("fitted")
    exact = simulate_tomography(rho, exact=True)
    res = reconstruct(exact)
    start = oracle.project(oracle.linear_inversion(exact))
    assert res.converged
    assert np.max(np.abs(res.rho_mle.matrix - start)) < 1e-12
    # a start where a counted setting has zero probability has no likelihood
    counts = _count_table(exact)[0][None]
    with pytest.raises(ValueError, match="zero probability"):
        _solve(counts, np.diag([1.0, 0, 0, 0]).astype(complex)[None], np.zeros(1))
    for rate, seed in ((1.0, 0), (5.0, 1), (100.0, 2)):
        recs = simulate_tomography(rho, rate_cps=rate, seed=seed)
        res = reconstruct(recs)
        start = oracle.project(oracle.linear_inversion(recs))
        loglik = oracle.log_likelihood(res.rho_mle.matrix, recs)
        assert res.converged
        assert res.loglik >= oracle.log_likelihood(start, recs)
        assert abs(res.loglik - loglik) <= oracle.loglik_round_off(res.rho_mle.matrix, recs)
        # the reported certificate is the concavity bound lambda_max(R) - N
        assert abs(res.loglik_gap_bound - _gap_bound_of(res.rho_mle.matrix, recs)) < 1e-7
        assert 0.0 <= res.loglik_gap_bound <= 1e-6
        # and it bounds the gain from any start, here the linear estimate's
        assert loglik - oracle.log_likelihood(start, recs) <= _gap_bound_of(start, recs)
        # converged means at the maximum: solving on from there, blended as
        # any start not taken as inside, gains ~nothing
        again = _solve(_count_table(recs)[0][None], res.rho_mle.matrix[None], np.zeros(1))[0][0]
        gain = oracle.log_likelihood(again, recs) - loglik
        assert gain <= 1e-9 * abs(loglik)


def _gap_bound_of(rho, records):
    """lambda_max(R) - N with R = sum_k (n_k / p_k) Pi_k over counted settings."""
    r, total = np.zeros((4, 4), dtype=complex), 0.0
    for rec in records:
        if rec.counts > 0:
            proj = oracle.setting_projector(rec.setting)
            r += rec.counts / np.trace(proj @ rho).real * proj
            total += rec.counts
    return float(np.linalg.eigvalsh(r)[-1] - total)


def test_count_table_validation():
    recs = simulate_tomography(SINGLET, seed=1)
    with pytest.raises(InsufficientDataError):
        reconstruct(recs[:-1])  # one setting missing
    with pytest.raises(InsufficientDataError):
        reconstruct(recs + [recs[0]])  # duplicated setting
    renamed = CountRecord(
        setting=MeasurementSetting("theta=0.5", "+2"), counts=5, seed=0,
    )
    with pytest.raises(InsufficientDataError):
        reconstruct(recs[:-1] + [renamed])
    zero = [CountRecord(r.setting, 0, 0) for r in recs]
    with pytest.raises(InsufficientDataError):
        reconstruct(zero)
    # counts are normalized within each basis pair, which assumes one
    # duration: on the fitted preset at 100 cps, seed 1, H|+2 measured twice
    # as long at the same rate once moved F from 0.9494 to 0.9557 unreported
    fitted = simulate_tomography(prepare_hybrid("fitted")[0], rate_cps=100.0, seed=1)
    mixed = [
        CountRecord(MeasurementSetting(r.setting.alice, r.setting.bob, 30.0), 2 * r.counts, 1)
        if r.setting.label == "H|+2" else r
        for r in fitted
    ]
    for run in (lambda: reconstruct(mixed), lambda: metric_uncertainties(mixed)):
        with pytest.raises(InsufficientDataError, match=r"durations: \[15\.0, 30\.0\] s"):
            run()
    # one duration, whatever it is, reconstructs
    longer = [
        CountRecord(MeasurementSetting(r.setting.alice, r.setting.bob, 30.0), r.counts, 1)
        for r in fitted
    ]
    assert np.array_equal(reconstruct(longer).rho_mle.matrix, reconstruct(fitted).rho_mle.matrix)


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
    from hybridoam.tomography import _BLOCH, _newton_system, _point, _workspace

    projectors = np.stack([oracle.setting_projector(s) for s in SETTINGS])
    n = len(dirs)
    stack = np.concatenate([x[None], x + eps * dirs, x - eps * dirs])
    rhos = (np.eye(4) + np.einsum("bm,mij->bij", stack, _BLOCH)) / 4
    p = np.einsum("kij,bji->bk", projectors, rhos).real
    f = np.log(p) @ counts + mu * np.linalg.slogdet(rhos)[1]
    p_stack, rho_stack = _point(stack)
    grad, neg_hess = _newton_system(
        rho_stack, p_stack, np.tile(counts, (len(stack), 1)),
        np.full(len(stack), mu), _workspace(len(stack)), mu * np.linalg.inv(rho_stack),
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
    counts = _count_table(simulate_tomography(rho, seed=2))[0]
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
        _BLOCH, _C, _count_table, _newton_system, _point, _workspace,
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
    matrices = _newton_system(rho_x, p, counts, mu, _workspace(3), z)[1]
    for b in range(3):
        rho_inv = np.linalg.inv(rho_x[b])
        barrier = np.einsum("ij,mjk,kl,nli->mn", z[b], _BLOCH, rho_inv, _BLOCH).real / 16
        likelihood = _C.T @ np.diag(counts[b] / p[b] ** 2) @ _C
        err = np.max(np.abs(matrices[b] - likelihood - barrier))
        assert err < 1e-12 * np.abs(matrices[b]).max()


def test_stacked_solve_matches_each_table_alone():
    # a table's solve is exactly the same alone and anywhere in a stack, so
    # the bootstrap's row 0 gives reconstruct's point values
    from hybridoam.states import _clip_to_states
    from hybridoam.tomography import _count_table, _solve

    rho, _ = prepare_hybrid("fitted")
    rng = np.random.default_rng(5)
    tables = [
        simulate_tomography(rho, rate_cps=rate, seed=seed)
        for rate, seed in ((0.5, 4), (1.0, 0), (5.0, 1), (100.0, 2), (1000.0, 3))
    ]
    tables.append(simulate_tomography(rho, exact=True))
    tables.append(
        [CountRecord(s, int(rng.integers(0, 400)), 0) for s in SETTINGS]
    )
    # a full-rank state, whose start is taken unblended: the stack mixes
    # both start rules
    werner, _ = prepare_hybrid(NoiseModel(werner_p=0.8))
    tables.append(simulate_tomography(werner, rate_cps=1000.0, seed=6))
    counts = np.stack([_count_table(t)[0] for t in tables])
    starts, least = _clip_to_states(np.stack([reconstruct(t).rho_linear.matrix for t in tables]))
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


def test_stacked_start_and_metrics_match_each_row_alone():
    # reconstruct inverts, clips and scores a stack of one, the bootstrap a
    # stack of up to 101 rows: each row must come out the same either way
    from hybridoam.states import _clip_to_states
    from hybridoam.tomography import (
        _concurrences, _count_table, _fidelities, _invert, _linear_entropies,
    )

    tables = [
        simulate_tomography(prepare_hybrid(noise)[0], rate_cps=rate, seed=seed, exact=exact)
        for noise, rate, seed, exact in (
            ("fitted", 2.0, 0, False), ("fitted", 100.0, 1, False), ("ideal", 5.0, 2, False),
            (NoiseModel(werner_p=0.8), 1000.0, 3, False), ("fitted", 100.0, 0, True),
        )
    ]
    freqs = np.stack([counts / totals for counts, totals in map(_count_table, tables)])
    rng = np.random.default_rng(3)
    for size in (2, 37, 130):
        stack = freqs[rng.integers(0, len(freqs), size)]
        linear = _invert(stack)
        starts, least = _clip_to_states(linear)
        metrics = (_fidelities(starts, PSI.amplitudes), _concurrences(starts), _linear_entropies(starts))
        for i, row in enumerate(stack):
            alone = _invert(row[None])
            assert np.array_equal(linear[i], alone[0])
            start, low = _clip_to_states(alone)
            assert np.array_equal(starts[i], start[0]) and least[i] == low[0]
            for stacked, one in zip(metrics, (
                _fidelities(start, PSI.amplitudes), _concurrences(start), _linear_entropies(start),
            )):
                assert stacked[i] == one[0]


def _least_start_eigenvalue(records):
    return np.linalg.eigvalsh(oracle.project(oracle.linear_inversion(records)))[0]


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
        big = [CountRecord(r.setting, r.counts * scale, 0) for r in records]
        total = sum(r.counts for r in big)
        res = reconstruct(big)
        assert res.loglik_gap_bound >= 4 * eps * total > 1e-6
        assert not res.converged
        loglik = oracle.log_likelihood(res.rho_mle.matrix, big)
        assert abs(res.loglik - loglik) <= oracle.loglik_round_off(res.rho_mle.matrix, big)
    # an ordinary table still certifies, with the allowance in its bound
    res = reconstruct(simulate_tomography(prepare_hybrid("ideal")[0], 100.0, 15.0, seed=3))
    assert res.converged and 0.0 < res.loglik_gap_bound <= 1e-6


def test_a_singular_row_stays_put_and_leaves_its_stack_alone():
    # round-off can make a point's rho or its dual Z singular; then its
    # Cholesky factor is NaN and the row is stuck: it keeps its point and
    # dual, both step lengths are 0, and the rows around it step exactly as
    # they would alone
    from hybridoam.tomography import _BLOCH, _count_table, _newton_step, _point, _workspace

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
        x_new, z_new, t, t_dual = _newton_step(x, p, rhos, z, counts, mu, _workspace(4))
    for stuck in (1, 3):
        assert np.array_equal(x_new[stuck], x[stuck])
        assert np.array_equal(z_new[stuck], z[stuck])
        assert t[stuck] == t_dual[stuck] == 0.0
    for b in (0, 2):
        alone = _newton_step(
            x[[b]], p[[b]], rhos[[b]], z[[b]], counts[[b]], mu[[b]], _workspace(1)
        )
        assert t[b] > 0.0
        for stacked, single in zip((x_new, z_new, t, t_dual), alone):
            assert np.array_equal(stacked[b], single[0])


def _linalg_stacks(size):
    """Random stacks of ``size`` Hermitian positive definite and Hermitian
    indefinite 4x4 matrices, real 15x15 SPD matrices and (15, 1) columns:
    the shapes the solver hands to LAPACK."""
    rng = np.random.default_rng(size)
    a = rng.normal(size=(size, 4, 4)) + 1j * rng.normal(size=(size, 4, 4))
    b = rng.normal(size=(size, 15, 15))
    return (
        a @ np.swapaxes(a.conj(), 1, 2) + 0.1 * np.eye(4),
        a + np.swapaxes(a.conj(), 1, 2),
        b @ np.swapaxes(b, 1, 2) + np.eye(15),
        rng.normal(size=(size, 15, 1)),
    )


@pytest.mark.parametrize("size", [1, 2, 101])
def test_direct_lapack_calls_equal_numpy_linalg(size):
    # the solver and the state checks call np.linalg's gufuncs without its
    # wrappers; each call gives the wrapper's bits, and a rename in numpy's
    # private module fails here
    from hybridoam.states import _lapack

    pd, indefinite, spd, column = _linalg_stacks(size)
    for m in (pd, indefinite, spd):
        assert np.array_equal(_lapack.inv(m), np.linalg.inv(m))
        assert np.array_equal(_lapack.eigvalsh_lo(m), np.linalg.eigvalsh(m))
        for direct, wrapped in zip(_lapack.eigh_lo(m), np.linalg.eigh(m)):
            assert np.array_equal(direct, wrapped)
    for m in (pd, spd):
        assert np.array_equal(_lapack.cholesky_lo(m), np.linalg.cholesky(m))
    assert np.array_equal(_lapack.solve(spd, column), np.linalg.solve(spd, column))


def test_a_failed_factor_is_a_nan_row_or_raises_by_the_shared_rule():
    from hybridoam.states import _RAISE, _lapack

    pd, indefinite, _, _ = _linalg_stacks(101)
    stack = pd.copy()
    stack[[1, 50]] = indefinite[[1, 50]]
    assert (np.linalg.eigvalsh(stack[[1, 50]])[:, 0] < 0.0).all()
    # inside the Newton step a matrix that is not positive definite gives
    # a NaN factor, and the other rows keep their bits
    with np.errstate(invalid="ignore"):
        factors = _lapack.cholesky_lo(stack)
    assert np.isnan(factors[[1, 50]]).all()
    ok = np.ones(101, dtype=bool)
    ok[[1, 50]] = False
    assert np.array_equal(factors[ok], np.linalg.cholesky(pd[ok]))
    # outside it, a failed call raises LinAlgError, as np.linalg does
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
    with np.errstate(**_RAISE), pytest.raises(np.linalg.LinAlgError):
        _lapack.cholesky_lo(stack)
    with np.errstate(**_RAISE), pytest.raises(np.linalg.LinAlgError):
        _lapack.inv(np.zeros((2, 4, 4), dtype=complex))


@pytest.mark.parametrize("call, row", [
    ("solve", 1), ("inv", 1), ("inv", 4 + 1), ("eigvalsh_lo", 1), ("eigvalsh_lo", 4 + 1),
])
def test_a_failed_lapack_call_in_a_step_leaves_its_row_stuck(monkeypatch, call, row):
    # a solve, inverse or eigenvalue call that fails in a Newton step gives a
    # NaN row (the rows past 4 are the dual's); that row keeps its point and
    # dual with both step lengths 0, and the other rows step as they would
    # alone
    import hybridoam.tomography as tg
    from hybridoam.states import _lapack

    rho, _ = prepare_hybrid("fitted")
    counts = np.stack([
        tg._count_table(simulate_tomography(rho, rate_cps=100.0, seed=seed))[0]
        for seed in range(4)
    ])
    rng = np.random.default_rng(15)
    x = np.stack([_bloch_point(rng) for _ in range(4)])
    p, rhos = tg._point(x)
    p = np.where(counts > 0, p, 1.0)
    mu = np.full(4, 0.05)
    z = mu[:, None, None] * np.linalg.inv(rhos)
    z = (z + np.swapaxes(z.conj(), 1, 2)) / 2
    alone = [
        tg._newton_step(x[[b]], p[[b]], rhos[[b]], z[[b]], counts[[b]], mu[[b]], tg._workspace(1))
        for b in range(4)
    ]

    class FailOneRow:
        def __getattr__(self, name):
            return getattr(_lapack, name)

    def failing(*args):
        out = getattr(_lapack, call)(*args)
        out[row] = np.nan
        return out

    spy = FailOneRow()
    setattr(spy, call, failing)
    monkeypatch.setattr(tg, "_lapack", spy)
    x_new, z_new, t, t_dual = tg._newton_step(x, p, rhos, z, counts, mu, tg._workspace(4))
    stuck = row % 4
    assert np.array_equal(x_new[stuck], x[stuck])
    assert np.array_equal(z_new[stuck], z[stuck])
    assert t[stuck] == t_dual[stuck] == 0.0
    for b in {0, 1, 2, 3} - {stuck}:
        assert t[b] > 0.0
        for stacked, single in zip((x_new, z_new, t, t_dual), alone[b]):
            assert np.array_equal(stacked[b], single[0])


def test_a_bootstrap_round_builds_its_newton_system_in_the_workspace():
    # A round of the bootstrap's 101-row stack used to allocate its Newton
    # system fresh: two signed gathers of 384 KiB each and two 180 KiB terms
    # of the matrix, a transient peak of about 1,025 KiB.  Blocks that size
    # were handed back to the kernel when freed and page-faulted in again
    # the next round, about 1,500 minor faults per bootstrap.  With the
    # solve's workspace, what one step still allocates is small arrays
    # (about 410 KiB at peak).  768 KiB lies between the two: it leaves
    # room for numpy's own temporaries and fails if the round builds its
    # Newton system fresh again.
    import tracemalloc

    from hybridoam.tomography import _count_table, _newton_step, _point, _workspace

    rho, _ = prepare_hybrid("fitted")
    observed = _count_table(simulate_tomography(rho, rate_cps=100.0, seed=0))[0]
    rng = np.random.default_rng(14)
    counts = rng.poisson(observed, (101, 36)).astype(float)
    x = np.stack([_bloch_point(rng) for _ in range(101)])
    p, rhos = _point(x)
    p = np.where(counts > 0, p, 1.0)
    mu = np.full(101, 0.1)
    z = mu[:, None, None] * np.linalg.inv(rhos)
    z = (z + np.swapaxes(z.conj(), 1, 2)) / 2
    work = _workspace(101)
    _newton_step(x, p, rhos, z, counts, mu, work)  # numpy's first-call setup
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _newton_step(x, p, rhos, z, counts, mu, work)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 768 * 1024


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
            CountRecord(rec.setting, int(c), rec.seed)
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
    # 0.5 cps tables lose a few resamples to empty basis pairs; an exact
    # table's estimate is its start, which certifies at once
    for rate, seed, exact in (
        (0.5, 1, False), (5.0, 0, False), (100.0, 3, False), (1000.0, 4, False),
        (50.0, 2, True),
    ):
        recs = simulate_tomography(rho, rate_cps=rate, seed=seed, exact=exact)
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
    for _ in range(5):
        recs = [
            CountRecord(s, int(rng.integers(0, 400)), 0) for s in SETTINGS
        ]
        res = reconstruct(recs)
        w = np.linalg.eigvalsh(res.rho_mle.matrix)
        assert w[0] > -1e-10
        assert abs(np.trace(res.rho_mle.matrix).real - 1.0) < 1e-9


def test_bootstrap_enforces_resample_floor_and_failure_budget():
    rho, _ = prepare_hybrid("fitted")
    recs = simulate_tomography(rho, seed=4)
    assert MIN_RESAMPLES == 100
    with pytest.raises(ValueError, match=r"n_resamples must lie in \[100, 10000\], got 99$"):
        metric_uncertainties(recs, n_resamples=MIN_RESAMPLES - 1)
    # the count is an integer, as every seed is
    for bad in (True, np.float64(100.0), None):
        with pytest.raises(TypeError, match="n_resamples must be an integer"):
            metric_uncertainties(recs, n_resamples=bad)
    # the bootstrap takes a count table, not a reconstruction of one
    with pytest.raises(TypeError):
        metric_uncertainties(reconstruct(recs))
    # at 0.2 cps a basis pair expects 3 counts in 15 s, and more than 10% of
    # the resamples leave one empty
    for seed in range(6):
        sparse = simulate_tomography(rho, rate_cps=0.2, seed=seed)
        with pytest.raises(RuntimeError, match=r"^\d+/100 bootstrap resamples failed$"):
            metric_uncertainties(sparse, n_resamples=100, seed=seed)


def test_bootstrap_refuses_more_than_max_resamples_before_drawing(monkeypatch):
    import hybridoam.tomography as tg

    recs = simulate_tomography(SINGLET, seed=4)
    assert tg.MAX_RESAMPLES == 10_000
    drawn = []
    monkeypatch.setattr(tg, "_stream", lambda *args: drawn.append(args))
    # 10**12 resamples would allocate 262 TiB of draws
    for n in (tg.MAX_RESAMPLES + 1, 10**12):
        message = f"n_resamples must lie in [100, 10000], got {n:.6g}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            metric_uncertainties(recs, n_resamples=n)
    assert drawn == []


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
