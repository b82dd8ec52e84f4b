"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ACCEPTANCE line with the measured numbers so a
verbose run reads as a checklist.  Tolerances and runtime budgets are part
of the guarantee and are asserted, not just reported.
"""

import time

import numpy as np

import tomography_oracle
from chain_oracle import KET0, QPLATE, SMF, H, backward, forward
from hybridoam.bell import chsh_empirical, chsh_exact
from hybridoam.budget import RateBudget, budget_report
from hybridoam.cli import main
from hybridoam.measurement import CountRecord, fit_fringe, fringe_scan
from hybridoam.source import (
    NoiseModel,
    hybrid_singlet_ket,
    prepare_hybrid,
)
from hybridoam.states import DensityMatrix
from hybridoam.tomography import (
    concurrence,
    fidelity,
    linear_entropy,
    metric_uncertainties,
    reconstruct,
    simulate_tomography,
)

S_MAX = 2.0 * np.sqrt(2.0)
GRID16 = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_pipeline_identity():
    t0 = time.perf_counter()
    rho, _ = prepare_hybrid()
    run = reconstruct(simulate_tomography(rho, exact=True))
    f = fidelity(run.rho_mle, hybrid_singlet_ket())
    c = concurrence(run.rho_mle)
    sl = linear_entropy(run.rho_mle)
    elapsed = time.perf_counter() - t0
    ok = (
        f >= 1.0 - 1e-9
        and abs(c - 1.0) <= 1e-9
        and abs(sl) <= 1e-9
        and elapsed < 1.0
    )
    _line(1, ok, f"F={f:.12f} C={c:.12f} S_L={sl:.2e} in {elapsed:.2f}s")


def test_criterion_2_werner_family_closed_forms():
    psi = hybrid_singlet_ket()
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 0.887, 0.943, 1.0):
        rho, _ = prepare_hybrid(NoiseModel(werner_p=p))
        run = reconstruct(simulate_tomography(rho, exact=True))
        errs = (
            abs(fidelity(run.rho_mle, psi) - (1 + 3 * p) / 4),
            abs(concurrence(run.rho_mle) - max(0.0, (3 * p - 1) / 2)),
            abs(linear_entropy(run.rho_mle) - (1 - p * p)),
            abs(chsh_exact(rho).s - S_MAX * p),
        )
        worst = max(worst, *errs)
    ok = worst <= 1e-8
    _line(2, ok, f"six Werner points, worst |error| = {worst:.2e} (tol 1e-8)")


def test_criterion_3_chsh_exact_and_empirical():
    t0 = time.perf_counter()
    s_ideal = chsh_exact(prepare_hybrid()[0]).s
    rho, _ = prepare_hybrid(NoiseModel(werner_p=0.887))
    # 100 cps for 60 s per setting pair = 1500 events/setting
    svals = [
        chsh_empirical(rho, rate_cps=100.0, duration_s=60.0, seed=k).s
        for k in range(200)
    ]
    mean, std = float(np.mean(svals)), float(np.std(svals, ddof=1))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(s_ideal - S_MAX) <= 1e-9
        and abs(mean - 2.509) <= 0.02
        and 0.015 <= std <= 0.045
        and elapsed < 30.0
    )
    _line(
        3,
        ok,
        f"S_exact={s_ideal:.10f}, empirical mean={mean:.4f} std={std:.4f} "
        f"over 200 seeds in {elapsed:.1f}s",
    )


def test_criterion_4_fringe_visibility_recovery():
    t0 = time.perf_counter()
    # rate x duration = 4e4 puts 1e4 mean counts on every scan point
    _, v_ideal, _ = fit_fringe(
        fringe_scan(prepare_hybrid()[0], "+2", GRID16, 100.0, 400.0, seed=0)
    )
    recov = {}
    for v_in in (0.90, 0.93, 0.966):
        rho, _ = prepare_hybrid(NoiseModel(werner_p=v_in))
        fits = [
            fit_fringe(fringe_scan(rho, "+2", GRID16, 100.0, 400.0, seed=s))[1]
            for s in range(5)
        ]
        recov[v_in] = float(np.mean(fits))
    elapsed = time.perf_counter() - t0
    worst = max(abs(v - k) for k, v in recov.items())
    ok = abs(v_ideal - 1.0) <= 0.005 and worst <= 0.01 and elapsed < 10.0
    _line(
        4,
        ok,
        f"ideal V={v_ideal:.4f}, recovered " +
        " ".join(f"{k}->{v:.4f}" for k, v in recov.items()) +
        f" in {elapsed:.1f}s",
    )


def test_criterion_5_tomography_statistical_scale():
    rho, _ = prepare_hybrid("fitted")
    f_true = fidelity(rho, hybrid_singlet_ket())
    sl_true = linear_entropy(rho)
    c_true = concurrence(rho)
    records = simulate_tomography(rho, rate_cps=100.0, duration_s=15.0, seed=3)
    m = metric_uncertainties(records, n_resamples=100, seed=3)
    ok = (
        0.003 <= m.fidelity_sigma <= 0.03
        and abs(f_true - 0.957) <= 0.02
        and abs(sl_true - 0.012) <= 0.01
    )
    _line(
        5,
        ok,
        f"sigma_F={m.fidelity_sigma:.4f} in [0.003,0.03]; preset lands at "
        f"F={f_true:.6f} S_L={sl_true:.6f}; fit residuals "
        f"F={f_true - 0.957:+.2e} "
        f"S_L={sl_true - 0.012:+.2e} "
        f"C={c_true - 0.957:+.4f}",
    )


def test_criterion_6_budget_arithmetic():
    rep = budget_report(RateBudget())
    p_prep = rep["prep_probability"]
    p_det = rep["det_probability"]
    gain = rep["upgrade"]["rate_gain"]
    projected = rep["upgrade"]["projected_observed_rate_cps"]
    ok = (
        abs(p_prep - 0.40) <= 1e-12
        and abs(p_det - 0.08) <= 1e-12
        and abs(gain - 8.0) <= 1e-9
        and abs(projected - 800.0) <= 1e-6
        and abs(rep["upgrade"]["expected_rate_cps"] - 1536.0) <= 1e-6
    )
    _line(
        6,
        ok,
        f"p_prep={p_prep:.2f} p_det={p_det:.2f} gain={gain:.2f}x "
        f"projected={projected:.0f} cps",
    )


def test_criterion_7_property_suites():
    rng = np.random.default_rng(2024)

    # completeness round-trip: exact counts invert to the input state
    worst_rt = 0.0
    for _ in range(25):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        est = reconstruct(simulate_tomography(rho, exact=True)).rho_linear
        worst_rt = max(worst_rt, float(np.max(np.abs(est.matrix - rho.matrix))))

    # MLE physicality on 100 random count tables
    settings = [r.setting for r in simulate_tomography(rho, exact=True)]
    min_eig, trace_err = 0.0, 0.0
    for _ in range(100):
        recs = [
            CountRecord(s, int(rng.integers(0, 500)), 0) for s in settings
        ]
        res = reconstruct(recs)
        w = np.linalg.eigvalsh(res.rho_mle.matrix)
        min_eig = min(min_eig, float(w[0]))
        trace_err = max(
            trace_err, abs(float(np.trace(res.rho_mle.matrix).real) - 1.0)
        )

    # CP / trace contracts across the chain's elements, 1e4 random states
    # total, each on its domain: the q-plate and the pi->o2 transferrer on
    # the fundamental mode, the o2->pi transferrer on |H> x o2
    def rand_kets(n, d):
        v = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    elements = [  # (operator, input kets, unitary)
        (QPLATE, lambda n: np.kron(rand_kets(n, 2), KET0), True),
        (forward(RateBudget().transfer_prep_eff), lambda n: np.kron(rand_kets(n, 2), KET0), False),
        (
            backward(RateBudget().transfer_det_eff),
            lambda n: np.kron(H, np.pad(rand_kets(n, 2), ((0, 0), (1, 0)))),
            False,
        ),
        (SMF, lambda n: rand_kets(n, 3), False),
    ]
    n_states = 0
    norm_err = 0.0
    p_lo, p_hi = 0.0, 1.0
    eig_floor = 0.0
    per_element = 10_000 // len(elements) + 1
    for op, kets, unitary in elements:
        out = kets(per_element) @ op.T
        p = (np.abs(out) ** 2).sum(axis=1)
        if unitary:
            norm_err = max(norm_err, float(np.abs(p - 1.0).max()))
        else:
            p_lo = min(p_lo, float(p.min()))
            p_hi = max(p_hi, float(p.max()))
        n_states += len(out)
        # every 100th state as a density matrix: K rho K^dag
        rhos = np.einsum("ki,kj->kij", out[::100], out[::100].conj())
        eig_floor = min(eig_floor, float(np.linalg.eigvalsh(rhos)[:, 0].min()))
        assert (np.trace(rhos, axis1=1, axis2=2).real <= 1.0 + 1e-9).all()

    # the MLE barrier objective's analytic gradient and Hessian vs central
    # finite differences along 16 random directions in the 15 Bloch
    # coordinates at each of 20 random full-rank states, each state and its
    # 32 displaced copies evaluated as one stack; the objective
    # sum_k n_k log p_k + mu log det rho is computed here from the projectors
    from hybridoam.tomography import (
        _BLOCH, _count_table, _newton_system, _point, _workspace,
    )

    rho_f, _ = prepare_hybrid("fitted")
    counts = _count_table(simulate_tomography(rho_f, seed=2))[0]
    projectors = np.stack([tomography_oracle.setting_projector(s) for s in settings])

    worst_grad = worst_hess = 0.0
    eps, mu = 1e-6, 0.5
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gram = a @ a.conj().T
        rm = 0.8 * gram / np.trace(gram).real + 0.05 * np.eye(4)
        x = np.einsum("ij,mji->m", rm, _BLOCH).real
        dirs = rng.normal(size=(16, 15))
        stack = np.concatenate([x[None], x + eps * dirs, x - eps * dirs])
        rhos = (np.eye(4) + np.einsum("bm,mij->bij", stack, _BLOCH)) / 4
        p = np.einsum("kij,bji->bk", projectors, rhos).real
        f = np.log(p) @ counts + mu * np.linalg.slogdet(rhos)[1]
        p_stack, rho_stack = _point(stack)
        grad, neg_hess = _newton_system(
            rho_stack, p_stack, np.tile(counts, (len(stack), 1)),
            np.full(len(stack), mu), _workspace(len(stack)), mu * np.linalg.inv(rho_stack),
        )[:2]
        fd = (f[1:17] - f[17:]) / (2.0 * eps)
        rel = np.abs(dirs @ grad[0] - fd) / np.maximum(1.0, np.abs(fd))
        worst_grad = max(worst_grad, float(rel.max()))
        fd_grad = (grad[1:17] - grad[17:]) / (2.0 * eps)
        rel = np.abs(-dirs @ neg_hess[0] - fd_grad) / np.maximum(1.0, np.abs(fd_grad))
        worst_hess = max(worst_hess, float(rel.max()))

    ok = (
        worst_rt <= 1e-10
        and min_eig >= -1e-10
        and trace_err <= 1e-9
        and norm_err <= 1e-9
        and p_lo >= -1e-12
        and p_hi <= 1.0 + 1e-12
        and eig_floor >= -1e-10
        and n_states >= 10_000
        and worst_grad <= 1e-5
        and worst_hess <= 1e-5
    )
    _line(
        7,
        ok,
        f"roundtrip={worst_rt:.1e}, MLE min_eig={min_eig:.1e} on 100 tables, "
        f"{n_states} element states (unitary norm err {norm_err:.1e}, "
        f"p in [{p_lo:.1e}, {p_hi:.6f}]), grad vs FD rel err {worst_grad:.1e}, "
        f"Hessian vs FD rel err {worst_hess:.1e}",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    args = ["pipeline", "--noise", "fitted", "--seed", "7"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = names_a == names_b and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a
    )
    _line(
        8,
        identical,
        f"two seeded pipeline runs, files {names_a} byte-identical",
    )
