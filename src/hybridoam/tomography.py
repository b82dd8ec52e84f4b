"""Two-qubit state tomography over 36 separable settings, plus state metrics.

Settings are the Cartesian product of the three mutually unbiased bases on
each side: {H,V,+,-,L,R} for Alice's polarization and {+2,-2,h,v,a,d} for
Bob's OAM, in that canonical (Alice-major) order.  Counts are normalized
within each complete 2x2 basis pair, so constant per-setting duration drops
out and relative frequencies are unbiased.

Reconstruction is linear inversion over the Pauli expectations (Hermitian
and unit trace by construction, possibly non-positive with finite counts)
followed by maximum-likelihood refinement over the factored form
rho = T T^dag / Tr(T T^dag) with T lower triangular, which is positive by
construction.  The Poisson log-likelihood uses each basis pair's observed
total as the scale, making it multinomial-equivalent per group.

Linear entropy is normalized as S_L = (4/3)(1 - Tr rho^2) so the maximally
mixed two-qubit state scores 1; drop the 4/3 to convert to the
unnormalized convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from .measurement import (
    CountRecord,
    MeasurementSetting,
    exact_counts,
    setting_from_labels,
    setting_stream_seed,
    simulate_counts,
)
from .source import hybrid_singlet_ket
from .states import (
    OAM_O2,
    POLARIZATION,
    DensityMatrix,
    StateVector,
    _freeze,
    project_to_physical,
)

ALICE_LABELS = ("H", "V", "+", "-", "L", "R")
BOB_LABELS = ("+2", "-2", "h", "v", "a", "d")

# label -> (Pauli axis, eigenvalue sign) for each side
_ALICE_AXIS = {"H": ("z", +1), "V": ("z", -1), "+": ("x", +1), "-": ("x", -1),
               "L": ("y", +1), "R": ("y", -1)}
_BOB_AXIS = {"+2": ("z", +1), "-2": ("z", -1), "h": ("x", +1), "v": ("x", -1),
             "a": ("y", +1), "d": ("y", -1)}

_PAULI = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_AXES = ("x", "y", "z")

_P_FLOOR = 1e-15
_MLE_FTOL = 1e-10
_MLE_MAXITER = 10_000
_START_BLEND = 1e-6


class InsufficientDataError(ValueError):
    """Count table cannot support a reconstruction."""


@dataclass(frozen=True)
class MLEResult:
    """Maximum-likelihood reconstruction with its convergence report."""

    rho: DensityMatrix
    loglik: float
    converged: bool
    n_iter: int


@dataclass(frozen=True)
class StateMetrics:
    """Point estimates and one-sigma bootstrap uncertainties."""

    fidelity: float
    concurrence: float
    linear_entropy: float
    fidelity_sigma: float
    concurrence_sigma: float
    linear_entropy_sigma: float

    def __post_init__(self):
        for name in ("fidelity", "concurrence", "linear_entropy"):
            v = getattr(self, name)
            if not -1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"{name} = {v} outside [0, 1]")
            if getattr(self, name + "_sigma") < 0:
                raise ValueError(f"{name} uncertainty is negative")

    def as_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "concurrence": self.concurrence,
            "linear_entropy": self.linear_entropy,
            "uncertainties": {
                "fidelity": self.fidelity_sigma,
                "concurrence": self.concurrence_sigma,
                "linear_entropy": self.linear_entropy_sigma,
            },
        }


@dataclass(frozen=True)
class TomographyRun:
    """One full reconstruction: raw counts and both estimates."""

    settings: tuple[MeasurementSetting, ...]
    records: tuple[CountRecord, ...]
    rho_linear: DensityMatrix
    rho_mle: DensityMatrix
    loglik: float
    converged: bool
    n_iter: int


def tomography_settings(duration_s: float = 15.0) -> list[MeasurementSetting]:
    """The 36 canonical settings, Alice-major order."""
    return [
        setting_from_labels(a, b, duration_s)
        for a in ALICE_LABELS
        for b in BOB_LABELS
    ]


# The tomography model, fixed by the canonical settings and built once:
# setting keys in canonical order, the (36,4,4) projector stack, each
# setting's basis-pair group, and the linear-inversion map M_k with
# rho = I/4 + sum_k f_k M_k for the within-group frequencies f_k.
_KEYS = tuple((a, b) for a in ALICE_LABELS for b in BOB_LABELS)
_INDEX = {k: i for i, k in enumerate(_KEYS)}
_GROUP_AXES = tuple((aa, bb) for aa in _AXES for bb in _AXES)
_PROJECTORS = _freeze(
    np.stack([np.kron(s.alice_proj, s.bob_proj) for s in tomography_settings()])
)
_GROUP = _freeze(
    np.array([
        _GROUP_AXES.index((_ALICE_AXIS[a][0], _BOB_AXIS[b][0])) for a, b in _KEYS
    ])
)


def _inversion_term(a: str, b: str) -> np.ndarray:
    (aa, sa), (bb, sb) = _ALICE_AXIS[a], _BOB_AXIS[b]
    # the correlation term, plus this setting's share of each marginal, which
    # is averaged over the partner's three bases
    return (
        sa * sb * np.kron(_PAULI[aa], _PAULI[bb])
        + sa / 3.0 * np.kron(_PAULI[aa], _PAULI["0"])
        + sb / 3.0 * np.kron(_PAULI["0"], _PAULI[bb])
    ) / 4.0


_INVERSION_MAP = _freeze(np.stack([_inversion_term(a, b) for a, b in _KEYS]))


def simulate_tomography(
    rho: DensityMatrix,
    rate_cps: float = 100.0,
    duration_s: float = 15.0,
    seed: int = 0,
    exact: bool = False,
) -> list[CountRecord]:
    """Counts for all 36 settings; setting i draws from stream (0, i)."""
    records = []
    for i, s in enumerate(tomography_settings(duration_s)):
        sseed = setting_stream_seed(seed, (0, i))
        if exact:
            records.append(exact_counts(rho, s, rate_cps, seed=sseed))
        else:
            records.append(simulate_counts(rho, s, rate_cps, sseed))
    return records


def _projector_stack(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(36,4,4) projector stack, counts, per-setting group totals.

    The stack is the module's canonical one; counts and totals follow its
    order whatever the order of ``records``.
    """
    table = {}
    for r in records:
        key = (r.setting.alice, r.setting.bob)
        if key not in _INDEX:
            raise InsufficientDataError(f"setting {key} is not a tomography setting")
        if key in table:
            raise InsufficientDataError(f"duplicate setting {key}")
        table[key] = float(r.counts)
    missing = [k for k in _KEYS if k not in table]
    if missing:
        raise InsufficientDataError(f"missing settings: {missing[:4]}...")
    counts = np.array([table[k] for k in _KEYS])
    gtot = np.bincount(_GROUP, weights=counts, minlength=len(_GROUP_AXES))
    if gtot.min() <= 0:
        bad = [g for g, v in zip(_GROUP_AXES, gtot) if v <= 0]
        raise InsufficientDataError(f"basis pairs with zero counts: {bad}")
    return _PROJECTORS, counts, gtot[_GROUP]


def linear_inversion(records) -> DensityMatrix:
    """Pauli-expectation inversion; Hermitian, unit trace, possibly non-PSD.

    Two-qubit correlations come from each basis pair's own 2x2 frequency
    table; single-side marginals are averaged over the partner's three
    bases, which all estimate the same quantity.  Both are folded into the
    fixed inversion map, so rho = I/4 + sum_k (n_k / N_group(k)) M_k.
    """
    _, counts, totals = _projector_stack(records)
    rho = np.eye(4) / 4.0 + np.einsum("s,sij->ij", counts / totals, _INVERSION_MAP)
    return DensityMatrix(
        (rho + rho.conj().T) / 2,
        (POLARIZATION, OAM_O2),
        require_positive=False,
    )


def _loglik(rho: np.ndarray, counts: np.ndarray, totals: np.ndarray) -> float:
    p = np.einsum("sij,ji->s", _PROJECTORS, rho).real
    lam = totals * np.clip(p, _P_FLOOR, None)
    return float(np.sum(counts * np.log(lam) - lam - gammaln(counts + 1.0)))


def log_likelihood(rho: DensityMatrix, records) -> float:
    """Poisson log-likelihood of the counts, group totals as the scale."""
    _, counts, totals = _projector_stack(records)
    return _loglik(rho.matrix, counts, totals)


def _pack(t: np.ndarray) -> np.ndarray:
    x = [t[i, i].real for i in range(4)]
    for i in range(4):
        for j in range(i):
            x.extend([t[i, j].real, t[i, j].imag])
    return np.array(x)


def _unpack(x: np.ndarray) -> np.ndarray:
    t = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        t[i, i] = x[i]
    k = 4
    for i in range(4):
        for j in range(i):
            t[i, j] = x[k] + 1j * x[k + 1]
            k += 2
    return t


def _grad_to_params(g: np.ndarray) -> np.ndarray:
    out = [2.0 * g[i, i].real for i in range(4)]
    for i in range(4):
        for j in range(i):
            out.extend([2.0 * g[i, j].real, 2.0 * g[i, j].imag])
    return np.array(out)


def mle_reconstruct(records, start: DensityMatrix | None = None) -> MLEResult:
    """Likelihood maximization over physical states, analytic gradient.

    Starts from the physical projection of linear inversion (blended with a
    trace of the maximally mixed state so the factored form has full rank).
    If the optimizer fails to beat the projected start's likelihood, the
    start itself is returned, which also makes reconstruction from exact
    count tables reproduce linear inversion exactly.
    """
    projs, counts, totals = _projector_stack(records)
    const = float(np.sum(counts * np.log(totals) - totals - gammaln(counts + 1.0)))
    if start is None:
        start = linear_inversion(records)
    pli = start if start.require_positive else project_to_physical(start)

    def split(x):
        t = _unpack(x)
        gram = t @ t.conj().T
        tr = np.trace(gram).real
        rho = gram / tr
        p = np.einsum("sij,ji->s", projs, rho).real
        active = p > _P_FLOOR
        pc = np.where(active, p, _P_FLOOR)
        f = float(np.sum(counts * np.log(pc))) + const
        # clipped settings contribute a constant to f, so their gradient is 0
        w = np.where(active, counts / pc, 0.0)
        a = np.einsum("s,sij->ij", w, projs)
        grad_t = ((a - float(np.sum(w * p)) * np.eye(4)) @ t) / tr
        return -f, -_grad_to_params(grad_t)

    blended = (1.0 - _START_BLEND) * pli.matrix + _START_BLEND * np.eye(4) / 4.0
    t0 = np.linalg.cholesky(blended)
    res = minimize(
        split,
        _pack(t0),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": _MLE_MAXITER, "ftol": _MLE_FTOL},
    )
    t = _unpack(res.x)
    gram = t @ t.conj().T
    rho_opt = DensityMatrix(gram / np.trace(gram).real, (POLARIZATION, OAM_O2))
    ll_opt = _loglik(rho_opt.matrix, counts, totals)
    ll_pli = _loglik(pli.matrix, counts, totals)
    if ll_opt < ll_pli:
        return MLEResult(pli, ll_pli, bool(res.success), int(res.nit))
    return MLEResult(rho_opt, ll_opt, bool(res.success), int(res.nit))


def reconstruct(records) -> TomographyRun:
    """Linear inversion plus MLE refinement on one count table."""
    rho_lin = linear_inversion(records)
    mle = mle_reconstruct(records, start=rho_lin)
    settings = tuple(r.setting for r in records)
    return TomographyRun(
        settings=settings,
        records=tuple(records),
        rho_linear=rho_lin,
        rho_mle=mle.rho,
        loglik=mle.loglik,
        converged=mle.converged,
        n_iter=mle.n_iter,
    )


def fidelity(rho: DensityMatrix, psi_target: StateVector) -> float:
    """Overlap <psi|rho|psi> with a pure target."""
    if rho.dim != psi_target.dim:
        raise ValueError("dimension mismatch")
    amp = psi_target.amplitudes
    return float(np.vdot(amp, rho.matrix @ amp).real)


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum."""
    if rho.dim != 4:
        raise ValueError("concurrence is defined for two-qubit states")
    sy = _PAULI["y"]
    yy = np.kron(sy, sy)
    m = rho.matrix @ yy @ rho.matrix.conj() @ yy
    ev = np.linalg.eigvals(m).real
    lam = np.sqrt(np.clip(ev, 0.0, None))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def linear_entropy(rho: DensityMatrix) -> float:
    """S_L = (4/3)(1 - Tr rho^2), 0 for pure states, 1 for I/4."""
    if rho.dim != 4:
        raise ValueError("linear_entropy is defined for two-qubit states")
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    return (4.0 / 3.0) * (1.0 - purity)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    ev = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.sum(np.abs(ev)))


def metric_uncertainties(
    records,
    n_resamples: int = 100,
    seed: int = 0,
    psi_target: StateVector | None = None,
    resampler=None,
) -> StateMetrics:
    """Parametric bootstrap of (F, C, S_L) around the observed counts.

    Each resample draws Poisson counts with the observed values as means
    (stream (3, r) off the seed), re-runs the full reconstruction, and the
    sample standard deviations of the metrics over resamples are the
    one-sigma uncertainties.  ``resampler(counts, r) -> counts`` can replace
    the Poisson draw.  Fails if more than 10% of resamples fail.
    """
    if n_resamples < 100:
        raise ValueError(f"need at least 100 resamples, got {n_resamples}")
    if psi_target is None:
        psi_target = hybrid_singlet_ket()
    base = reconstruct(records)
    point = (
        fidelity(base.rho_mle, psi_target),
        concurrence(base.rho_mle),
        linear_entropy(base.rho_mle),
    )
    obs = np.array([float(r.counts) for r in records])
    samples = []
    failures = 0
    for r in range(n_resamples):
        if resampler is None:
            rng = np.random.default_rng(setting_stream_seed(seed, (3, r)))
            new_counts = rng.poisson(obs)
        else:
            new_counts = np.asarray(resampler(obs, r))
        try:
            new_records = [
                CountRecord(
                    setting=rec.setting,
                    counts=int(c),
                    expected_rate_cps=rec.expected_rate_cps,
                    seed=rec.seed,
                )
                for rec, c in zip(records, new_counts)
            ]
            run = reconstruct(new_records)
            samples.append(
                (
                    fidelity(run.rho_mle, psi_target),
                    concurrence(run.rho_mle),
                    linear_entropy(run.rho_mle),
                )
            )
        except (ValueError, np.linalg.LinAlgError):
            failures += 1
    if failures > 0.1 * n_resamples:
        raise RuntimeError(
            f"{failures}/{n_resamples} bootstrap resamples failed"
        )
    arr = np.array(samples)
    sig = arr.std(axis=0, ddof=1)
    return StateMetrics(
        fidelity=point[0],
        concurrence=point[1],
        linear_entropy=point[2],
        fidelity_sigma=float(sig[0]),
        concurrence_sigma=float(sig[1]),
        linear_entropy_sigma=float(sig[2]),
    )
