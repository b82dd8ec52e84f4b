"""Two-qubit state tomography over 36 separable settings, plus state metrics.

Settings are the Cartesian product of the three mutually unbiased bases on
each side: {H,V,+,-,L,R} for Alice's polarization and {+2,-2,h,v,a,d} for
Bob's OAM, in that canonical (Alice-major) order.  Counts are normalized
within each complete 2x2 basis pair, so constant per-setting duration drops
out and relative frequencies are unbiased.

Reconstruction is linear inversion over the Pauli expectations (Hermitian
and unit trace by construction, possibly non-positive with finite counts)
followed by maximum-likelihood refinement on rho itself: projected-gradient
ascent from the physical projection of the linear estimate, where each
projection moves the eigenvalues onto the probability simplex.  The Poisson
log-likelihood uses each basis pair's observed total as the scale, making it
multinomial-equivalent per group.

The solver works on a stack of count tables at once: each round projects
every unfinished table with one batched eigendecomposition and evaluates the
objective for all of them in one product, and a table leaves the stack when
it converges.  Every table keeps its own step, momentum and stopping rule,
and its row arithmetic does not depend on the other tables, so a table
solved in a stack gives exactly what it gives alone.  mle_reconstruct solves
a stack of one; the bootstrap solves all its resamples in one stack.

Linear entropy is normalized as S_L = (4/3)(1 - Tr rho^2) so the maximally
mixed two-qubit state scores 1; drop the 4/3 to convert to the
unnormalized convention.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measurement import (
    CountRecord,
    MeasurementSetting,
    _count_records,
    _projector_from,
    setting_from_labels,
    setting_stream_seed,
)
from .source import hybrid_singlet_ket
from .states import (
    OAM_O2,
    POLARIZATION,
    DensityMatrix,
    StateVector,
    _clip_to_states,
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
_MLE_FTOL = 1e-14
_MLE_MAXITER = 10_000
_STEP_GROWTH = 1.25


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
    failed_resamples: int = 0

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
            "failed_resamples": self.failed_resamples,
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


_KEYS = tuple((a, b) for a in ALICE_LABELS for b in BOB_LABELS)


@functools.lru_cache(maxsize=16)
def _compiled_settings(
    duration_s: float,
) -> tuple[tuple[MeasurementSetting, ...], np.ndarray]:
    """The 36 settings for one duration and their (36, 4, 4) operator stack."""
    settings = tuple(setting_from_labels(a, b, duration_s) for a, b in _KEYS)
    for s in settings:  # shared by every caller, so nobody may write them
        _freeze(s.alice_proj)
        _freeze(s.bob_proj)
    return settings, _PROJECTORS.reshape(-1, 4, 4)


def tomography_settings(duration_s: float = 15.0) -> list[MeasurementSetting]:
    """The 36 canonical settings, Alice-major order."""
    return list(_compiled_settings(duration_s)[0])


# The tomography model, fixed by the canonical settings and built once:
# setting keys in canonical order, the projectors flattened to (36, 16) rows
# (so p_k = Tr(Pi_k rho) is the real part of rows @ conj(vec(rho))), each
# setting's basis-pair group as an index and as a (36, 9) 0/1 matrix, and the
# linear-inversion map M_k with rho = I/4 + sum_k f_k M_k for the
# within-group frequencies f_k.
_INDEX = {k: i for i, k in enumerate(_KEYS)}
_GROUP_AXES = tuple((aa, bb) for aa in _AXES for bb in _AXES)
_PROJECTORS = _freeze(np.stack([
    np.kron(
        _projector_from(a, "polarization")[0], _projector_from(b, "oam_o2")[0]
    ).reshape(-1)
    for a, b in _KEYS
]))
_GROUP = _freeze(
    np.array([
        _GROUP_AXES.index((_ALICE_AXIS[a][0], _BOB_AXIS[b][0])) for a, b in _KEYS
    ])
)
_GROUP_SUM = _freeze(np.eye(len(_GROUP_AXES))[_GROUP])


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
    settings, ops = _compiled_settings(duration_s)
    seeds = [setting_stream_seed(seed, (0, i)) for i in range(len(settings))]
    return _count_records(rho, settings, ops, rate_cps, seeds, exact)


def _count_table(records) -> tuple[np.ndarray, np.ndarray]:
    """Counts and per-setting group totals, in canonical setting order."""
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
    gtot = counts @ _GROUP_SUM
    if gtot.min() <= 0:
        bad = [g for g, v in zip(_GROUP_AXES, gtot) if v <= 0]
        raise InsufficientDataError(f"basis pairs with zero counts: {bad}")
    return counts, gtot[_GROUP]


def linear_inversion(records) -> DensityMatrix:
    """Pauli-expectation inversion; Hermitian, unit trace, possibly non-PSD.

    Two-qubit correlations come from each basis pair's own 2x2 frequency
    table; single-side marginals are averaged over the partner's three
    bases, which all estimate the same quantity.  Both are folded into the
    fixed inversion map, so rho = I/4 + sum_k (n_k / N_group(k)) M_k.
    """
    counts, totals = _count_table(records)
    return DensityMatrix(
        _invert(counts / totals), (POLARIZATION, OAM_O2), require_positive=False
    )


def _invert(freqs: np.ndarray) -> np.ndarray:
    """Linear inversion of (..., 36) within-group frequencies, Hermitian."""
    rho = np.eye(4) / 4.0 + np.einsum("...s,sij->...ij", freqs, _INVERSION_MAP)
    return (rho + np.swapaxes(rho.conj(), -1, -2)) / 2


def _loglik(rho: np.ndarray, counts: np.ndarray, totals: np.ndarray) -> float:
    p = (_PROJECTORS @ rho.conj().reshape(-1)).real
    lam = totals * np.clip(p, _P_FLOOR, None)
    log_fact = sum(math.lgamma(c + 1.0) for c in counts)
    return float(np.sum(counts * np.log(lam) - lam)) - log_fact


def log_likelihood(rho: DensityMatrix, records) -> float:
    """Poisson log-likelihood of the counts, group totals as the scale."""
    counts, totals = _count_table(records)
    return _loglik(rho.matrix, counts, totals)


# The solver holds each table's points as float rows: the row of a point
# rho is [vec(rho) as interleaved (Re, Im) pairs | its 36 probabilities |
# the objective's gradient there, as a vec row too | the objective's value].
# The dot product of two vec rows is Re Tr(a^H b), so p_k is a vec row times
# row k of _ROWS, and a gradient is a counts-weighted sum of _ROWS.
_ROWS = _PROJECTORS.view(np.float64)
_X, _P, _G, _F = slice(0, 32), slice(32, 68), slice(68, 100), 100
_XP = slice(0, 68)  # the vec row and the probabilities, both linear in rho
_WIDTH = 101


def _as_rows(mats: np.ndarray) -> np.ndarray:
    """(B, 32) vec rows of a (B, 4, 4) complex stack."""
    return np.ascontiguousarray(mats, dtype=complex).reshape(-1, 16).view(np.float64)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products of two (B, n) stacks."""
    return np.einsum("bi,bi->b", a, b)


def _rowwise(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m computed one row at a time.

    BLAS may round a row of a (B, n) product differently depending on the
    rows around it, and a table's solve must not depend on its stack.
    """
    return (a[:, None, :] @ m)[:, 0]


def _objective(p: np.ndarray, counts: np.ndarray):
    """Per table, sum_k n_k log p_k and its gradient sum_k (n_k / p_k) Pi_k.

    ``p`` and ``counts`` are (B, 36) stacks; returns the (B,) values and the
    gradients as (B, 32) vec rows.  Settings with zero counts add nothing.
    On unit-trace states this is the Poisson log-likelihood up to a constant.
    Off its domain, where some counted p_k <= 0, the value is -inf and the
    gradient means nothing.
    """
    p = np.where(counts > 0, p, 1.0)
    inside = p.min(axis=1) > 0.0
    if inside.all():
        return _dot(counts, np.log(p)), _rowwise(counts / p, _ROWS)
    # rows off the domain get placeholder probabilities to keep the logs finite
    p = np.where(inside[:, None], p, 1.0)
    f = np.where(inside, _dot(counts, np.log(p)), -np.inf)
    return f, _rowwise(counts / p, _ROWS)


def _project_to_states(h: np.ndarray) -> np.ndarray:
    """Nearest density matrices in Frobenius norm, for a (B, 4, 4) stack.

    The eigenvalues move onto the probability simplex: they drop by the
    threshold tau = max_j (sum_{i<=j} w_i - 1) / j over the descending
    spectrum w, and are clipped at zero.
    """
    w, vecs = np.linalg.eigh(h)
    tau = ((_rowwise(w, _TOP_SUMS) - 1.0) / _RANKS).max(axis=1, keepdims=True)
    w = np.maximum(w - tau, 0.0)
    return (vecs * w[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


# with w ascending, column j of w @ _TOP_SUMS sums the j + 1 largest
_TOP_SUMS = _freeze(np.flipud(np.triu(np.ones((4, 4)))))
_RANKS = _freeze(np.arange(1.0, 5.0))


def _solve(counts: np.ndarray, start: np.ndarray):
    """Maximize the likelihood of a (B, 36) stack of count tables at once.

    Each table runs its own accelerated projected-gradient ascent from its
    physical start in the (B, 4, 4) stack, as mle_reconstruct describes.
    A round makes one trial step for every table still running: one batched
    projection, then one objective call for the trial points and the
    momentum points they would lead to.  A table leaves the stack when it
    converges or reaches _MLE_MAXITER.  Returns the Hermitian states, the
    converged flags and the iteration counts, in input order.
    """
    n_tables = len(counts)
    rho_out = np.empty((n_tables, 32))
    converged_out = np.zeros(n_tables, dtype=bool)
    n_iter_out = np.zeros(n_tables, dtype=int)

    rho = np.empty((n_tables, _WIDTH))
    rho[:, _X] = _as_rows(start)
    rho[:, _P] = _rowwise(rho[:, _X], _ROWS.T)
    rho[:, _F], rho[:, _G] = _objective(rho[:, _P], counts)
    if not np.isfinite(rho[:, _F]).all():
        raise ValueError("the start gives a setting with counts zero probability")
    # y is the momentum point; at_rho marks the tables where it is rho itself
    y = rho.copy()
    theta = np.ones(n_tables)
    at_rho = np.ones(n_tables, dtype=bool)
    step = 1.0 / counts.sum(axis=1)
    n_iter = np.zeros(n_tables, dtype=int)
    live = np.arange(n_tables)
    pair_counts = np.concatenate([counts, counts])  # for trial and momentum rows
    while live.size:
        points = np.empty((2 * live.size, _WIDTH))
        trial, nxt = points[:live.size], points[live.size:]
        h = (y[:, _X] + step[:, None] * y[:, _G]).view(complex).reshape(-1, 4, 4)
        trial[:, _X] = _as_rows(_project_to_states(h))
        trial[:, _P] = _rowwise(trial[:, _X], _ROWS.T)
        # where the trial advances, the momentum point moves on to nxt; p is
        # linear in rho, so nxt's probabilities follow from the trial's
        theta_next = 0.5 + np.sqrt(0.25 + theta * theta)  # (1 + sqrt(1 + 4 t^2)) / 2
        mom = ((theta - 1.0) / theta_next)[:, None]
        nxt[:, _XP] = trial[:, _XP] + mom * (trial[:, _XP] - rho[:, _XP])
        points[:, _F], points[:, _G] = _objective(points[:, _P], pair_counts)

        # a trial is accepted when it clears the quadratic model around y
        d = trial[:, _X] - y[:, _X]
        accept = trial[:, _F] >= (
            y[:, _F] + _dot(y[:, _G], d) - _dot(d, d) / (2.0 * step)
        )
        f = rho[:, _F]
        stalled = accept & (trial[:, _F] - f <= _MLE_FTOL * np.abs(f))
        advance = accept & ~stalled
        # momentum restarts at rho when a step gains nothing or the momentum
        # point leaves the likelihood's domain
        restart = stalled | (advance & (nxt[:, _F] == -np.inf))
        converged = stalled & at_rho
        n_iter += accept
        # backtrack by halving the step; grow it again after each advance
        step = step * np.where(advance, _STEP_GROWTH, np.where(accept, 1.0, 0.5))
        rho = np.where(advance[:, None], trial, rho)
        y = np.where(restart[:, None], rho, np.where(advance[:, None], nxt, y))
        theta = np.where(restart, 1.0, np.where(advance, theta_next, theta))
        at_rho = np.where(accept, restart, at_rho)

        done = converged | (n_iter >= _MLE_MAXITER)
        if done.any():
            idx = live[done]
            rho_out[idx] = rho[done, _X]
            converged_out[idx] = converged[done]
            n_iter_out[idx] = n_iter[done]
            keep = ~done
            live, counts, rho, y = live[keep], counts[keep], rho[keep], y[keep]
            theta, at_rho = theta[keep], at_rho[keep]
            step, n_iter = step[keep], n_iter[keep]
            pair_counts = np.concatenate([counts, counts])
    rho_out = rho_out.view(complex).reshape(-1, 4, 4)
    return (rho_out + rho_out.conj().transpose(0, 2, 1)) / 2, converged_out, n_iter_out


def mle_reconstruct(records, start: DensityMatrix | None = None) -> MLEResult:
    """Likelihood maximization over density matrices.

    Accelerated projected-gradient ascent on rho (Shang, Zhang & Ng, PRA 95,
    062336, 2017) from the physical projection of linear inversion, with
    backtracking on the step.  Momentum restarts when a step gains nothing
    or the momentum point leaves the likelihood's domain, so the iterates
    never lose likelihood.  Converged means a plain step from the returned
    state gains less than _MLE_FTOL relative; a start that is already the
    maximum, as for exact count tables, comes back unchanged.  A start that
    gives a setting with counts zero probability raises ValueError.  This is
    the stacked solver of the bootstrap on a stack of one table.
    """
    counts, totals = _count_table(records)
    if start is None:
        start = linear_inversion(records)
    pli = start if start.require_positive else project_to_physical(start)
    rho, converged, n_iter = _solve(counts[None], pli.matrix[None])
    rho_mle = DensityMatrix(rho[0], pli.basis)
    loglik = _loglik(rho_mle.matrix, counts, totals)
    return MLEResult(rho_mle, loglik, bool(converged[0]), int(n_iter[0]))


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
    return float(_fidelities(rho.matrix[None], psi_target.amplitudes)[0])


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum."""
    if rho.dim != 4:
        raise ValueError("concurrence is defined for two-qubit states")
    return float(_concurrences(rho.matrix[None])[0])


def linear_entropy(rho: DensityMatrix) -> float:
    """S_L = (4/3)(1 - Tr rho^2), 0 for pure states, 1 for I/4."""
    if rho.dim != 4:
        raise ValueError("linear_entropy is defined for two-qubit states")
    return float(_linear_entropies(rho.matrix[None])[0])


# The metrics on (B, 4, 4) stacks of two-qubit states, one value per state.
_YY = _freeze(np.kron(_PAULI["y"], _PAULI["y"]))


def _fidelities(rhos: np.ndarray, amp: np.ndarray) -> np.ndarray:
    return np.einsum("i,bij,j->b", amp.conj(), rhos, amp).real


def _concurrences(rhos: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvals(rhos @ _YY @ rhos.conj() @ _YY).real
    lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)), axis=1)
    return np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0])


def _linear_entropies(rhos: np.ndarray) -> np.ndarray:
    return (4.0 / 3.0) * (1.0 - np.einsum("bij,bji->b", rhos, rhos).real)


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
    (stream (3, r) off the seed) and is reconstructed as reconstruct would,
    all resamples in one stacked solve with the observed table, whose
    estimate gives the point values; the sample standard deviations of the
    metrics over resamples are the one-sigma uncertainties.
    ``resampler(counts, r) -> counts`` can replace the Poisson draw; counts
    are truncated to integers.  A resample with an empty basis pair is
    refused for lack of data and counts as failed; more than 10% failed
    raises RuntimeError, and the result reports how many failed.  Resampled
    counts that are negative or not finite raise ValueError.
    """
    if n_resamples < 100:
        raise ValueError(f"need at least 100 resamples, got {n_resamples}")
    if psi_target is None:
        psi_target = hybrid_singlet_ket()
    observed, _ = _count_table(records)
    obs = np.array([float(r.counts) for r in records])
    draws = np.empty((n_resamples, obs.size))
    for r in range(n_resamples):
        if resampler is None:
            rng = np.random.default_rng(setting_stream_seed(seed, (3, r)))
            draws[r] = rng.poisson(obs)
        else:
            draws[r] = resampler(obs, r)
    if not np.isfinite(draws).all():
        raise ValueError("resampled counts must be finite")
    draws = np.trunc(draws)
    if (draws < 0).any():
        raise ValueError("resampled counts must be non-negative")
    # the records passed _count_table, so they hold each setting once
    counts = np.empty_like(draws)
    counts[:, [_INDEX[r.setting.alice, r.setting.bob] for r in records]] = draws
    gtot = counts @ _GROUP_SUM
    refused = gtot.min(axis=1) <= 0
    failures = int(refused.sum())
    if failures > 0.1 * n_resamples:
        raise RuntimeError(
            f"{failures}/{n_resamples} bootstrap resamples failed"
        )
    counts, gtot = counts[~refused], gtot[~refused]
    start = _clip_to_states(_invert(counts / gtot[:, _GROUP]))
    # the observed table is row 0, started where reconstruct starts it; rows
    # solve independently, so its estimate is reconstruct's rho_mle
    point_start = project_to_physical(linear_inversion(records))
    rhos, _, _ = _solve(
        np.concatenate([observed[None], counts]),
        np.concatenate([point_start.matrix[None], start]),
    )
    rho_mle = DensityMatrix(rhos[0], point_start.basis)
    point = (
        fidelity(rho_mle, psi_target),
        concurrence(rho_mle),
        linear_entropy(rho_mle),
    )
    rhos = rhos[1:]
    samples = np.column_stack([
        _fidelities(rhos, psi_target.amplitudes),
        _concurrences(rhos),
        _linear_entropies(rhos),
    ])
    sig = samples.std(axis=0, ddof=1)
    return StateMetrics(
        fidelity=point[0],
        concurrence=point[1],
        linear_entropy=point[2],
        fidelity_sigma=float(sig[0]),
        concurrence_sigma=float(sig[1]),
        linear_entropy_sigma=float(sig[2]),
        failed_resamples=failures,
    )
