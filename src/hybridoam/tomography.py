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

Linear entropy is normalized as S_L = (4/3)(1 - Tr rho^2) so the maximally
mixed two-qubit state scores 1; drop the 4/3 to convert to the
unnormalized convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# setting keys in canonical order, the projectors flattened to (36, 16) rows
# (so p_k = Tr(Pi_k rho) is the real part of rows @ conj(vec(rho))), each
# setting's basis-pair group, and the linear-inversion map M_k with
# rho = I/4 + sum_k f_k M_k for the within-group frequencies f_k.
_KEYS = tuple((a, b) for a in ALICE_LABELS for b in BOB_LABELS)
_INDEX = {k: i for i, k in enumerate(_KEYS)}
_GROUP_AXES = tuple((aa, bb) for aa in _AXES for bb in _AXES)
_PROJECTORS = _freeze(np.stack([
    np.kron(s.alice_proj, s.bob_proj).reshape(-1) for s in tomography_settings()
]))
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
    gtot = np.bincount(_GROUP, weights=counts, minlength=len(_GROUP_AXES))
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
    rho = np.eye(4) / 4.0 + np.einsum("s,sij->ij", counts / totals, _INVERSION_MAP)
    return DensityMatrix(
        (rho + rho.conj().T) / 2,
        (POLARIZATION, OAM_O2),
        require_positive=False,
    )


def _loglik(rho: np.ndarray, counts: np.ndarray, totals: np.ndarray) -> float:
    p = (_PROJECTORS @ rho.conj().reshape(-1)).real
    lam = totals * np.clip(p, _P_FLOOR, None)
    log_fact = sum(math.lgamma(c + 1.0) for c in counts)
    return float(np.sum(counts * np.log(lam) - lam)) - log_fact


def log_likelihood(rho: DensityMatrix, records) -> float:
    """Poisson log-likelihood of the counts, group totals as the scale."""
    counts, totals = _count_table(records)
    return _loglik(rho.matrix, counts, totals)


def _objective(rho: np.ndarray, counts: np.ndarray, rows: np.ndarray):
    """sum_k n_k log p_k and its gradient sum_k (n_k / p_k) Pi_k.

    ``rows`` are the flattened projectors of the settings in ``counts``.  On
    unit-trace states this is the Poisson log-likelihood up to a constant.
    Off its domain, where some p_k <= 0, it is (-inf, None).
    """
    p = (rows @ rho.conj().reshape(-1)).real
    if p.min() <= 0.0:
        return -math.inf, None
    return float(counts @ np.log(p)), ((counts / p) @ rows).reshape(4, 4)


def _project_to_states(h: np.ndarray) -> np.ndarray:
    """Nearest density matrix in Frobenius norm: eigenvalues onto the simplex."""
    w, vecs = np.linalg.eigh(h)
    desc = w[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1.0, w.size + 1.0)
    tau = shifts[np.count_nonzero(desc > shifts) - 1]
    return (vecs * np.maximum(w - tau, 0.0)) @ vecs.conj().T


def mle_reconstruct(records, start: DensityMatrix | None = None) -> MLEResult:
    """Likelihood maximization over density matrices.

    Accelerated projected-gradient ascent on rho (Shang, Zhang & Ng, PRA 95,
    062336, 2017) from the physical projection of linear inversion, with
    backtracking on the step.  Momentum restarts when a step gains nothing
    or the momentum point leaves the likelihood's domain, so the iterates
    never lose likelihood.  Converged means a plain step from the returned
    state gains less than _MLE_FTOL relative; a start that is already the
    maximum, as for exact count tables, comes back unchanged.  A start that
    gives a setting with counts zero probability raises ValueError.
    """
    counts, totals = _count_table(records)
    if start is None:
        start = linear_inversion(records)
    pli = start if start.require_positive else project_to_physical(start)
    # settings with zero counts add nothing to the likelihood
    n, rows = counts[counts > 0], _PROJECTORS[counts > 0]
    rho = pli.matrix
    f, grad = _objective(rho, n, rows)
    if grad is None:
        raise ValueError("the start gives a setting with counts zero probability")
    g_y, step = None, 1.0 / float(n.sum())
    converged, n_iter = False, 0
    while not converged and n_iter < _MLE_MAXITER:
        n_iter += 1
        if g_y is None:  # (re)start the momentum at the current iterate
            y, f_y, g_y, theta = rho, f, grad, 1.0
        while True:
            trial = _project_to_states(y + step * g_y)
            f_trial, g_trial = _objective(trial, n, rows)
            d = trial - y
            if f_trial >= f_y + np.vdot(g_y, d).real - np.vdot(d, d).real / (2 * step):
                break
            step /= 2.0
        if f_trial - f <= _MLE_FTOL * abs(f):
            converged, g_y = y is rho, None
            continue
        theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        y = trial + ((theta - 1.0) / theta_next) * (trial - rho)
        rho, f, grad, theta = trial, f_trial, g_trial, theta_next
        f_y, g_y = _objective(y, n, rows)  # None off the domain: restart
        step *= _STEP_GROWTH
    rho_mle = DensityMatrix((rho + rho.conj().T) / 2, pli.basis)
    loglik = _loglik(rho_mle.matrix, counts, totals)
    return MLEResult(rho_mle, loglik, converged, n_iter)


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
    the Poisson draw.  A resample that reconstruct refuses for lack of data
    counts as failed, and more than 10% failed raises RuntimeError; any
    other error, such as negative counts from ``resampler``, propagates.
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
        new_records = [
            CountRecord(
                setting=rec.setting,
                counts=int(c),
                expected_rate_cps=rec.expected_rate_cps,
                seed=rec.seed,
            )
            for rec, c in zip(records, new_counts)
        ]
        try:
            run = reconstruct(new_records)
        except InsufficientDataError:
            failures += 1
            continue
        samples.append(
            (
                fidelity(run.rho_mle, psi_target),
                concurrence(run.rho_mle),
                linear_entropy(run.rho_mle),
            )
        )
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
