"""Two-qubit state tomography over 36 separable settings, plus state metrics.

Settings are the Cartesian product of the three mutually unbiased bases on
each side: {H,V,+,-,L,R} for Alice's polarization and {+2,-2,h,v,a,d} for
Bob's OAM, in that canonical (Alice-major) order.  Counts are normalized
within each complete 2x2 basis pair, so a per-setting duration drops out
and relative frequencies are unbiased if every setting shares it; a table
whose settings mix durations is refused.

One model serves both estimators: the map C from the 15 Bloch coordinates
of rho to the 36 setting probabilities, built from the counting path's
projectors.  Reconstruction is linear inversion, the least-squares inverse
of C applied to the within-group frequencies (Hermitian and unit trace by
construction, possibly non-positive with finite counts), followed by
maximum-likelihood refinement through the same C: a log-barrier (primal-dual
interior-point) Newton method in the 15 Bloch coordinates of rho, from the
physical projection of the linear estimate: as it is when that lies well
inside the state space, else blended toward I/4.  The Poisson log-likelihood
uses each basis pair's observed total as the scale, making it
multinomial-equivalent per group.  The solve stops when the concavity bound
lambda_max(R) - N proves the likelihood within _MLE_TOL of its maximum, and
that bound is reported with the estimate.

The solver works on a stack of count tables at once: each round bounds the
gap of the unfinished tables with one batched eigvalsh and makes one Newton
step on all of them with one batched 15x15 solve, and a table leaves the
stack when it is certified.  Every table keeps its own barrier weight,
dual estimate and step, and its row arithmetic does not depend on the other
tables, so a table solved in a stack gives exactly what it gives alone.
reconstruct inverts, projects and solves a stack of one; the bootstrap
does the same to the observed table and all its resamples in one stack.
Its Cholesky, inverse, solve and Hermitian eigenvalue calls skip np.linalg's
Python wrappers, which cost as much as the LAPACK call on one table; a failed
call raises LinAlgError as there, but in a Newton step leaves its row in place.
Each of the 15 Pauli products G_m of the Bloch coordinates has one entry,
+-1 or +-i, in each row, so the products with G_m that the Newton matrix
needs are signed gathers from fixed index tables, and its barrier term is
one real (15, 32) @ (32, 15) product per table.

Linear entropy is normalized as S_L = (4/3)(1 - Tr rho^2) so the maximally
mixed two-qubit state scores 1; drop the 4/3 to convert to the
plain 1 - Tr rho^2 convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import (
    DEFAULT_DURATION_S,
    DEFAULT_RATE_CPS,
    CountRecord,
    _count_records,
    _one_duration,
    _operators,
    _stream,
)
from .source import hybrid_singlet_ket
from .states import (
    DensityMatrix,
    StateVector,
    _O2_KETS,
    _POL_KETS,
    _RAISE,
    _check_int,
    _clip_to_states,
    _freeze,
    _lapack,
)

ALICE_LABELS = tuple(_POL_KETS)
BOB_LABELS = tuple(_O2_KETS)

_P_FLOOR = 1e-15
# The solver stops once the likelihood is certified within _MLE_TOL of its
# maximum.  Near the maximum L falls off quadratically in standard errors,
# so a deficit delta leaves the estimate about sqrt(2 delta) standard errors
# from the maximum: 1e-6 keeps it within 0.0015 of one, far inside the
# bootstrap's spread.  The bound lambda_max(R) - N carries round-off of a
# few eps N, so the solver adds _ROUNDOFF N to it; past about 3e8 counts that
# alone exceeds _MLE_TOL, and no solve of such a table converges.
_MLE_TOL = 1e-6
_ROUNDOFF = 16 * np.finfo(float).eps
_MLE_MAXITER = 100
_MU_START = 1.0  # least duality measure of a blended start, in log-likelihood units
_MU_PER_GAP = 1e-3  # a blended start's duality measure per unit of its gap bound
# a linear-inversion start whose least eigenvalue exceeds _INSIDE is taken
# as it is, on the central path at duality measure _MU_INSIDE: the maximum
# then most likely lies inside the state space too, so the start needs no
# room from the boundary
_INSIDE = 1e-3
_MU_INSIDE = 1e-2
# the next round aims at a share of the duality measure mu that depends on
# how long the last steps were: a half (mostly re-centring) after short
# ones, a tenth after steps of at least _STEP_EDGES[0], and a hundredth
# after near-full steps, of at least _STEP_EDGES[1]
_STEP_EDGES = _freeze(np.array([0.9, 0.98]))
_TARGETS = _freeze(np.array([0.5, 0.1, 0.01]))
_BOUND_MU = 10 * _MLE_TOL  # duality measure from which on the gap is bounded
_START_BLEND = 1e-2  # share of I/4 mixed into every other start, so that rho > 0
# longest share of the way to a singular rho, and Z, per step
_TO_BOUNDARY, _TO_BOUNDARY_DUAL = 0.9, 0.99
_SHARES = _freeze(np.array([[_TO_BOUNDARY], [_TO_BOUNDARY_DUAL]]))  # as a column
_ARMIJO = 0.25
_HALVES = _freeze(0.5 ** np.arange(1.0, 13.0))  # tried when a full step fails
MIN_RESAMPLES = 100  # the bootstrap's default number of resamples, and the fewest
MAX_RESAMPLES = 10_000  # the most: about 4 s and 220 MiB at peak


class InsufficientDataError(ValueError):
    """Count table cannot support a reconstruction."""


@dataclass(frozen=True)
class StateMetrics:
    """Point estimates and one-sigma bootstrap uncertainties.

    ``failed_resamples`` counts the resamples refused for an empty basis
    pair, which the sigmas leave out, and ``unconverged_resamples`` the
    solved ones whose gap bound still exceeded _MLE_TOL when the solver
    stopped, which the sigmas include.
    """

    fidelity: float
    concurrence: float
    linear_entropy: float
    fidelity_sigma: float
    concurrence_sigma: float
    linear_entropy_sigma: float
    failed_resamples: int = 0
    unconverged_resamples: int = 0

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
            "unconverged_resamples": self.unconverged_resamples,
        }


@dataclass(frozen=True)
class TomographyRun:
    """One reconstruction of a count table: both estimates and the MLE's
    convergence report.

    ``loglik_gap_bound`` is a proven upper bound on how far ``loglik`` lies
    below the maximum, round-off included, and never negative; ``converged``
    means it is at most _MLE_TOL.
    """

    rho_linear: DensityMatrix
    rho_mle: DensityMatrix
    loglik: float
    n_iter: int
    loglik_gap_bound: float

    @property
    def converged(self) -> bool:
        return self.loglik_gap_bound <= _MLE_TOL


_KEYS = tuple((a, b) for a in ALICE_LABELS for b in BOB_LABELS)


# The tomography model, fixed by the canonical settings and built once:
# setting keys in canonical order, the projectors of the counting path's
# stack as read-only (36, 16) rows (so p_k = Tr(Pi_k rho) is the real part of
# rows @ conj(vec(rho))), and each setting's basis pair as an index and as a
# (36, 9) 0/1 matrix.  Each basis is an adjacent orthogonal pair of labels,
# so setting (i, j) of the 6 x 6 label grid belongs to pair (i // 2, j // 2).
_INDEX = {k: i for i, k in enumerate(_KEYS)}
_PROJECTORS = _operators(_KEYS).reshape(36, 16)
_GROUP = _freeze(np.array([3 * (i // 2) + j // 2 for i in range(6) for j in range(6)]))
_GROUP_SUM = _freeze(np.eye(9)[_GROUP])
_GROUP_NAMES = tuple(
    f"{'/'.join(ALICE_LABELS[i:i + 2])} x {'/'.join(BOB_LABELS[j:j + 2])}"
    for i in (0, 2, 4) for j in (0, 2, 4)
)


def simulate_tomography(
    rho: DensityMatrix,
    rate_cps: float = DEFAULT_RATE_CPS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
    exact: bool = False,
) -> list[CountRecord]:
    """Counts for all 36 settings, drawn in canonical order from stream (0,)."""
    return _count_records(rho, _KEYS, duration_s, rate_cps, seed, (0,), exact)


def _count_table(records) -> tuple[np.ndarray, np.ndarray]:
    """Counts and per-setting group totals, in canonical setting order.  The
    records must hold every setting once, all measured for one duration,
    since counts are normalized within each basis pair."""
    table, durations = {}, set()  # canonical index -> counts
    for r in records:
        key = (r.setting.alice, r.setting.bob)
        i = _INDEX.get(key)
        if i is None:
            raise InsufficientDataError(f"setting {key} is not a tomography setting")
        if i in table:
            raise InsufficientDataError(f"duplicate setting {key}")
        table[i] = float(r.counts)
        durations.add(r.setting.duration_s)
    missing = [k for i, k in enumerate(_KEYS) if i not in table]
    if missing:
        raise InsufficientDataError(f"missing settings: {missing[:4]}...")
    _one_duration(durations, InsufficientDataError)
    counts = np.array([table[i] for i in range(len(_KEYS))])
    gtot = counts @ _GROUP_SUM
    if gtot.min() <= 0:
        bad = [g for g, v in zip(_GROUP_NAMES, gtot) if v <= 0]
        raise InsufficientDataError(f"basis pairs with zero counts: {bad}")
    return counts, gtot[_GROUP]


def _loglik(rho: np.ndarray, counts: np.ndarray, totals: np.ndarray) -> float:
    p = (_PROJECTORS @ rho.conj().reshape(-1)).real
    lam = totals * np.clip(p, _P_FLOOR, None)
    log_fact = sum(math.lgamma(c + 1.0) for c in counts)
    # a setting that counted nothing contributes -lam alone, as in _solve
    return float(np.sum(counts * np.log(np.where(counts > 0, lam, 1.0)) - lam)) - log_fact


# The solver works in Bloch coordinates: rho = (I + sum_m x_m G_m) / 4 over
# the 15 traceless Pauli products G_m, so x_m = Tr(rho G_m), every point has
# unit trace, and p_k = 1/4 + sum_m C_km x_m with C_km = Tr(Pi_k G_m) / 4.
# Matrices are held as vec rows, vec(rho) as interleaved (Re, Im) pairs; the
# dot product of two vec rows is Re Tr(a^H b), so p_k is a vec row times row
# k of _ROWS, and x is a vec row times the rows of _BLOCH_ROWS.  _BLOCH_MAP
# takes x to [p - 1/4 | 4 rho - I as a vec row] in one product, and
# C^T diag(d) C is d @ _C_OUTER, reshaped, for a (36,) weight vector d.
_ROWS = _PROJECTORS.view(np.float64)
_SIGMAS = np.array([  # I, X, Y, Z
    [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]],
], dtype=complex)
_BLOCH = _freeze(  # the kron products sigma_a x sigma_b but the identity
    (_SIGMAS[:, None, :, None, :, None] * _SIGMAS[None, :, None, :, None, :]).reshape(16, 4, 4)[1:]
)
_BLOCH_ROWS = _BLOCH.reshape(15, 16).view(np.float64)
_C = _freeze(_ROWS @ _BLOCH_ROWS.T / 4.0)
_C_OUTER = _freeze((_C[:, :, None] * _C[:, None, :]).reshape(36, 225))
_EYE_ROW = _freeze(np.eye(4, dtype=complex).reshape(16).view(np.float64))
_BLOCH_MAP = _freeze(np.concatenate([_C.T, _BLOCH_ROWS], axis=1))
_BLOCH_MAP_T = _freeze(np.ascontiguousarray(_BLOCH_MAP.T))
# Equal-weight linear inversion is the least-squares inverse of the same
# map, x = C^+ (f - 1/4) for within-group frequencies f; C^+ is held as its
# (36, 15) transpose, so a row of f - 1/4 times it is x.
_INVERT = _freeze(np.ascontiguousarray(np.linalg.pinv(_C).T))


def _signed_gathers(images: np.ndarray) -> np.ndarray:
    """Index table of 15 real-linear maps f_m on 4x4 complex matrices, each
    of which takes every real of vec(f_m(M)) to plus or minus one real of
    vec(M): the vec row of f_m(M) is [v, -v][table[m]] for v the vec row
    of M.  ``images`` holds f_m(E_r) for the 32 real unit directions E_r."""
    maps = images.reshape(15, 32, 16).view(np.float64)  # [m, source, target]
    source = np.abs(maps).argmax(axis=1)
    sign = np.take_along_axis(maps, source[:, None], axis=1)[:, 0]
    return np.where(sign > 0, source, source + 32)


# Each G_m has one entry, +-1 or +-i, in each row, so G_m M and
# conj((G_m M)^T) permute the reals of M and flip some signs: _LEFT gathers
# vec(G_m M) and _RIGHT_T conj vec((G_n M)^T), as (32, 15) columns, from the
# signed vec row of any M.
_UNITS = _freeze(np.eye(32).view(complex).reshape(32, 4, 4))
_LEFT = _freeze(_signed_gathers(_BLOCH[:, None] @ _UNITS))
_RIGHT_T = _freeze(np.ascontiguousarray(
    _signed_gathers(np.swapaxes(_BLOCH[:, None] @ _UNITS, 2, 3).conj()).T
))


def _as_rows(mats: np.ndarray) -> np.ndarray:
    """(B, 32) vec rows of a (B, 4, 4) complex stack."""
    return np.ascontiguousarray(mats, dtype=complex).reshape(-1, 16).view(np.float64)


def _signed_rows(rows: np.ndarray) -> np.ndarray:
    """(B, 64) rows [v, -v] of (B, 32) vec rows v, for the signed gathers."""
    return np.concatenate([rows, -rows], axis=1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products of two (B, n) stacks."""
    return np.einsum("bi,bi->b", a, b)


def _rowwise(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m computed one row at a time; m is one matrix or one per row.

    BLAS may round a row of a (B, n) product differently depending on the
    rows around it, and a table's solve must not depend on its stack.
    """
    return (a[:, None, :] @ m)[:, 0]


def _point(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (B, 36) setting probabilities and the (B, 4, 4) density matrices
    of a (B, 15) stack of Bloch points, from one product."""
    y = _rowwise(x, _BLOCH_MAP)
    return 0.25 + y[:, :36], ((_EYE_ROW + y[:, 36:]) / 4.0).view(complex).reshape(-1, 4, 4)


def _invert(freqs: np.ndarray) -> np.ndarray:
    """Linear inversion of (B, 36) within-group frequencies n_k / N_group(k):
    the (B, 4, 4) states of the least-squares Bloch points of p = f, exactly
    Hermitian, unit trace up to round-off, possibly not positive.

    The 15 columns of C are orthogonal, so each Bloch coordinate is read
    from its own settings alone: a correlation from its basis pair's 2x2
    table, a one-side expectation averaged over the partner's three bases.
    """
    return _point(_rowwise(freqs - 0.25, _INVERT))[1]


def _gap_bound(counts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per table, lambda_max(R) - N with R = sum_k (n_k / p_k) Pi_k.

    L = sum_k n_k log p_k is concave, and R is its gradient, so for every
    state sigma L(sigma) <= L(rho) + Tr(R sigma) - Tr(R rho), where
    Tr(R rho) = N and Tr(R sigma) <= lambda_max(R): this bounds the gap to
    the maximum (Glancy, Knill & Girard, NJP 14, 095017, 2012).  It is zero
    at the maximum and needs every counted p_k > 0; p is 1 where a setting
    counted nothing, as _solve makes it.
    """
    r = _rowwise(counts / p, _ROWS).view(complex).reshape(-1, 4, 4)
    with np.errstate(**_RAISE):
        return _lapack.eigvalsh_lo(r)[:, -1] - counts.sum(axis=1)


def _certified(counts: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Gap bounds with their round-off, a few eps N: clipped at 0, plus
    _ROUNDOFF N."""
    return np.maximum(bound, 0.0) + _ROUNDOFF * counts.sum(axis=1)


def _workspace(n: int) -> tuple[np.ndarray, ...]:
    """Scratch for _newton_system on stacks of up to n tables: the signed
    gathers _LEFT of rho^-1 and _RIGHT_T of Z / 16, the barrier term and the
    Newton matrix, 180-380 KiB each at 101 rows.  glibc gives blocks that
    size back to the kernel when freed, to be page-faulted in again, so a
    solve allocates them once, as four views of one block (as four blocks,
    some processes faulted them in at every solve), and each round writes
    into their leading rows.  Concurrent solves must not share one."""
    block, ends = np.empty(n * 1410), (0, 480 * n, 960 * n, 1185 * n, 1410 * n)
    shapes = ((15, 32), (32, 15), (15, 15), (15, 15))
    return tuple(block[a:b].reshape(n, *s) for a, b, s in zip(ends, ends[1:], shapes))


def _newton_system(rho, p, counts, mu, work, z):
    """The barrier objective's gradient and primal-dual Newton matrix at a
    (B, 4, 4) stack of positive definite states with probabilities p, which
    are 1 where a setting counted nothing, written into the leading B rows
    of the workspace ``work`` of _workspace.

    The objective is sum_k n_k log p_k + mu log det rho over the settings
    with counts, per table, in the Bloch coordinates of rho; its gradient
    is C^T (n/p) + mu Tr(rho^-1 G_m) / 4, one product of the row
    [n/p | mu vec(rho^-1) / 4] with _BLOCH_MAP.  The matrix is
    C^T diag(n/p^2) C + Re Tr(Z G_m rho^-1 G_n) / 16 for the dual estimate
    Z; with Z = mu rho^-1 it is the objective's Hessian, negated.  The Z
    term is the real dot product of vec(G_m rho^-1) with conj
    vec((G_n Z)^T) / 16, for all m and n one (15, 32) @ (32, 15) product
    per table of the signed gathers _LEFT of rho^-1 and _RIGHT_T of
    Z / 16.  rho^-1 = W^H W with W = L^-1 for rho = L L^H; W and Lz^-1 for
    Z = Lz Lz^H whiten the step.  The gathers land C-contiguous in the
    workspace, so each table's product is one BLAS call (an indexed gather
    puts the stack axis innermost, and the product then bypasses BLAS).
    Returns (gradient, matrix, rho^-1, the (2B, 4, 4) stack of W over
    Lz^-1); the matrix is a view of the workspace.
    """
    n = len(rho)
    left, right, dual, hess = (a[:n] for a in work)
    whiten = _lapack.inv(_lapack.cholesky_lo(np.concatenate([rho, z])))
    w = whiten[:n]
    rho_inv = np.swapaxes(w.conj(), 1, 2) @ w
    v = _as_rows(rho_inv)
    grad = _rowwise(np.concatenate([counts / p, mu[:, None] / 4.0 * v], axis=1), _BLOCH_MAP_T)
    # the tables hold only valid indices; mode="raise" would gather into a
    # temporary copy of out first
    np.take(_signed_rows(v), _LEFT, axis=1, out=left, mode="clip")
    np.take(_signed_rows(_as_rows(z / 16.0)), _RIGHT_T, axis=1, out=right, mode="clip")
    np.matmul(left, right, out=dual)
    np.matmul((counts / p**2)[:, None, :], _C_OUTER, out=hess.reshape(n, 1, 225))
    hess += dual
    return grad, hess, rho_inv, whiten


def _newton_step(x, p, rho, z, counts, mu, work):
    """One primal-dual Newton step towards the barrier optimum at weight mu,
    from points x with probabilities p (1 where a setting counted nothing),
    states rho and duals Z, with the Newton system built in the workspace
    ``work``.

    The Newton system linearizes the optimality conditions
    C^T (n/p) + A*(Z) = 0 and Z rho = mu I (the HKM direction): the step dx
    solves _newton_system at weight mu and Z, so it ascends that weight's
    barrier objective, and Z moves by
    dZ = mu rho^-1 - Z - (Z drho rho^-1 + its adjoint) / 2.  Each starts at
    full length, or at _TO_BOUNDARY (_TO_BOUNDARY_DUAL) of the way to where
    rho (Z) would turn singular if that is shorter, so no eigenvalue of rho
    shrinks more than tenfold in a step, nor one of Z more than a
    hundredfold.  The rho step must gain at least _ARMIJO of the gain the
    quadratic model predicts, or it is shortened by halving; along it the
    gain is exact and cheap, sum_k n_k log(1 + t dp_k / p_k) +
    mu sum_i log(1 + t e_i) with e the eigenvalues of W drho W^H.  Returns
    the new points and duals and the two step lengths (0 where the point
    is stuck: singular, or NaN from a LAPACK call that failed on its row).
    """
    n = len(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        grad, hess, rho_inv, whiten = _newton_system(rho, p, counts, mu, work, z)
        dx = _lapack.solve(hess, grad[:, :, None])[:, :, 0]
        decrement = _dot(grad, dx)
        # a point whose rho or Z round-off has made singular stays where it is
        stuck = ~(decrement > 0.0) | np.isnan(whiten[n:, 0, 0])
        if stuck.any():
            dx[stuck] = 0.0
            whiten.reshape(2, n, 4, 4)[:, stuck] = 0.0
        dy = _rowwise(dx, _BLOCH_MAP)
        dq = np.where(counts > 0, dy[:, :36] / p, 0.0)
        d_rho = (dy[:, 36:] / 4.0).view(complex).reshape(-1, 4, 4)
        z_rho = z @ d_rho @ rho_inv
        dz = mu[:, None, None] * rho_inv - z - (z_rho + np.swapaxes(z_rho.conj(), 1, 2)) / 2
        if stuck.any():
            dz[stuck] = 0.0
        # the eigenvalues of both steps, whitened, in one call
        e = _lapack.eigvalsh_lo(
            whiten @ np.concatenate([d_rho, dz]) @ np.swapaxes(whiten.conj(), 1, 2)
        )
    stuck |= np.isnan(e[:, 0]).reshape(2, n).any(axis=0)
    t, t_dual = np.minimum(1.0, _SHARES / np.maximum(-e[:, 0].reshape(2, n), 1e-300))
    e = e[:n]
    # most steps pass at once; the others try _HALVES of it all at once and
    # take the longest that passes, or stay where they are this round
    retry = np.flatnonzero(~_passes(t, dq, e, counts, mu, decrement))
    if retry.size:
        ts = t[retry, None] * _HALVES
        ok = _passes(
            ts, dq[retry, None], e[retry, None], counts[retry, None], mu[retry, None],
            decrement[retry, None],
        )
        t[retry] = np.where(ok.any(axis=1), ts[np.arange(retry.size), ok.argmax(axis=1)], 0.0)
    t[stuck] = t_dual[stuck] = 0.0
    z = z + t_dual[:, None, None] * dz
    return x + t[:, None] * dx, (z + np.swapaxes(z.conj(), 1, 2)) / 2, t, t_dual


def _passes(t, dq, e, counts, mu, decrement):
    """Whether steps of lengths t gain at least _ARMIJO of what the quadratic
    model predicts, from the exact gain along the step; t is (B,), or
    (B, J) with the other arguments given a second axis of length 1."""
    gain = (np.log1p(t[..., None] * dq) * counts).sum(axis=-1)
    gain += mu * np.log1p(t[..., None] * e).sum(axis=-1)
    return gain >= _ARMIJO * t * decrement


def _solve(counts: np.ndarray, start: np.ndarray, least: np.ndarray):
    """Maximize the likelihood of a (B, 36) stack of count tables at once.

    Each table runs its own primal-dual interior-point method from its
    physical start in the (B, 4, 4) stack, as reconstruct describes.  The
    starts are projected estimates of their tables, as of linear inversion,
    with ``least`` the least eigenvalues the projection gave them, and a
    start whose least eigenvalue exceeds _INSIDE begins at
    itself, on the central path at duality measure _MU_INSIDE; any other
    start is blended with _START_BLEND of I/4 and begins at duality measure
    max(_MU_START, _MU_PER_GAP x its gap bound).  The rule is per table.  A
    round bounds the gap to the maximum of every running table whose
    duality measure is small with one batched eigvalsh, retires the tables
    that are certified or have run _MLE_MAXITER rounds, and makes one
    Newton step on the rest, in the one _workspace the solve allocates.
    Returns the Hermitian states, the gap bounds (with their round-off, as
    _certified gives them) and the round counts, in input order; a table
    has converged when its bound is at most _MLE_TOL.
    """
    n_tables = len(counts)
    # probabilities are taken as 1 where a setting counted nothing, so that
    # n/p and log p need no other guard
    p_start = np.where(counts > 0, _rowwise(_as_rows(start), _ROWS.T), 1.0)
    if not (p_start > 0.0).all():
        raise ValueError("the start gives a setting with counts zero probability")
    loglik_start = _dot(counts, np.log(p_start))
    bound_start = _gap_bound(counts, p_start)
    rho_out = np.array(start, dtype=complex)
    bound_out = _certified(counts, bound_start)
    certified_start = bound_out.copy()
    n_iter_out = np.zeros(n_tables, dtype=int)

    # a start that already certifies comes back unchanged
    live = np.flatnonzero(certified_start > _MLE_TOL)
    counts = counts[live]
    x = _rowwise(_as_rows(start[live]), _BLOCH_ROWS.T)
    inside = least[live] > _INSIDE
    x = np.where(inside[:, None], x, (1.0 - _START_BLEND) * x)
    # start on the central path; a blended start at a duality measure that
    # grows with its gap for tables of millions of counts
    mu_start = np.where(
        inside, _MU_INSIDE, np.maximum(_MU_START, _MU_PER_GAP * bound_start[live])
    )
    with np.errstate(**_RAISE):
        z = mu_start[:, None, None] * _lapack.inv(_point(x)[1])
    z = (z + np.swapaxes(z.conj(), 1, 2)) / 2
    sigma = np.full(live.size, _TARGETS[1])
    work = _workspace(live.size)
    rounds = 0
    while live.size:
        p, rho = _point(x)
        p = np.where(counts > 0, p, 1.0)
        mu = np.einsum("bij,bji->b", z, rho).real / 4.0  # the duality measure
        # near the central path the bound is about 3 mu, so it can certify
        # only once mu is small
        bound = np.full(live.size, np.inf)
        check = (mu <= _BOUND_MU) | (rounds >= _MLE_MAXITER)
        if check.any():
            checked = counts[check]
            bound[check] = _certified(checked, _gap_bound(checked, p[check]))
        done = (bound <= _MLE_TOL) | (rounds >= _MLE_MAXITER)
        if done.any():
            idx = live[done]
            loglik = _dot(counts[done], np.log(p[done]))
            # never return less likelihood than the start had; the start is
            # then at least as close to the maximum as this bound says
            better = loglik >= loglik_start[idx]
            rho_out[idx[better]] = rho[done][better]
            bound_out[idx] = np.where(
                better, bound[done], np.minimum(bound[done], certified_start[idx])
            )
            n_iter_out[idx] = rounds
            keep = ~done
            live, counts, x, p, rho, z = (
                live[keep], counts[keep], x[keep], p[keep], rho[keep], z[keep]
            )
            mu, sigma = mu[keep], sigma[keep]
            if not live.size:
                break
        x, z, t, t_dual = _newton_step(x, p, rho, z, counts, sigma * mu, work)
        # short steps mean the point strayed from the central path
        sigma = _TARGETS[np.searchsorted(_STEP_EDGES, np.minimum(t, t_dual), side="right")]
        rounds += 1
    return (rho_out + rho_out.conj().transpose(0, 2, 1)) / 2, bound_out, n_iter_out


def reconstruct(records) -> TomographyRun:
    """Linear inversion plus maximum-likelihood refinement on one count table.

    ``records`` may be any iterable of count records; it is read once.  This
    is the bootstrap's stacked solver, _solve, on a stack of one table, whose
    method the module docstring describes, so the bootstrap's row 0 is this
    estimate, bit for bit.  The solve starts from the physical projection of
    linear inversion, taken as it is if its least eigenvalue exceeds 1e-3 and
    else blended with 1% of I/4.  It stops once the concavity bound
    lambda_max(R) - N, with R = sum_k (n_k/p_k) Pi_k (Glancy, Knill & Girard,
    NJP 14, 095017, 2012), is at most _MLE_TOL, or after _MLE_MAXITER rounds.
    The bound counts its own round-off, 16 eps N for a table of N counts, so
    a table of more than about 3e8 counts cannot converge.  It is reported as
    loglik_gap_bound, and converged means it is at most _MLE_TOL.  A start
    that already certifies, as for exact count tables, comes back unchanged,
    and the result never has less likelihood than the start.
    """
    counts, totals = _count_table(records)
    linear = _invert(counts[None] / totals)
    rho, bound, n_iter = _solve(counts[None], *_clip_to_states(linear))
    return TomographyRun(
        rho_linear=DensityMatrix(linear[0], require_positive=False),
        rho_mle=DensityMatrix(rho[0]),
        loglik=_loglik(rho[0], counts, totals),
        n_iter=int(n_iter[0]),
        loglik_gap_bound=float(bound[0]),
    )


def fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """Overlap <psi|rho|psi> with a pure target psi."""
    return float(_fidelities(rho.matrix[None], target.amplitudes)[0])


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum."""
    return float(_concurrences(rho.matrix[None])[0])


def linear_entropy(rho: DensityMatrix) -> float:
    """S_L = (4/3)(1 - Tr rho^2), 0 for pure states, 1 for I/4."""
    return float(_linear_entropies(rho.matrix[None])[0])


# The metrics on (B, 4, 4) stacks of two-qubit states, one value per state.
_YY = _freeze(np.kron(_SIGMAS[2], _SIGMAS[2]))


def _fidelities(rhos: np.ndarray, amp: np.ndarray) -> np.ndarray:
    return np.einsum("i,bij,j->b", amp.conj(), rhos, amp).real


def _concurrences(rhos: np.ndarray) -> np.ndarray:
    # the square roots of the eigenvalues of rho Y rho* Y are the singular
    # values of A^T Y A for rho = A A^H: no non-Hermitian eigenproblem, so
    # round-off in rho moves them by round-off only
    with np.errstate(**_RAISE):
        w, v = _lapack.eigh_lo(rhos)
    a = v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    lam = np.linalg.svd(np.swapaxes(a, 1, 2) @ _YY @ a, compute_uv=False)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def _linear_entropies(rhos: np.ndarray) -> np.ndarray:
    return (4.0 / 3.0) * (1.0 - np.einsum("bij,bji->b", rhos, rhos).real)


def metric_uncertainties(
    records, n_resamples: int = MIN_RESAMPLES, seed: int = 0
) -> StateMetrics:
    """Parametric bootstrap of (F, C, S_L) around an observed count table,
    with the hybrid singlet as the fidelity target.

    Each resample draws Poisson counts with the observed values as means:
    resample r is row r of one (n_resamples, 36) draw from stream (3,) off
    the seed, in canonical setting order, so it depends neither on
    n_resamples nor on the order of the records.  The observed table and
    its resamples are reconstructed as reconstruct would, in one stacked
    solve: the observed table is row 0, and since rows solve independently
    its metrics are exactly those of reconstruct's estimate, the point
    values.  The sample standard deviations of the metrics over resamples
    are the one-sigma uncertainties.  A resample with an empty basis pair
    is refused for lack of data and counts as failed; more than 10% failed
    raises RuntimeError, and the result reports how many failed, and how
    many of the solved resamples stopped unconverged.  ``n_resamples`` is
    an integer, as _check_int takes it, from MIN_RESAMPLES to MAX_RESAMPLES.
    """
    n_resamples = _check_int("n_resamples", n_resamples, MIN_RESAMPLES, MAX_RESAMPLES)
    psi = hybrid_singlet_ket()
    observed, observed_totals = _count_table(records)
    counts = _stream(seed, (3,)).poisson(observed, (n_resamples, len(observed))).astype(float)
    gtot = counts @ _GROUP_SUM
    refused = gtot.min(axis=1) <= 0
    failures = int(refused.sum())
    if failures > 0.1 * n_resamples:
        raise RuntimeError(
            f"{failures}/{n_resamples} bootstrap resamples failed"
        )
    counts = np.concatenate([observed[None], counts[~refused]])
    totals = np.concatenate([observed_totals[None], gtot[~refused][:, _GROUP]])
    rhos, bounds, _ = _solve(counts, *_clip_to_states(_invert(counts / totals)))
    # row 0 gives the point values, the resamples the sigmas
    metrics = np.column_stack([
        _fidelities(rhos, psi.amplitudes),
        _concurrences(rhos),
        _linear_entropies(rhos),
    ])
    sig = metrics[1:].std(axis=0, ddof=1)
    return StateMetrics(
        fidelity=float(metrics[0, 0]),
        concurrence=float(metrics[0, 1]),
        linear_entropy=float(metrics[0, 2]),
        fidelity_sigma=float(sig[0]),
        concurrence_sigma=float(sig[1]),
        linear_entropy_sigma=float(sig[2]),
        failed_resamples=failures,
        unconverged_resamples=int((bounds[1:] > _MLE_TOL).sum()),
    )
