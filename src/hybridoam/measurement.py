"""Born-rule probabilities, Poisson coincidence counting, fringe scans.

Counting model: the detected pair rate is a single input constant (default
100 cps); each setting's mean is rate x joint probability x duration, so the
four outcomes of a complete local basis pair sum to the total rate.  Singles,
dark counts and accidentals are out of scope.

RNG contract: each experiment draws all its counts, in canonical setting
order, from one numpy stream, default_rng(SeedSequence(global seed,
spawn_key=path)): tomography (0,), CHSH (1,), fringe scan k (2, k) and the
bootstrap (3,).  Experiments are independent of each other and of execution
order, and no stream state is shared; this module builds the streams, and
no other module does.

Fringe convention: the scan variable theta is 4x the half-waveplate
fast-axis angle, so Alice's analysis state is (cos(theta/2), sin(theta/2))
and ideal fringes follow N0 (1 + V cos(theta - phi0)) with period 2 pi.
The phase offset phi0 depends on Bob's projector (0 for |+2>, -pi/2 for
|h>) and is reported by the fit rather than absorbed.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .states import (
    ATOL,
    OAM_O2,
    POLARIZATION,
    DensityMatrix,
    InvalidLabelError,
    _DEGREE_KETS,
    _freeze,
)

DEFAULT_RATE_CPS = 100.0
DEFAULT_DURATION_S = 15.0

_THETA_PREFIX = "theta="
# the largest count float64 holds exactly, with every integer below it
_MAX_COUNT = 2**53


class FitFailureError(ValueError):
    """Fringe fit cannot be performed on the given points."""


@functools.lru_cache(maxsize=1024)
def _projector(label: str, degree: str) -> np.ndarray:
    """The read-only projector of an analyzer: a basis-state label of one
    degree of freedom or, for the polarization analyzer only, a
    "theta=<x>" scan tag with finite x, whose state is
    (cos(x/2), sin(x/2)).  Built once per label and shared."""
    if degree == POLARIZATION and label.startswith(_THETA_PREFIX):
        theta = float(label[len(_THETA_PREFIX):])
        if not math.isfinite(theta):
            raise ValueError(f"scan angle must be finite, got {label!r}")
        ket = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
    elif label in _DEGREE_KETS[degree]:
        ket = _DEGREE_KETS[degree][label]
    else:
        raise InvalidLabelError(f"label {label!r} is not a {degree} state")
    return _freeze(np.outer(ket, ket.conj()))


@dataclass(frozen=True)
class MeasurementSetting:
    """One coincidence setting: rank-1 analyzers on both sides, named by
    their states, measured for ``duration_s`` seconds.

    ``alice`` is a polarization label (H, V, +, -, L, R) or a "theta=<x>"
    scan tag, ``bob`` an OAM label (+2, -2, h, v, a, d).  The projectors
    and the "alice|bob" table label follow from the names.
    """

    alice: str
    bob: str
    duration_s: float = DEFAULT_DURATION_S

    def __post_init__(self):
        for label, degree in ((self.alice, POLARIZATION), (self.bob, OAM_O2)):
            if not isinstance(label, str):
                raise TypeError(
                    f"{degree} analyzer must be a label, one of"
                    f" {', '.join(_DEGREE_KETS[degree])}, got {type(label).__name__}"
                )
            _projector(label, degree)
        if isinstance(self.duration_s, (bool, np.bool_)):
            raise TypeError("duration must be a number, got a bool")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration_s}")

    @property
    def label(self) -> str:
        return f"{self.alice}|{self.bob}"

    @property
    def alice_proj(self) -> np.ndarray:
        return _projector(self.alice, POLARIZATION)

    @property
    def bob_proj(self) -> np.ndarray:
        return _projector(self.bob, OAM_O2)


@dataclass(frozen=True)
class CountRecord:
    """Counts for one setting; ``seed`` is the seed of the run that drew them,
    which rerunning its experiment with reproduces them.

    ``counts`` is an integer Poisson draw, or a float holding the exact
    expectation for noise-free records; counts that are not finite, are
    negative or exceed 2**53 (past which float64 cannot hold every count
    exactly) raise ValueError.  expected_rate_cps is the per-setting mean
    rate; it is None for drawn records read back from CSV, which does not
    store it.
    """

    setting: MeasurementSetting
    counts: int | float
    expected_rate_cps: float | None
    seed: int

    def __post_init__(self):
        c = self.counts
        # np.isfinite's verdict without its call on the two common types; a
        # built-in int is finite (numpy refuses one past uint64 with
        # TypeError, the bound below with ValueError)
        if type(c) is float:
            finite = math.isfinite(c)
        else:
            finite = type(c) is int or np.isfinite(c)
        if not finite:
            raise ValueError(f"counts must be finite, got {c}")
        if c < 0:
            raise ValueError("counts must be non-negative")
        if c > _MAX_COUNT:
            raise ValueError(f"counts above 2**53 are not exact in float64, got {c}")
        if self.expected_rate_cps is not None and not self.expected_rate_cps >= 0:
            raise ValueError("expected rate must be non-negative")


def _stream(seed: int, path: tuple[int, ...], exact: bool = False):
    """The one generator an experiment draws all its counts from, in setting
    order: ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))``,
    or None for exact records.  The seed and path are checked as numpy
    checks them in either case: a negative seed or path element raises
    ValueError, a non-integer one TypeError.  A bool, which numpy would
    read as 0 or 1, is refused with TypeError too.
    """
    # SeedSequence would take None as a request for fresh OS entropy
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if any(isinstance(k, bool) for k in path):
        raise TypeError("a stream path element must be an integer, got a bool")
    seq = np.random.SeedSequence(seed, spawn_key=path)
    return None if exact else np.random.default_rng(seq)


def _probabilities(rho: DensityMatrix, ops: np.ndarray) -> list[float]:
    """Born probabilities Tr[rho Pi_k] for an (n, 4, 4) operator stack."""
    if rho.dim != 4 or len(rho.basis) != 2:
        raise ValueError("joint_probability expects a two-qubit state")
    # one zgemm and one diagonal sum per operator, as for a single setting
    probs = np.trace(rho.matrix @ ops, axis1=1, axis2=2).real.tolist()
    for p in probs:
        if p < -ATOL or p > 1.0 + ATOL:
            raise ValueError(f"probability {p} outside [0, 1]")
    return probs


def _born_counts(
    rho: DensityMatrix, ops: np.ndarray, rate_cps: float, durations, rng
) -> tuple[list[float], list]:
    """Expected rates and counts for the settings behind an operator stack.

    ``ops`` holds Pi_A x Pi_B for each setting as an (n, 4, 4) stack; setting
    k is measured for durations[k].  All n counts are one Poisson draw from
    the generator ``rng``, in stack order, or with ``rng`` None the unrounded
    expectations.  This is the one counting path: every simulated count goes
    through it.
    """
    if not 0.0 <= rate_cps < math.inf:
        raise ValueError(f"rate must be non-negative and finite, got {rate_cps}")
    rates = [max(p, 0.0) * rate_cps for p in _probabilities(rho, ops)]
    means = [r * t for r, t in zip(rates, durations)]
    if rng is None:
        return rates, means
    return rates, rng.poisson(means).tolist()


def _count_records(
    rho: DensityMatrix, settings, ops: np.ndarray, rate_cps: float, seed: int, rng
) -> list[CountRecord]:
    """One CountRecord per setting, each carrying the run's seed; ``ops`` is
    the settings' operator stack and ``rng`` the experiment's generator,
    None for exact records."""
    durations = [s.duration_s for s in settings]
    rates, counts = _born_counts(rho, ops, rate_cps, durations, rng)
    seed = int(seed)
    return [
        CountRecord(setting=s, counts=c, expected_rate_cps=r, seed=seed)
        for s, c, r in zip(settings, counts, rates)
    ]


def _operator(s: MeasurementSetting) -> np.ndarray:
    return np.kron(s.alice_proj, s.bob_proj)[None]


def joint_probability(rho: DensityMatrix, s: MeasurementSetting) -> float:
    """Born probability Tr[rho (Pi_A x Pi_B)] for a coincidence setting."""
    return _probabilities(rho, _operator(s))[0]


def expected_counts(
    rho: DensityMatrix, s: MeasurementSetting, rate_cps: float
) -> float:
    """Noise-free mean count for a setting (the Poisson parameter)."""
    return exact_counts(rho, s, rate_cps).counts


def simulate_counts(
    rho: DensityMatrix, s: MeasurementSetting, rate_cps: float, seed: int
) -> CountRecord:
    """Draw one Poisson count for a setting: ``np.random.default_rng(seed)``'s
    draw at the setting's mean."""
    return _count_records(rho, (s,), _operator(s), rate_cps, seed, _stream(seed, ()))[0]


def exact_counts(
    rho: DensityMatrix, s: MeasurementSetting, rate_cps: float, seed: int = 0
) -> CountRecord:
    """Noise-free record whose counts equal the unrounded expectation; the
    seed is checked as simulate_counts checks it."""
    return _count_records(
        rho, (s,), _operator(s), rate_cps, seed, _stream(seed, (), exact=True)
    )[0]


# typed, so that a bool duration misses the settings cached for 0 or 1 and is refused
@functools.lru_cache(maxsize=16, typed=True)
def _fringe_settings(
    bob: str, thetas: bytes, duration_s: float
) -> tuple[tuple[MeasurementSetting, ...], np.ndarray]:
    """The settings of one scan and their operator stack, built once.

    Keyed by Bob's OAM label, the bytes of the float theta grid and the
    duration; everything returned is shared by every caller, so read-only.
    """
    grid = np.frombuffer(thetas)
    if not np.isfinite(grid).all():
        raise ValueError("theta grid must be finite")
    settings = tuple(
        MeasurementSetting(f"{_THETA_PREFIX}{theta:.17g}", bob, duration_s)
        for theta in grid
    )
    ops = np.stack([np.kron(s.alice_proj, s.bob_proj) for s in settings])
    return settings, _freeze(ops)


def fringe_scan_records(
    rho: DensityMatrix,
    bob: str,
    theta_grid,
    rate_cps: float = DEFAULT_RATE_CPS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
    scan_index: int = 0,
    exact: bool = False,
) -> list[CountRecord]:
    """Scan Alice's analyzer over theta against a fixed Bob analyzer.

    The points draw, in grid order, from the scan's stream (2, scan_index)
    off the global seed, so a point's count depends on the grid before it.
    ``bob`` is an OAM label, such as "+2" or "h".
    """
    thetas = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    if thetas.size == 0:
        raise ValueError("theta grid is empty")
    if not isinstance(bob, str):  # refused by the setting, before the cache hashes it
        MeasurementSetting("H", bob)
    settings, ops = _fringe_settings(bob, thetas.tobytes(), duration_s)
    rng = _stream(seed, (2, scan_index), exact)
    return _count_records(rho, settings, ops, rate_cps, seed, rng)


def fringe_scan(
    rho: DensityMatrix,
    bob: str,
    theta_grid,
    rate_cps: float = DEFAULT_RATE_CPS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
    scan_index: int = 0,
    exact: bool = False,
) -> list[tuple[float, float]]:
    """Fringe scan returning (theta, counts) pairs; see fringe_scan_records.

    With exact=True the points carry the unrounded expectations, so a fit on
    them recovers the model parameters to solver precision.
    """
    records = fringe_scan_records(
        rho, bob, theta_grid, rate_cps, duration_s, seed, scan_index, exact
    )
    thetas = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    return [(float(t), float(r.counts)) for t, r in zip(thetas, records)]


def fit_fringe(points) -> tuple[float, float, float]:
    """Least-squares fit of N(theta) = N0 (1 + V cos(theta - phi0)).

    Linear in (N0, N0 V cos phi0, N0 V sin phi0); returns (N0, V, phi0)
    with V clamped to [0, 1].  Needs at least 4 finite points whose angles
    make the three basis functions independent.
    """
    pts = np.array([(float(t), float(c)) for t, c in points]).reshape(-1, 2)
    if len(pts) < 4:
        raise FitFailureError(f"need at least 4 points, got {len(pts)}")
    if not np.isfinite(pts).all():
        raise FitFailureError("fringe points must be finite")
    thetas, counts = pts.T
    design = np.column_stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])
    coef, _, _, singular = np.linalg.lstsq(design, counts, rcond=None)
    # the rank, as matrix_rank(design, tol=1e-9) counts it
    if (singular > 1e-9).sum() < 3:
        raise FitFailureError("theta grid is degenerate, cannot separate phases")
    n0, a1, a2 = coef
    if n0 <= 0:
        raise FitFailureError(f"fitted baseline {n0} is not positive")
    v = float(np.hypot(a1, a2) / n0)
    v = min(max(v, 0.0), 1.0)
    phi0 = float(np.arctan2(a2, a1)) if v > 0 else 0.0
    return float(n0), v, phi0


def visibility_minmax(points) -> float:
    """Max/min count visibility (max-min)/(max+min), the fit-free estimate."""
    counts = np.array([float(c) for _, c in points])
    if counts.size == 0:
        raise FitFailureError("no points")
    hi, lo = counts.max(), counts.min()
    # NaN fails both tests
    if not (0.0 <= lo and hi < math.inf):
        raise FitFailureError("fringe counts must be finite and non-negative")
    if hi + lo == 0:
        return 0.0
    return float((hi - lo) / (hi + lo))


def write_counts_csv(records, path) -> None:
    """Write count records as CSV: setting_label, alice, bob, duration_s, counts, seed.

    Integer counts serialize without a decimal point; exact-mode expectations
    keep their fractional part via repr-faithful formatting.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["setting_label", "alice", "bob", "duration_s", "counts", "seed"])
        for r in records:
            s = r.setting
            c = r.counts if isinstance(r.counts, int) else f"{r.counts:.17g}"
            w.writerow([s.label, s.alice, s.bob, f"{s.duration_s:.17g}", c, r.seed])


def read_counts_csv(path) -> list[CountRecord]:
    """Read records written by write_counts_csv.

    Each row's setting_label must be its "alice|bob" pair, and its seed
    non-negative.  Integer counts come back as int, fractional ones
    (exact-mode expectations) as float.  The per-setting expected rate is
    not stored in the CSV, so integer rows carry None and fractional rows
    recover it as counts / duration.  Integer cells are read exactly, so
    one past 2**53 is refused as CountRecord refuses it; non-finite counts
    raise ValueError.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"setting_label", "alice", "bob", "duration_s", "counts", "seed"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise ValueError(f"unexpected CSV columns: {reader.fieldnames}")
        for row in reader:
            s = MeasurementSetting(row["alice"], row["bob"], float(row["duration_s"]))
            if row["setting_label"] != s.label:
                raise ValueError(
                    f"setting label {row['setting_label']!r} does not name {s.label!r}"
                )
            seed = int(row["seed"])
            if seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed}")
            try:
                counts, rate = int(row["counts"]), None
            except ValueError:
                c = float(row["counts"])
                counts, rate = (int(c), None) if c.is_integer() else (c, c / s.duration_s)
            records.append(CountRecord(s, counts, rate, seed))
    return records
