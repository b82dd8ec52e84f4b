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
no other module does.  The seed and each stream path element pass
states._check_int, the integer one of the package's two number guards;
rates and durations pass the real one, states._check_real.

Settings: an experiment is a tuple of (alice, bob) analyzer label pairs
measured for one duration.  One cache, _compiled, builds its settings once
per pairs and duration, with their read-only (n, 4, 4) stack of Pi_A x Pi_B
from _operators, built once per pairs, for tomography's 36 canonical pairs,
each fringe scan's theta= tags against Bob's label, and CHSH's 16 outcome
pairs alike.  A tag's angle is a plain number, by the rule a count CSV's
numeric cells follow (_plain).  _count_records is the one counting path:
a setting's Born probability is p = Re(vec(Pi) . vec(conj(rho))), its
operator row against the state's vec in the tomography likelihood's form,
computed one row at a time so that it does not depend on the other
settings of its experiment.

Fringe convention: the scan variable theta is 4x the half-waveplate
fast-axis angle, so Alice's analysis state is (cos(theta/2), sin(theta/2))
and ideal fringes follow N0 (1 + V cos(theta - phi0)) with period 2 pi.
The phase offset phi0 depends on Bob's projector (0 for |+2>, -pi/2 for
|h>) and is reported by the fit rather than absorbed.  fringe_scan returns
a scan's count records, and fit_fringe reads each angle back from its tag,
as every analysis reads a table of CountRecords; a scan's (theta, counts)
points are kept only in those records, and so in its count file.
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
    _check_int,
    _check_real,
    _freeze,
    _real,
)

DEFAULT_RATE_CPS = 100.0
DEFAULT_DURATION_S = 15.0
# the fewest points a fringe fit takes: one more than its three parameters
MIN_FRINGE_POINTS = 4

_THETA_PREFIX = "theta="
_CSV_COLUMNS = ("setting_label", "alice", "bob", "duration_s", "counts", "seed")
# the largest count float64 holds exactly, with every integer below it
_MAX_COUNT = 2**53


class FitFailureError(ValueError):
    """Fringe fit cannot be performed on the given scan records."""


def _tag(theta: float) -> str:
    """The scan tag of an angle, whose 17 digits read back to the float."""
    return f"{_THETA_PREFIX}{theta:.17g}"


@functools.lru_cache(maxsize=1024)
def _theta(tag: str) -> float:
    """The angle of a scan tag, whose number is a plain one.  Parsed once
    per tag and shared."""
    return float(_plain(tag[len(_THETA_PREFIX):], "scan angle"))


def _plain(text: str, name: str) -> str:
    """A number as this package writes it, or ValueError for what Python's
    literals accept but it never writes: a '_', a leading '+', surrounding
    whitespace or a non-ASCII character."""
    if "_" in text or text.startswith("+") or text != text.strip() or not text.isascii():
        raise ValueError(f"{name} {text[:20]!r} is not a plain number")
    return text


@functools.lru_cache(maxsize=1024)
def _projector(label: str, degree: str) -> np.ndarray:
    """The read-only projector of an analyzer: a basis-state label of one
    degree of freedom, or a "theta=<x>" scan tag with finite x, whose state
    is (cos(x/2), sin(x/2)) in that degree's basis, (H, V) or (+2, -2).
    Built once per label and shared."""
    if label.startswith(_THETA_PREFIX):
        theta = _theta(label)
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
    their states, measured for ``duration_s`` seconds (held as a float).

    ``alice`` is a polarization label (H, V, +, -, L, R), ``bob`` an OAM
    label (+2, -2, h, v, a, d), and either may be a "theta=<x>" scan tag.
    The analyzers' projectors and the "alice|bob" table label follow from
    the names.
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
        duration_s = _check_real("duration", self.duration_s, math.ulp(0.0))
        object.__setattr__(self, "duration_s", duration_s)

    @property
    def label(self) -> str:
        return f"{self.alice}|{self.bob}"


@dataclass(frozen=True)
class CountRecord:
    """Counts for one setting; ``seed`` is the seed of the run that drew them,
    which rerunning its experiment with reproduces them.

    ``counts`` is an integer Poisson draw, or a float holding the exact
    expectation for noise-free records: an int or a float, or a numpy one
    that Python's holds, which is stored.  Counts of another type, a bool or
    a long double say, raise TypeError; counts that are not finite, are
    negative or exceed 2**53 (past which float64 cannot hold every count
    exactly) ValueError.  The seed passes _check_int, as every seed does,
    and the int it returns is stored.  So a record's counts are an int or a
    float, and every record the constructor accepts, the CSV writes and
    reads back.
    """

    setting: MeasurementSetting
    counts: int | float
    seed: int

    def __post_init__(self):
        c, seed = self.counts, self.seed
        if type(c) is not int and type(c) is not float:
            # a numpy number is checked as the Python one it holds: numpy
            # would cast 2**53 to a narrow type such as float16, past its range
            if isinstance(c, (np.integer, np.floating)):
                c = c.item()
            if type(c) is not int and type(c) is not float:
                raise TypeError(
                    f"counts must be an int or a float, got {type(self.counts).__name__}"
                )
            object.__setattr__(self, "counts", c)
        # a built-in int is finite
        if type(c) is float and not math.isfinite(c):
            raise ValueError(f"counts must be finite, got {c}")
        if c < 0:
            raise ValueError("counts must be non-negative")
        # the message prints the value as a float, which even an integer past
        # Python's 4,300-digit string limit can be
        if c > _MAX_COUNT:
            raise ValueError(
                f"counts above 2**53 are not exact in float64, got {_real('counts', c):.6g}"
            )
        # a non-negative built-in int, the usual seed, is one _check_int
        # passes unchanged; only another pays for the call
        if type(seed) is not int or seed < 0:
            object.__setattr__(self, "seed", _check_int("seed", seed))


def _stream(seed: int, path: tuple[int, ...], exact: bool = False):
    """The one generator an experiment draws all its counts from, in setting
    order: ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))``,
    or None for exact records.  The seed and each path element pass
    _check_int in either case, so that SeedSequence never takes None as a
    request for fresh OS entropy, or a bool as 0 or 1.
    """
    key = tuple(_check_int("stream path element", k) for k in path)
    seq = np.random.SeedSequence(_check_int("seed", seed), spawn_key=key)
    return None if exact else np.random.default_rng(seq)


@functools.lru_cache(maxsize=16)
def _operators(pairs: tuple[tuple[str, str], ...]) -> np.ndarray:
    """The read-only (n, 4, 4) stack of Pi_A x Pi_B of (alice, bob) label
    pairs, built once per pairs whatever the duration; tomography's model
    reads its 36 canonical pairs' stack here too."""
    return _freeze(np.stack([
        np.kron(_projector(a, POLARIZATION), _projector(b, OAM_O2)) for a, b in pairs
    ]))


@functools.lru_cache(maxsize=16)
def _compiled(
    pairs: tuple[tuple[str, str], ...], duration_s: float
) -> tuple[tuple[MeasurementSetting, ...], np.ndarray]:
    """An experiment's settings, one per (alice, bob) label pair and each
    measured for duration_s, with their _operators stack.  Built once per
    pairs and duration; everything returned is shared by every caller, so
    read-only."""
    settings = tuple(MeasurementSetting(a, b, duration_s) for a, b in pairs)
    return settings, _operators(pairs)


def _count_records(
    rho: DensityMatrix, pairs, duration_s: float, rate_cps: float, seed: int,
    path: tuple[int, ...], exact: bool,
) -> list[CountRecord]:
    """One CountRecord per (alice, bob) label pair, measured for duration_s:
    the one counting path, which every simulated count goes through.

    A setting's mean is its Born probability x rate x duration, with
    p_k = Re(vec(Pi_k) . vec(conj(rho))) = Tr[rho Pi_k] from its operator
    row in the likelihood's form, the dot product of vec(Pi_k) and vec(rho)
    read as 32 real floats each.  The counts are one Poisson draw, in pair
    order, from the experiment's stream ``path`` off ``seed``, or with
    ``exact`` the unrounded means; each record carries the run's seed.  A
    state that is not a DensityMatrix, and an ``exact`` that is not a bool,
    Python's or numpy's, raise TypeError; then the duration, before the
    cache, the seed and the rate are checked in that order, then the
    probabilities; a mean above 2**53, the most a CountRecord holds, raises
    ValueError in either mode, and so does an exact table whose largest
    mean is positive but subnormal (below np.finfo(float).tiny).
    """
    if not isinstance(rho, DensityMatrix):
        raise TypeError(f"state must be a DensityMatrix, got {type(rho).__name__}")
    if not isinstance(exact, (bool, np.bool_)):
        raise TypeError(f"exact must be a bool, got {type(exact).__name__}")
    duration_s = _check_real("duration", duration_s, math.ulp(0.0))
    settings, ops = _compiled(pairs, duration_s)
    rng = _stream(seed, path, exact)
    rate_cps = _check_real("rate", rate_cps, 0.0)
    # one dot product per row, so that a setting's p has the same bits in
    # every experiment that measures it
    rows = ops.reshape(-1, 1, 16).view(np.float64)
    probs = (rows @ rho.matrix.reshape(16).view(np.float64))[:, 0]
    outside = (probs < -ATOL) | (probs > 1.0 + ATOL)
    if outside.any():
        raise ValueError(f"probability {float(probs[outside.argmax()])} outside [0, 1]")
    # Python floats, whose product past float64's range is inf without numpy's warning
    means = [max(p, 0.0) * rate_cps * duration_s for p in probs.tolist()]
    # refused before numpy's Poisson draw, which would refuse in its own words
    top = max(means)
    if top > _MAX_COUNT:
        raise ValueError(f"mean counts above 2**53 are not exact in float64, got {top:.6g}")
    # subnormal means carry too few bits for the ratios an exact table is read by
    if rng is None and 0.0 < top < np.finfo(float).tiny:
        raise ValueError(f"exact mean counts are subnormal in float64, largest {top:.6g}")
    counts = means if rng is None else rng.poisson(means).tolist()
    return [CountRecord(s, c, seed) for s, c in zip(settings, counts)]


def fringe_scan(
    rho: DensityMatrix,
    bob: str,
    theta_grid,
    rate_cps: float = DEFAULT_RATE_CPS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
    scan_index: int = 0,
    exact: bool = False,
) -> list[CountRecord]:
    """Scan Alice's analyzer over theta against a fixed Bob analyzer: one
    record per grid angle, whose Alice label is the angle's tag.

    The points draw, in grid order, from the scan's stream (2, scan_index)
    off the global seed, so a point's count depends on the grid before it.
    ``theta_grid`` is a non-empty one-dimensional grid of finite angles.
    ``bob`` is an OAM label, such as "+2" or "h", or a
    "theta=<x>" tag.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.size == 0:
        raise ValueError("theta grid is empty")
    if not isinstance(bob, str):  # refused by the setting, before the cache hashes it
        MeasurementSetting("H", bob)
    if thetas.ndim != 1:
        raise ValueError(f"theta grid must be one-dimensional, got shape {thetas.shape}")
    if not np.isfinite(thetas).all():
        raise ValueError("theta grid must be finite")
    pairs = _scan_pairs(thetas.tobytes(), bob)
    return _count_records(rho, pairs, duration_s, rate_cps, seed, (2, scan_index), exact)


@functools.lru_cache(maxsize=16)
def _scan_pairs(grid: bytes, bob: str) -> tuple[tuple[str, str], ...]:
    """The (theta tag, bob) label pairs of a scan over a float64 grid, given
    as its bytes: formatted once per grid and Bob label.  Keyed by the bytes,
    not the values, since 0.0 and -0.0 tag differently."""
    return tuple((_tag(t), bob) for t in np.frombuffer(grid).tolist())


def _table(records, error: type[ValueError] | None) -> list[CountRecord]:
    """A count table, read once, as a list: the one reader of every table.
    An entry that is not a CountRecord raises TypeError; with an ``error``
    type, a table whose settings' durations differ raises it, since its
    counts are then not on one scale."""
    table = list(records)
    for r in table:
        if not isinstance(r, CountRecord):
            raise TypeError(f"a count table holds CountRecords, got {type(r).__name__}")
    durations = {r.setting.duration_s for r in table}
    if error is not None and len(durations) > 1:
        raise error(f"settings measured for different durations: {sorted(durations)} s")
    return table


def fit_fringe(records) -> tuple[float, float, float]:
    """Least-squares fit of N(theta) = N0 (1 + V cos(theta - phi0)) to one
    scan's records, as fringe_scan returns them: each point's theta is the
    angle of its Alice tag, its counts a float.

    Linear in (N0, N0 V cos phi0, N0 V sin phi0); returns (N0, V, phi0)
    with V clamped to [0, 1].  An entry that is not a CountRecord raises
    TypeError.  Raises FitFailureError, in this order, for a table of more
    than one duration, a record whose Alice analyzer is not a tag, more
    than one Bob analyzer, fewer than MIN_FRINGE_POINTS points, angles that
    leave the three basis functions dependent, and a fitted N0 that is not
    positive.
    """
    thetas, counts, bobs = [], [], set()
    for r in _table(records, FitFailureError):
        s = r.setting
        if not s.alice.startswith(_THETA_PREFIX):
            raise FitFailureError(f"setting {s.label!r} is not a fringe scan point")
        thetas.append(_theta(s.alice))
        counts.append(float(r.counts))
        bobs.add(s.bob)
    if len(bobs) > 1:
        raise FitFailureError(f"a fringe scan has one Bob analyzer, got {sorted(bobs)}")
    if len(thetas) < MIN_FRINGE_POINTS:
        raise FitFailureError(f"need at least {MIN_FRINGE_POINTS} points, got {len(thetas)}")
    thetas = np.array(thetas)
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


def write_counts_csv(records, path) -> None:
    """Write count records as CSV: setting_label, alice, bob, duration_s, counts, seed.

    Counts are written with 17 significant digits, which hold every count
    up to 2**53 exactly; a float count gets ".0" where those are all digits,
    so that it reads back a float: 750.0 is written "750.0".  An entry that
    is not a CountRecord raises TypeError before the file is opened.
    """
    records = _table(records, None)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        for r in records:
            s, c = r.setting, f"{r.counts:.17g}"
            if type(r.counts) is float and c.lstrip("-").isdigit():
                c += ".0"  # -0.0 too
            w.writerow([s.label, s.alice, s.bob, f"{s.duration_s:.17g}", c, r.seed])


def read_counts_csv(path) -> list[CountRecord]:
    """Read records written by write_counts_csv.

    The header names the six columns, each once.  Each row's setting_label
    must be its "alice|bob" pair, and its seed non-negative.  A counts cell
    that is an integer literal comes back as an int, read exactly, so one
    past 2**53 is refused as CountRecord refuses it; any other as a float
    (an exact-mode expectation), and a non-finite one raises ValueError.
    So does a row without 6 cells, and a numeric cell with what Python's
    literals accept but write_counts_csv never writes: a '_', a leading '+'
    or surrounding whitespace, and a line the csv module cannot parse, such
    as one with a cell past its field size limit.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            # each column once: a repeated one's last cell would replace the first
            if reader.fieldnames is None or sorted(reader.fieldnames) != sorted(_CSV_COLUMNS):
                raise ValueError(f"unexpected CSV columns: {reader.fieldnames}")
            for row in reader:
                if None in row or None in row.values():  # more cells than columns, or fewer
                    raise ValueError(f"CSV line {reader.line_num} does not have 6 cells")
                for column in ("duration_s", "counts", "seed"):
                    _plain(row[column], f"{column} cell")
                s = MeasurementSetting(row["alice"], row["bob"], float(row["duration_s"]))
                if row["setting_label"] != s.label:
                    raise ValueError(
                        f"setting label {row['setting_label']!r} does not name {s.label!r}"
                    )
                try:
                    counts = int(row["counts"])
                except ValueError:
                    counts = float(row["counts"])
                # CountRecord refuses a negative seed
                records.append(CountRecord(s, counts, int(row["seed"])))
        except csv.Error as err:  # such as a cell past the csv module's field size limit
            # the DictReader's line_num stops at the last row it returned
            raise ValueError(f"CSV line {reader.reader.line_num}: {err}") from None
    return records
