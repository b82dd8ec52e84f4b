"""Born-rule probabilities, Poisson coincidence counting, fringe scans.

Counting model: the detected pair rate is a single input constant (default
100 cps); each setting's mean is rate x joint probability x duration, so the
four outcomes of a complete local basis pair sum to the total rate.  Singles,
dark counts and accidentals are out of scope.

RNG contract: every setting draws from its own stream derived from
(global seed, path of small integers), so results are independent of
execution order and safe to parallelize.  The streams are numpy's
(setting_stream_seed says how); this module derives them, a whole
experiment's in one pass, and no other module does.

Fringe convention: the scan variable theta is 4x the half-waveplate
fast-axis angle, so Alice's analysis state is (cos(theta/2), sin(theta/2))
and ideal fringes follow N0 (1 + V cos(theta - phi0)) with period 2 pi.
The phase offset phi0 depends on Bob's projector (0 for |+2>, -pi/2 for
|h>) and is reported by the fit rather than absorbed.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .states import ATOL, DensityMatrix, basis_ket, _freeze, _resolve_label

DEFAULT_RATE_CPS = 100.0
DEFAULT_DURATION_S = 15.0

_THETA_PREFIX = "theta="
# the largest count float64 holds exactly, with every integer below it
_MAX_COUNT = 2**53


class FitFailureError(ValueError):
    """Fringe fit cannot be performed on the given points."""


def _check_projector(p: np.ndarray, who: str) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    if p.shape != (2, 2):
        raise ValueError(f"{who} projector must be 2x2, got {p.shape}")
    if np.max(np.abs(p - p.conj().T)) > ATOL:
        raise ValueError(f"{who} projector is not Hermitian")
    if np.max(np.abs(p @ p - p)) > ATOL:
        raise ValueError(f"{who} projector is not idempotent")
    if abs(np.trace(p).real - 1.0) > ATOL:
        raise ValueError(f"{who} projector is not rank 1")
    return p


@dataclass(frozen=True)
class MeasurementSetting:
    """One coincidence setting: rank-1 analyzers on both sides.

    ``alice`` and ``bob`` are the display names used in count tables
    (basis-state labels, or "theta=<x>" for scanned analyzers).
    """

    alice_proj: np.ndarray
    bob_proj: np.ndarray
    duration_s: float
    label: str
    alice: str = ""
    bob: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "alice_proj", _check_projector(self.alice_proj, "alice")
        )
        object.__setattr__(self, "bob_proj", _check_projector(self.bob_proj, "bob"))
        if not self.duration_s > 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")


@dataclass(frozen=True)
class CountRecord:
    """Counts for one setting, reproducible from (setting, seed).

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


# numpy's SeedSequence hash, frozen by its stream policy (NEP 19);
# test_measurement pins every stream derived here to numpy itself.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _words(x) -> list[int]:
    """A non-negative integer as little-endian uint32 words, as numpy reads it.

    Checked before any cast: a negative value raises ValueError and a
    non-integer (float, string, sequence) TypeError; bools and numpy
    integers are integers.
    """
    x = operator.index(x)
    if x < 0:
        raise ValueError(f"stream seeds and paths must be non-negative, got {x}")
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words


def _word_block(columns: list[list[int]], rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Word lists as the columns of a zero-padded (k, n) uint32 block, k >= rows,
    and each column's length."""
    lengths = np.array([len(c) for c in columns], dtype=int)
    k = max(rows, lengths.max(initial=0))
    block = np.array([c + [0] * (k - len(c)) for c in columns], np.uint32)
    return block.reshape(len(columns), k).T, lengths


def _path_block(paths) -> tuple[np.ndarray, np.ndarray]:
    """The words of a batch of paths, as _word_block lays them out.

    Paths of one length whose elements are all built-in ints below 2**32,
    as the internal callers build them, have one word per element: their
    block is the paths transposed, in one numpy pass.  Anything else goes
    element by element through _words, which keeps its verdicts.
    """
    flat = list(itertools.chain.from_iterable(paths))
    if (
        flat
        and set(map(type, flat)) == {int}
        and len(set(map(len, paths))) == 1
        and min(flat) >= 0
        and max(flat) <= _M32
    ):
        block = np.array(flat, dtype=np.uint32).reshape(len(paths), -1)
        return block.T, np.full(len(paths), block.shape[1])
    return _word_block([[w for x in path for w in _words(x)] for path in paths], 0)


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 hash constants init * mult**k mod 2**32, a uint32 column."""
    chain = np.cumprod(np.array([init] + [mult] * n, np.uint32), dtype=np.uint32)
    return _freeze(chain[:, None])


def _hashmix(values: np.ndarray, hc: np.ndarray) -> np.ndarray:
    """numpy's hashmix of row i of values under the constants hc[i], hc[i + 1]."""
    v = (values ^ hc[:-1]) * hc[1:]
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _cross_constants() -> tuple[np.ndarray, ...]:
    """Hash constants of the 12 steps that mix each pool word into the others.

    Word s is mixed into the other three in order, so entry s holds their
    constant pairs in their rows; row s is a placeholder.
    """
    hc = _hash_constants(_INIT_A, _MULT_A, 16)[:, 0]
    out = []
    for s in range(4):
        c = np.zeros((2, 4, 1), np.uint32)
        for t, d in enumerate(d for d in range(4) if d != s):
            c[:, d, 0] = hc[4 + 3 * s + t : 6 + 3 * s + t]
        out.append(_freeze(c))
    return tuple(out)


_CROSS = _cross_constants()


def _absorb(
    pool: np.ndarray, words: np.ndarray, start: int, lengths: np.ndarray
) -> np.ndarray:
    """Mix the rows of words into the pool as entropy words start, start + 1, ...

    numpy's last mix_entropy loop, run across the columns at once: the
    hash constants depend only on the word index.  Column j takes only its
    first lengths[j] rows.
    """
    hc = _hash_constants(_INIT_A, _MULT_A, 4 * (start + len(words)))
    shortest = lengths.min(initial=len(words))
    for i, row in enumerate(words):
        j = 4 * (start + i)
        mixed = _mix(pool, _hashmix(row, hc[j : j + 5]))
        pool = mixed if i < shortest else np.where(lengths > i, mixed, pool)
    return pool


def _pool(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """numpy's SeedSequence.mix_entropy over each column of a (k, n) block, k >= 4.

    The zeros a column shorter than four words is padded with are hashed
    exactly as numpy hashes its missing words.
    """
    hc = _hash_constants(_INIT_A, _MULT_A, 4)
    pool = _hashmix(words[:4], hc)
    for s, (c0, c1) in enumerate(_CROSS):
        v = (pool[s] ^ c0) * c1
        mixed = _mix(pool, v ^ (v >> _SHIFT))
        mixed[s] = pool[s]
        pool = mixed
    return _absorb(pool, words[4:], 4, np.maximum(lengths - 4, 0))


@functools.lru_cache(maxsize=16)
def _seed_pool(head: tuple[int, ...]) -> np.ndarray:
    """The (4, 1) pool after a global seed's words, shared by all its streams."""
    words, lengths = _word_block([list(head)], 4)
    return _freeze(_pool(words, lengths))


def _generate(pool: np.ndarray, n_words: int) -> np.ndarray:
    """numpy's generate_state(n_words, uint64) per pool column, (n_words, n)."""
    hc = _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    out = _hashmix(pool[np.arange(2 * n_words) % 4], hc).astype(np.uint64)
    return out[0::2] | (out[1::2] << np.uint64(32))


def _stream_seeds(global_seed: int, paths) -> np.ndarray:
    """setting_stream_seed for every path of one experiment, in one pass, as
    a uint64 array; paths is a list of sequences."""
    head = _words(global_seed)
    words, lengths = _path_block(paths)
    # numpy pads the seed's words with zeros to four when a spawn key follows
    pool = np.broadcast_to(_seed_pool(tuple(head)), (4, len(lengths)))
    pool = _absorb(pool, words, max(4, len(head)), lengths)
    return _generate(pool, 1)[0]


def setting_stream_seed(global_seed: int, path: tuple[int, ...]) -> int:
    """Per-setting 64-bit seed derived from a global seed and a stream path.

    The value is numpy's
    ``SeedSequence(entropy=global_seed, spawn_key=path).generate_state(1, np.uint64)[0]``:
    the seed's uint32 words, padded with zeros to four, then the words of
    each path element, are hashed into a four-word pool, whose first two
    output words form the seed.  Counting draws from
    ``np.random.default_rng(that seed)``, which seeds PCG64 with
    ``SeedSequence(that seed).generate_state(4, np.uint64)``.  Both stages
    are computed here for all the settings of an experiment at once, and a
    test pins them to numpy's own ``SeedSequence`` and ``default_rng``.
    Seed and path elements must be non-negative integers (ValueError,
    else TypeError).
    """
    return int(_stream_seeds(global_seed, [tuple(path)])[0])


@functools.cache
def _known_state() -> type:
    """An ISeedSequence whose generate_state(4, uint64) is already known.

    PCG64 seeds itself from any ISeedSequence; this one hands over the
    state computed here.  Built on first use, because numpy imports
    numpy.random only when it is first needed.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KnownState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("only PCG64's 4-word uint64 state is known")
            return self.state

    return KnownState


def _pcg64_states(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed, (n, 4).

    A uint64 array of seeds, as _stream_seeds gives, is read as two uint32
    words per seed (a zero high word hashes as numpy's missing one does);
    other seeds go through _words.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        words = np.zeros((4, len(seeds)), np.uint32)
        words[0], words[1] = seeds & np.uint64(_M32), seeds >> np.uint64(32)
        lengths = 1 + (seeds > _M32)
    else:
        words, lengths = _word_block([_words(s) for s in seeds], 4)
    return np.ascontiguousarray(_generate(_pool(words, lengths), 4).T)


def _poisson_draws(seeds, means) -> list:
    """``np.random.default_rng(seeds[k]).poisson(means[k])`` for every k.

    Each stream gets its own PCG64, local to this call and seeded from
    the state that _pcg64_states computed for all streams at once.
    """
    known = _known_state()
    return [
        np.random.Generator(np.random.PCG64(known(state))).poisson(mean)
        for state, mean in zip(_pcg64_states(seeds), means)
    ]


def _analyzer_state(name: str) -> np.ndarray:
    """Alice analysis ket from a label name or a "theta=<x>" scan tag."""
    if name.startswith(_THETA_PREFIX):
        theta = float(name[len(_THETA_PREFIX):])
        return np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
    return basis_ket(name).amplitudes


def _projector_from(label_or_matrix, degree: str | None = None) -> tuple[np.ndarray, str]:
    if isinstance(label_or_matrix, str):
        if label_or_matrix.startswith(_THETA_PREFIX):
            ket = _analyzer_state(label_or_matrix)
            return np.outer(ket, ket.conj()), label_or_matrix
        lab = _resolve_label(label_or_matrix)
        if degree is not None and lab.degree != degree:
            raise ValueError(f"label {lab.name!r} is not a {degree} state")
        ket = basis_ket(lab).amplitudes
        return np.outer(ket, ket.conj()), lab.name
    mat = np.asarray(label_or_matrix, dtype=complex)
    return mat, ""


def setting_from_labels(
    alice: str, bob: str, duration_s: float = DEFAULT_DURATION_S
) -> MeasurementSetting:
    """Build a setting from analyzer names, e.g. ("H", "+2") or ("+", "d")."""
    pa, aname = _projector_from(alice, "polarization")
    pb, bname = _projector_from(bob, "oam_o2")
    return MeasurementSetting(
        alice_proj=pa,
        bob_proj=pb,
        duration_s=duration_s,
        label=f"{aname}|{bname}",
        alice=aname,
        bob=bname,
    )


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
    rho: DensityMatrix, ops: np.ndarray, rate_cps: float, durations, seeds, exact: bool
) -> tuple[list[float], list]:
    """Expected rates and counts for the settings behind an operator stack.

    ``ops`` holds Pi_A x Pi_B for each setting as an (n, 4, 4) stack; setting
    k is measured for durations[k] and draws from the stream seeds[k], or
    with ``exact`` takes the unrounded expectation.  This is the one
    counting path: every simulated count goes through it.
    """
    if rate_cps < 0:
        raise ValueError("rate must be non-negative")
    rates = [max(p, 0.0) * rate_cps for p in _probabilities(rho, ops)]
    means = [r * t for r, t in zip(rates, durations)]
    if exact:
        return rates, means
    return rates, [int(c) for c in _poisson_draws(seeds, means)]


def _count_records(
    rho: DensityMatrix, settings, ops: np.ndarray, rate_cps: float, seeds, exact: bool
) -> list[CountRecord]:
    """One CountRecord per setting; ``ops`` is the settings' operator stack,
    and ``seeds`` a sequence of ints or a uint64 array from _stream_seeds."""
    durations = [s.duration_s for s in settings]
    rates, counts = _born_counts(rho, ops, rate_cps, durations, seeds, exact)
    if isinstance(seeds, np.ndarray):
        seeds = seeds.tolist()
    return [
        CountRecord(setting=s, counts=c, expected_rate_cps=r, seed=sd)
        for s, c, r, sd in zip(settings, counts, rates, seeds)
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
    """Draw one Poisson count for a setting, deterministic for a given seed."""
    return _count_records(rho, (s,), _operator(s), rate_cps, (seed,), False)[0]


def exact_counts(
    rho: DensityMatrix, s: MeasurementSetting, rate_cps: float, seed: int = 0
) -> CountRecord:
    """Noise-free record whose counts equal the unrounded expectation."""
    return _count_records(rho, (s,), _operator(s), rate_cps, (seed,), True)[0]


@functools.lru_cache(maxsize=16)
def _fringe_settings(
    bob: bytes, bname: str, thetas: bytes, duration_s: float
) -> tuple[tuple[MeasurementSetting, ...], np.ndarray]:
    """The settings of one scan and their operator stack, built once.

    Keyed by the bytes of Bob's validated projector, his label, the bytes
    of the float theta grid and the duration; everything returned is shared
    by every caller, so read-only.
    """
    pb = np.frombuffer(bob, dtype=complex).reshape(2, 2)
    settings = []
    for theta in np.frombuffer(thetas):
        aname = f"{_THETA_PREFIX}{theta:.17g}"
        ket = _analyzer_state(aname)
        s = MeasurementSetting(
            alice_proj=_freeze(np.outer(ket, ket.conj())),
            bob_proj=pb,
            duration_s=duration_s,
            label=f"{aname}|{bname}",
            alice=aname,
            bob=bname,
        )
        settings.append(s)
    ops = np.stack([np.kron(s.alice_proj, s.bob_proj) for s in settings])
    return tuple(settings), _freeze(ops)


@functools.lru_cache(maxsize=16)
def _label_projector(label: str) -> tuple[np.ndarray, str]:
    """Bob's checked, read-only projector for an OAM label, and its name."""
    pb, bname = _projector_from(label, "oam_o2")
    return _freeze(_check_projector(pb, "bob")), bname


def fringe_scan_records(
    rho: DensityMatrix,
    bob_proj,
    theta_grid,
    rate_cps: float = DEFAULT_RATE_CPS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
    scan_index: int = 0,
    exact: bool = False,
) -> list[CountRecord]:
    """Scan Alice's analyzer over theta against a fixed Bob projector.

    Each point uses the stream (2, scan_index, point index) off the global
    seed.  ``bob_proj`` is an OAM label or a 2x2 projector.
    """
    thetas = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    if thetas.size == 0:
        raise ValueError("theta grid is empty")
    if isinstance(bob_proj, str):
        pb, bname = _label_projector(bob_proj)
    else:
        pb, bname = _check_projector(bob_proj, "bob"), ""
    settings, ops = _fringe_settings(
        pb.tobytes(), bname, thetas.tobytes(), duration_s
    )
    seeds = _stream_seeds(seed, [(2, scan_index, i) for i in range(len(settings))])
    return _count_records(rho, settings, ops, rate_cps, seeds, exact)


def fringe_scan(
    rho: DensityMatrix,
    bob_proj,
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
        rho, bob_proj, theta_grid, rate_cps, duration_s, seed, scan_index, exact
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


@functools.lru_cache(maxsize=128)
def _csv_setting(label: str, alice: str, bob: str, duration_s: float) -> MeasurementSetting:
    """The setting of one CSV row, built and checked once and then shared."""
    pa, _ = _projector_from(alice, "polarization")
    pb, _ = _projector_from(bob, "oam_o2")
    s = MeasurementSetting(pa, pb, duration_s, label, alice, bob)
    _freeze(s.alice_proj)  # shared by every table read, so nobody may write it
    _freeze(s.bob_proj)
    return s


def read_counts_csv(path) -> list[CountRecord]:
    """Read records written by write_counts_csv, sharing one checked setting
    per (label, alice, bob, duration) across rows and files.

    Integer counts come back as int, fractional ones (exact-mode
    expectations) as float.  The per-setting expected rate is not stored in
    the CSV, so integer rows carry None and fractional rows recover it as
    counts / duration.  Integer cells are read exactly, so one past 2**53
    is refused as CountRecord refuses it; non-finite counts raise
    ValueError.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"setting_label", "alice", "bob", "duration_s", "counts", "seed"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise ValueError(f"unexpected CSV columns: {reader.fieldnames}")
        for row in reader:
            s = _csv_setting(
                row["setting_label"], row["alice"], row["bob"], float(row["duration_s"])
            )
            try:
                counts, rate = int(row["counts"]), None
            except ValueError:
                c = float(row["counts"])
                counts, rate = (int(c), None) if c.is_integer() else (c, c / s.duration_s)
            records.append(CountRecord(s, counts, rate, int(row["seed"])))
    return records
