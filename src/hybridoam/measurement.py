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
    # each tolerance test is written so that NaN fails it
    p = np.asarray(p, dtype=complex)
    if p.shape != (2, 2):
        raise ValueError(f"{who} projector must be 2x2, got {p.shape}")
    if not np.max(np.abs(p - p.conj().T)) <= ATOL:
        raise ValueError(f"{who} projector is not Hermitian")
    if not np.max(np.abs(p @ p - p)) <= ATOL:
        raise ValueError(f"{who} projector is not idempotent")
    if not abs(np.trace(p).real - 1.0) <= ATOL:
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
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration_s}")


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
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_L, _R, _SHIFT = np.uint32(_MIX_L), np.uint32(_MIX_R), np.uint32(16)


def _words(x, pad: int = 1) -> list[int]:
    """A non-negative integer as little-endian uint32 words, as numpy reads it,
    padded with zeros to ``pad`` words (numpy pads a seed to four before a
    spawn key, and hashes a missing word of the four as a zero anyway).
    Checked before any cast: a negative value raises ValueError and a
    non-integer TypeError; bools and numpy integers are integers.
    """
    x = operator.index(x)
    if x < 0:
        raise ValueError(f"stream seeds and paths must be non-negative, got {x}")
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words + [0] * (pad - len(words))


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, start: int, n: int) -> tuple[int, ...]:
    """The hash constants init * mult**k mod 2**32, k = start, ..., start + n - 1."""
    out = [init * pow(mult, start, 1 << 32) & _M32]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _M32)
    return tuple(out)


def _int_mix(x: int, y: int, c0: int, c1: int) -> int:
    """numpy's mix of y, hashed under the constants c0, c1, into pool word x."""
    y = (y ^ c0) * c1 & _M32
    r = (_MIX_L * x - _MIX_R * (y ^ (y >> 16))) & _M32
    return r ^ (r >> 16)


def _hashmix(v: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """numpy's hashmix of uint32 words under the constants c0, c1."""
    v = (v ^ c0) * c1
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of the hashed words y into the pool words x."""
    r = x * _L - y * _R
    return r ^ (r >> _SHIFT)


@functools.lru_cache(maxsize=16)
def _head_pool(head: tuple[int, ...]) -> tuple[int, ...]:
    """numpy's pool after four entropy words: each hashed into its place, then
    each pool word mixed into the other three."""
    hc = _hash_constants(_INIT_A, _MULT_A, 0, 17)
    pool = [(v := (w ^ hc[k]) * hc[k + 1] & _M32) ^ (v >> 16) for k, w in enumerate(head)]
    k = 4
    for s in range(4):
        for d in range(4):
            if d != s:
                pool[d] = _int_mix(pool[d], pool[s], hc[k], hc[k + 1])
                k += 1
    return tuple(pool)


def _pool(words: list[int]) -> np.ndarray:
    """numpy's SeedSequence.mix_entropy over four or more words, as a (4, 1)
    uint32 column; the pool of the first four is cached."""
    pool = list(_head_pool(tuple(words[:4])))
    hc = _hash_constants(_INIT_A, _MULT_A, 16, 4 * len(words) - 15)
    for i, w in enumerate(words[4:]):
        for d in range(4):
            pool[d] = _int_mix(pool[d], w, hc[4 * i + d], hc[4 * i + d + 1])
    return np.array(pool, np.uint32)[:, None]


def _constant_pairs(init: int, mult: int, start: int, rows: int) -> np.ndarray:
    """The constant pairs of rows hash steps from step start on, (2, rows, 1)."""
    hc = _hash_constants(init, mult, start, rows + 1)
    return _freeze(np.array([hc[:-1], hc[1:]], np.uint32)[..., None])


def _cross_constants() -> tuple:
    """Per pool word s, the constant pairs of the three steps that mix it into
    the other words, in their rows; row s is a placeholder."""
    pairs, out = _constant_pairs(_INIT_A, _MULT_A, 4, 12), []
    for s in range(4):
        c = np.zeros((2, 4, 1), np.uint32)
        c[:, [d for d in range(4) if d != s]] = pairs[:, 3 * s : 3 * s + 3]
        out.append((s, *_freeze(c)))
    return tuple(out)


_HEAD = _constant_pairs(_INIT_A, _MULT_A, 0, 4)
_CROSS = _cross_constants()
# output word i = 4a + r hashes pool word r: the pairs as (2, a, r, 1)
_OUT = _constant_pairs(_INIT_B, _MULT_B, 0, 8).reshape(2, 2, 4, 1)


@functools.lru_cache(maxsize=32)
def _word_column(words: tuple[int, ...], e: int) -> np.ndarray:
    """A row of words, one per stream, hashed as entropy word e for each of
    the four pool words it is mixed into, (4, n)."""
    pairs = _constant_pairs(_INIT_A, _MULT_A, 4 * e, 4)
    return _freeze(_hashmix(np.array(words, np.uint32), *pairs))


def _columns(paths) -> tuple[list[tuple[int, ...]], np.ndarray | None]:
    """Word j of every path of a batch as column j (0 past a path's end), and
    each path's word count, None when all have as many.  Paths of built-in
    ints below 2**32, all of one length, as the internal callers build
    them, are their own words; other paths go through _words and its verdicts.
    """
    columns = list(zip(*paths))
    flat = list(itertools.chain.from_iterable(paths))
    if (
        flat
        and len(flat) == len(columns) * len(paths)  # no path longer than the rest
        and set(map(type, flat)) == {int}
        and min(flat) >= 0
        and max(flat) <= _M32
    ):
        return columns, None
    words = [[w for x in path for w in _words(x)] for path in paths]
    lengths = np.array([len(w) for w in words], dtype=int)
    return list(itertools.zip_longest(*words, fillvalue=0)), lengths


def _pcg64_states(pool: np.ndarray) -> np.ndarray:
    """numpy's generate_state(4, uint64) of each column of a (4, n) pool: the
    state PCG64 starts from when seeded from that SeedSequence, (n, 4)."""
    words = _hashmix(pool, *_OUT).reshape(8, -1).T  # paired low word first
    return np.ascontiguousarray(words, "<u4").view("<u8").astype(np.uint64, copy=False)


def _streams(global_seed: int, paths, draw: bool = True):
    """setting_stream_seed of every path of a batch, a uint64 array, and with
    ``draw`` the PCG64 state of each stream's default_rng, (n, 4) (else None).

    The words all paths share, the seed's and the paths' common leading
    words, are mixed into one pool once; only the word columns that differ
    are mixed per stream, and a path skips the columns past its end.  The
    second stage hashes each stream seed's two words straight (a zero high
    word as numpy hashes the missing one) and mixes them on one (4, n) block.
    """
    head = _words(global_seed, 4)
    columns, lengths = _columns(paths)
    shortest = len(columns) if lengths is None else lengths.min(initial=0)
    p = next((j for j in range(shortest) if len(set(columns[j])) > 1), shortest)
    pool = _pool(head + [c[0] for c in columns[:p]])
    for j in range(p, len(columns)):
        mixed = _mix(pool, _word_column(columns[j], len(head) + j))
        pool = mixed if j < shortest else np.where(lengths > j, mixed, pool)
    words = _hashmix(pool, *_OUT[:, 0])[:2]  # generate_state(1, uint64)
    if words.shape[1] != len(paths):  # the paths are all alike
        words = np.repeat(words, len(paths), axis=1)
    seeds = np.ascontiguousarray(words.T, "<u4").view("<u8")[:, 0]
    if not draw:
        return seeds, None
    pool = np.zeros((4, len(paths)), np.uint32)
    pool[:2] = words
    pool = _hashmix(pool, *_HEAD)
    for s, c0, c1 in _CROSS:
        mixed = _mix(pool, _hashmix(pool[s], c0, c1))
        mixed[s] = pool[s]
        pool = mixed
    return seeds, _pcg64_states(pool)


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
    return int(_streams(global_seed, [tuple(path)], draw=False)[0][0])


@functools.cache
def _known_state() -> type:
    """An ISeedSequence that hands PCG64 the state computed here; built on
    first use, as numpy imports numpy.random only when first needed."""
    from numpy.random.bit_generator import ISeedSequence

    class KnownState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("only PCG64's 4-word uint64 state is known")
            return self.state

    return KnownState


def _poisson_draws(states: np.ndarray, means) -> list:
    """``np.random.default_rng(seed).poisson(means[k])`` for the stream whose
    PCG64 state is states[k], for every k; each stream gets its own PCG64,
    local to this call."""
    known = _known_state()
    return [
        np.random.Generator(np.random.PCG64(known(state))).poisson(mean)
        for state, mean in zip(states, means)
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
    rho: DensityMatrix, ops: np.ndarray, rate_cps: float, durations, states
) -> tuple[list[float], list]:
    """Expected rates and counts for the settings behind an operator stack.

    ``ops`` holds Pi_A x Pi_B for each setting as an (n, 4, 4) stack; setting
    k is measured for durations[k] and draws from the stream whose PCG64
    state is states[k], or with ``states`` None takes the unrounded
    expectation.  This is the one counting path: every simulated count goes
    through it.
    """
    if not 0.0 <= rate_cps < math.inf:
        raise ValueError(f"rate must be non-negative and finite, got {rate_cps}")
    rates = [max(p, 0.0) * rate_cps for p in _probabilities(rho, ops)]
    means = [r * t for r, t in zip(rates, durations)]
    if states is None:
        return rates, means
    return rates, [int(c) for c in _poisson_draws(states, means)]


def _count_records(
    rho: DensityMatrix, settings, ops: np.ndarray, rate_cps: float, seeds, states
) -> list[CountRecord]:
    """One CountRecord per setting; ``ops`` is the settings' operator stack,
    ``seeds`` a sequence of ints or a uint64 array from _streams, and
    ``states`` their PCG64 states, None for exact records."""
    durations = [s.duration_s for s in settings]
    rates, counts = _born_counts(rho, ops, rate_cps, durations, states)
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
    state = _pcg64_states(_pool(_words(seed, 4)))
    return _count_records(rho, (s,), _operator(s), rate_cps, (seed,), state)[0]


def exact_counts(
    rho: DensityMatrix, s: MeasurementSetting, rate_cps: float, seed: int = 0
) -> CountRecord:
    """Noise-free record whose counts equal the unrounded expectation."""
    return _count_records(rho, (s,), _operator(s), rate_cps, (seed,), None)[0]


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
    grid = np.frombuffer(thetas)
    if not np.isfinite(grid).all():
        raise ValueError("theta grid must be finite")
    settings = []
    for theta in grid:
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
    seeds, states = _streams(
        seed, [(2, scan_index, i) for i in range(len(settings))], not exact
    )
    return _count_records(rho, settings, ops, rate_cps, seeds, states)


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
