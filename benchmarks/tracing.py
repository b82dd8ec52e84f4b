"""In-memory span recorder for the traced benchmark run.

``Tracer.installed`` swaps each function named in ``TRACED`` for a timing
wrapper in every loaded ``hybridoam`` module that refers to it, so calls
made inside the package (the bootstrap's ``reconstruct`` calls, the
pipeline's ``write_json``) are recorded as well as the benchmark's own.
The program's files are not changed, and the originals are put back on
exit.  A function missing from the package reports zero calls.

Everything runs in one thread, so no layer waits: a span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "hybridoam"

# (module, function, unit of its per-call time)
TRACED = (
    ("cli", "main", "s"),
    ("cli", "write_json", "ms"),
    ("source", "prepare_hybrid", "ms"),
    ("source", "hybrid_state", "ms"),
    ("measurement", "write_counts_csv", "ms"),
    ("measurement", "read_counts_csv", "ms"),
    ("measurement", "fringe_scan", "ms"),
    ("measurement", "fringe_scan_records", "ms"),
    ("measurement", "fit_fringe", "ms"),
    ("tomography", "simulate_tomography", "ms"),
    ("tomography", "linear_inversion", "ms"),
    ("tomography", "mle_reconstruct", "ms"),
    ("tomography", "reconstruct", "ms"),
    ("tomography", "metric_uncertainties", "s"),
    ("bell", "chsh_empirical", "ms"),
    ("budget", "budget_report", "ms"),
)

_SCALE = {"s": 1.0, "ms": 1e3}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    ok: bool = True
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Spans of one traced run, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solver: list[tuple[int, bool]] = []  # (n_iter, converged) per reconstruct
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self._op))
        self._stack.append(len(self.spans) - 1)

    def _close(self, ok: bool) -> None:
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        span.ok = ok
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self._op = op
        self._open(name)
        try:
            yield
        except BaseException:
            self._close(ok=False)
            raise
        self._close(ok=True)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(ok=False)
                raise
            self._close(ok=True)
            if name == "tomography.reconstruct":
                self.solver.append((int(out.n_iter), bool(out.converged)))
            return out

        return traced

    @contextmanager
    def installed(self):
        """Route calls to the ``TRACED`` functions through span wrappers."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        patched = []
        try:
            for mod, fn, _ in TRACED:
                owner = sys.modules.get(f"{PACKAGE}.{mod}")
                orig = getattr(owner, fn, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, orig))
            yield
        finally:
            for m, attr, orig in reversed(patched):
                setattr(m, attr, orig)

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Median per call, calls per operation and self time per operation."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        out = {}
        for mod, fn, unit in TRACED:
            spans = by_name.get(f"{mod}.{fn}", [])
            scale = _SCALE[unit]
            durations = [s.end - s.start for s in spans]
            median = statistics.median(durations) * scale if spans else 0.0
            out[f"{mod}.{fn}_{unit}"] = (median, unit)
            out[f"{mod}.{fn}.calls"] = (len(spans) / n_ops, "1/op")
            self_total = sum(s.self_s for s in spans) * scale
            out[f"{mod}.{fn}.self_{unit}"] = (self_total / n_ops, f"{unit}/op")
        return out

    def failed_share(self, name: str) -> float:
        """Share of calls to ``name`` that raised, 0 when it was not called."""
        spans = [s for s in self.spans if s.name == name]
        return sum(not s.ok for s in spans) / len(spans) if spans else 0.0

    def dump(self) -> list[list]:
        """Spans as [name, start_s, end_s, parent, op, ok], times from the first start."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            [s.name, round(s.start - t0, 7), round(s.end - t0, 7), s.parent, s.op, s.ok]
            for s in self.spans
        ]
