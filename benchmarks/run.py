"""hybridoam benchmark: three closed-loop workloads, timed from outside.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

- ``pipeline_cli``: sequential ``python -m hybridoam pipeline --noise fitted``
  subprocesses over a seed list drawn from the workload seed;
- ``sweep``: in-process parameter scan, one point = state preparation,
  36-setting tomography with MLE, CHSH and two 16-point fringe fits;
- ``reanalyze``: in-process re-analysis of count tables written to CSV at
  set-up: read, reconstruct, 100-resample bootstrap.

One caller runs each workload and starts the next operation only after the
previous one finished; nothing runs in parallel.  Set-up (a fresh-interpreter
``import hybridoam`` plus input generation) is repeated ``SETUP_REPEATS``
times.  Every operation's output is checked; an operation that raises or
fails a check counts in ``failed``, by exception type or as ``check``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median set-up)
and ``op_ms`` (median time per operation), scaled to reference machine
speed by the calibration in ``speed.py``.  The raw wall-clock latencies,
their p90 when at least 100 were taken, and the calibration samples go to
the report file.  ``--trace 1`` runs the same operations in-process, alternating
untraced and traced, and prints the per-layer metrics from the spans as
raw wall-clock times, plus the tracing overhead.

The last stdout line is the result JSON; earlier lines give provenance and
a table.  Each run writes ``.bench_out/<workload>-seed<seed>-trace<t>.json``
(provenance, result, failures, raw timings, and a traced run's spans).
``--workload all`` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
WORKLOAD_NAMES = ("pipeline_cli", "sweep", "reanalyze")


def _pin_environment() -> dict:
    """Single-threaded BLAS/OpenMP here and in subprocesses; src/ on the path.

    Must run before numpy is imported."""
    os.environ.update(THREAD_ENV)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))
    return dict(os.environ)


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def _dependencies() -> list[str] | None:
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return None
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"].get("dependencies", [])


def provenance() -> dict:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "hybridoam").rglob("*.py"))
    )
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
        "src_lines": src_lines,
        "dependencies": _dependencies(),
        "blas_threads": THREAD_ENV["OMP_NUM_THREADS"],
    }


class Tally:
    """Attempted and failed operations, failure reasons, per-operation facts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.examples = {}
        self.facts = defaultdict(list)

    def record(self, wl, inp, out, exc: Exception | None) -> None:
        self.attempted += 1
        if exc is not None:
            reason, problems = type(exc).__name__, [str(exc)]
        else:
            reason = "check"
            try:
                problems, facts = wl.check(inp, out)
            except Exception as check_exc:  # a malformed output fails its check
                problems, facts = [f"{type(check_exc).__name__}: {check_exc}"], {}
            for k, v in facts.items():
                self.facts[k].append(v)
        if problems:
            self.failed += 1
            self.reasons[reason] += 1
            self.examples.setdefault(reason, problems[:3])


def _timed(fn, inp) -> tuple[float, object, Exception | None]:
    t0 = time.perf_counter()
    try:
        out = fn(inp)
    except Exception as exc:
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


def setup(wl, seed: int, env: dict, repeats: int, meter) -> tuple[list, list, list]:
    """Inputs, raw set-up times and raw fresh-interpreter import times, in s."""
    totals, imports = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import hybridoam"], env=env, check=True, timeout=60
        )
        t1 = time.perf_counter()
        inputs = wl.make_inputs(seed)
        imports.append(t1 - t0)
        totals.append(time.perf_counter() - t0)
        meter.check()
    return inputs, totals, imports


def measure(wl, inputs: list, seconds: float, tally: Tally, meter) -> list[float]:
    """Closed loop over the inputs until ``seconds`` have passed; raw
    latencies in s."""
    latencies = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        inp = inputs[i % len(inputs)]
        dt, out, exc = _timed(wl.run, inp)
        latencies.append(dt)
        tally.record(wl, inp, out, exc)
        meter.after(dt)
        i += 1
    return latencies


def measure_traced(wl, inputs: list, seconds: float, tally: Tally, meter, tracer):
    """Pairs of in-process operations on the same input, one untraced and one
    traced, alternating which goes first; raw latencies in s."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        inp = inputs[i % len(inputs)]
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer.installed(), tracer.span(f"op.{wl.name}", op=len(traced)):
                    dt, out, exc = _timed(wl.run_inprocess, inp)
                traced.append(dt)
            else:
                dt, out, exc = _timed(wl.run_inprocess, inp)
                plain.append(dt)
            tally.record(wl, inp, out, exc)
            meter.after(dt)
        i += 1
    return plain, traced


def _median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(latencies: list[float], setup_s: list[float], slowdown: float) -> dict:
    ms = [t * 1e3 / slowdown for t in latencies]
    # ops/s of one closed-loop caller is 1/mean latency; the mean moves with the
    # box's slow spells far more than the median, so no throughput is bounded
    return {
        "setup_s": (statistics.median(setup_s) / slowdown, "s"),
        "op_ms": (statistics.median(ms), "ms"),
    }


def raw_timing(latencies: list[float], setup_s: list[float], meter) -> dict:
    """Wall-clock timings as measured, and the calibration behind the scaling."""
    ms = [t * 1e3 for t in latencies]
    summary = {
        "n": len(ms),
        "median_ms": statistics.median(ms),
        "slowdown": meter.slowdown(),
        "latencies_ms": [round(t, 3) for t in ms],
        "setup_s": setup_s,
        "calibration_ms": [round(t * 1e3, 3) for t in meter.samples],
    }
    if len(ms) >= 100:  # at least ten samples beyond the 90th percentile
        summary["p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    return summary


def layer_metrics(tracer, tally: Tally, plain: list, traced: list, import_s: float) -> dict:
    metrics = {"import.s": (import_s, "s")}
    metrics.update(tracer.layer_metrics(len(traced)))
    solver = tracer.solver
    metrics["tomography.mle_iters"] = (_median_or_zero([n for n, _ in solver]), "count")
    metrics["tomography.mle_converged_share"] = (
        sum(c for _, c in solver) / len(solver) if solver else 0.0, "ratio"
    )
    metrics["tomography.bootstrap_failed_share"] = (
        tracer.failed_share("tomography.metric_uncertainties"), "ratio"
    )
    metrics["tomography.fidelity_err"] = (_median_or_zero(tally.facts["fidelity_err"]), "abs")
    metrics["cli.output_bytes"] = (_median_or_zero(tally.facts["output_bytes"]), "B")
    metrics["trace.spans"] = (len(tracer.spans) / len(traced), "1/op")
    metrics["trace.overhead_ms"] = (
        (statistics.median(traced) - statistics.median(plain)) * 1e3, "ms"
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 env: dict, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run: the result object, a side report, and spans."""
    from speed import SpeedMeter
    from tracing import Tracer
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        wl = WORKLOADS[name](work, env)
        meter = SpeedMeter()
        inputs, setup_s, import_s = setup(wl, seed, env, setup_repeats, meter)
        tally = Tally()
        if trace:
            tracer = Tracer()
            plain, traced = measure_traced(wl, inputs, seconds, tally, meter, tracer)
            metrics = layer_metrics(tracer, tally, plain, traced, statistics.median(import_s))
            raw = {"slowdown": meter.slowdown()}
            spans = tracer.dump()
        else:
            latencies = measure(wl, inputs, seconds, tally, meter)
            metrics = end_to_end_metrics(latencies, setup_s, meter.slowdown())
            raw = raw_timing(latencies, setup_s, meter)
            spans = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "failures": dict(tally.reasons),
        "failure_examples": tally.examples,
        "bootstrap_refused": sum(tally.facts["bootstrap_refused"]),
        "table_refused": sum(tally.facts["table_refused"]),
        "raw_timing": raw,
    }
    return {"result": result, "report": report, "spans": spans}


def _print_table(run: dict) -> None:
    rep, res = run["report"], run["result"]
    print(
        f"# {rep['workload']} seed={rep['seed']} trace={rep['trace']}: "
        f"attempted={res['attempted']} failed={res['failed']} "
        f"failures={rep['failures']} bootstrap_refused={rep['bootstrap_refused']} "
        f"table_refused={rep['table_refused']} "
        f"slowdown={rep['raw_timing']['slowdown']:.3f}"
    )
    for name, m in res["metrics"].items():
        print(f"#   {name:<44} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hybridoam" / "__init__.py").is_file():
        print(f"error: no hybridoam sources under {SRC}", file=sys.stderr)
        return 2
    env = _pin_environment()
    prov = provenance()
    print(json.dumps({"provenance": prov}, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        _print_table(run)
        out = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({"provenance": prov, **run}) + "\n")
        results.append(run["result"])
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{k}": v
                for name, r in zip(names, results)
                for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
