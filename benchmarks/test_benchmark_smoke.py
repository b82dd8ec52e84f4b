"""Tiny-size smoke test of the benchmark itself.

Checks that every metric BENCHMARK.json names is printed with its unit, that
the traced runs emit spans for every measured layer, and that the benchmark
refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = {"cli", "source", "measurement", "tomography", "bell", "budget"}


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _env() -> dict:
    return dict(os.environ, **run.THREAD_ENV, PYTHONPATH=str(ROOT / "src"))


def test_untraced_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_cover_every_layer():
    wanted = _units("per_layer")
    seen_layers = set()
    for name in run.WORKLOAD_NAMES:
        out = run.run_workload(name, seed=5, seconds=0.0, trace=True, env=_env(), setup_repeats=1)
        result = out["result"]
        assert result["correct"], (name, out["report"])
        printed = {k: m["unit"] for k, m in result["metrics"].items()}
        assert printed == wanted, name
        assert result["metrics"]["import.s"]["value"] > 0
        assert out["spans"], name
        seen_layers |= {span[0].split(".")[0] for span in out["spans"]}
    assert LAYERS <= seen_layers


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=""), capture_output=True,
        text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
