"""Golden outputs: the ``--out`` files and stdout of six CLI runs, kept under
``tests/golden/`` so that every change to an output shows as a diff there.

Each run executes in-process with ``tests/golden/`` as the working
directory, so its inputs (``inputs/det.json`` and the count table
``inputs/tomography_counts.csv``, made once by ``tomography --noise fitted
--seed 4``) are named by the same relative paths wherever the repository
lives.  ``test_golden.py`` reruns each one and compares it with its
directory here through ``differences``: count CSVs and stdout byte for
byte, JSON value for value with exact floats, apart from the package
version.  A change that moves an output rewrites the set with

    PYTHONPATH=src python tests/golden_outputs.py

which rewrites only the runs that ``differences`` finds moved, so the diff
under ``tests/golden/`` is the change's output diff, with no file whose only
change is the version.  ``meta.json`` records the numpy version the set was
last written with, since a numpy change can move floats too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from hybridoam.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
STDOUT = "stdout.txt"
META = "meta.json"

RUNS = {
    "pipeline_fitted": ["pipeline", "--noise", "fitted", "--seed", "0"],
    "pipeline_exact": ["pipeline", "--exact", "--resamples", "0", "--seed", "3"],
    "tomography_reanalysis": [
        "tomography", "--counts-csv", "inputs/tomography_counts.csv", "--seed", "4",
    ],
    "chsh_exact": ["chsh", "--noise", "fitted", "--exact"],
    "fringe": ["fringe", "--points", "24", "--seed", "5"],
    "budget_det": ["budget", "--config", "inputs/det.json"],
}


def run(name: str, out: Path) -> None:
    """Run one golden command with its files written to ``out``, and its
    stdout as ``out/stdout.txt``."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main([*RUNS[name], "--out", str(out)])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"golden run {name} exited {code}: {stdout.getvalue()}")
    (out / STDOUT).write_text(stdout.getvalue())


def _without_version(path: Path):
    data = json.loads(path.read_text())
    data["provenance"].pop("version")
    return data


def differences(name: str, out: Path) -> list[str]:
    """The names of the files of a run of ``name`` in ``out`` that differ
    from its golden directory's, or are on one side only: count CSVs and
    stdout byte for byte, JSON value for value with exact floats, apart
    from the package version."""
    expected = GOLDEN / name
    files = {p.name for p in out.iterdir()}
    kept = {p.name for p in expected.glob("*")}
    moved = sorted(files ^ kept)
    for f in sorted(files & kept):
        if f.endswith(".json"):
            same = _without_version(out / f) == _without_version(expected / f)
        else:
            same = (out / f).read_bytes() == (expected / f).read_bytes()
        if not same:
            moved.append(f)
    return moved


def rewrite() -> None:
    """Replace the directory of every run whose outputs moved with a fresh
    run's, and record the numpy version if any did."""
    moved = False
    for name in RUNS:
        with tempfile.TemporaryDirectory() as fresh:
            run(name, Path(fresh))
            if differences(name, Path(fresh)):
                shutil.rmtree(GOLDEN / name, ignore_errors=True)
                shutil.copytree(fresh, GOLDEN / name)
                moved = True
    if moved:
        (GOLDEN / META).write_text(json.dumps({"numpy": np.__version__}, indent=2) + "\n")


if __name__ == "__main__":
    rewrite()
