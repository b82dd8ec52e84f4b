"""Golden outputs: the ``--out`` files and stdout of six CLI runs, kept under
``tests/golden/`` so that every change to an output shows as a diff there.

Each run executes in-process with ``tests/golden/`` as the working
directory, so its inputs (``inputs/det.json`` and the count table
``inputs/tomography_counts.csv``, made once by ``tomography --noise fitted
--seed 4``) are named by the same relative paths wherever the repository
lives.  ``test_golden.py`` reruns each one and compares it with its
directory here.  A change that moves an output rewrites the set with

    PYTHONPATH=src python tests/golden_outputs.py

and the diff under ``tests/golden/`` is its output diff.  ``meta.json``
records the numpy version the set was written with, since a numpy change can
move floats too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
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
    "fringe_h": ["fringe", "--bob", "h", "--points", "24", "--seed", "5"],
    "budget_det": ["budget", "--config", "inputs/det.json"],
}


def run(name: str, out: Path) -> str:
    """Run one golden command with its files written to ``out``; its stdout."""
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
    return stdout.getvalue()


def rewrite() -> None:
    """Replace every run's directory with a fresh run's files and stdout."""
    for name in RUNS:
        out = GOLDEN / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        (out / STDOUT).write_text(run(name, out))
    (GOLDEN / META).write_text(json.dumps({"numpy": np.__version__}, indent=2) + "\n")


if __name__ == "__main__":
    rewrite()
