"""The three benchmark workloads.

Each workload has the same four parts:

- ``make_inputs(seed)`` builds the operation inputs from the workload seed
  (timed as part of set-up);
- ``run(inp)`` is one operation, timed untraced;
- ``run_inprocess(inp)`` is the same operation inside this process, used by
  the traced run so that spans can be recorded;
- ``check(inp, out)`` returns ``(problems, facts)``: physics-tolerance
  problems with the output, and per-operation observations (fidelity
  error, output bytes, refusals) for the report and the layer metrics.

Checks use physics tolerances, not golden bytes, so that a solver that
moves the MLE within its statistical error still passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hybridoam.bell as bell
import hybridoam.cli as cli
import hybridoam.measurement as ms
import hybridoam.source as src
import hybridoam.tomography as tg

TOMOGRAPHY_S = 15.0
CHSH_S = 60.0
FRINGE_S = 15.0
GRID16 = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
RESAMPLES = 100
N_SIGMA = 5.0
PIPELINE_F_FLOOR = 0.005  # covers the small MLE bias toward mixedness
EXACT_F_TOL = 1e-6
PHYSICAL_TOL = 1e-9
OP_TIMEOUT_S = 60.0  # keeps a hung subprocess inside the 180 s run limit

# Integer tables of the fitted preset from about 1 cps up to tens of cps,
# plus exact fractional tables; the mix repeats in this order so that any
# prefix of the table list holds every kind.  0.5 cps stays in the mix: a
# bootstrap there often loses more than 10% of its resamples, which the
# program reports by raising.
TABLE_MIX = (
    ("counts", 0.5), ("counts", 1.0), ("counts", 2.0), ("counts", 5.0),
    ("counts", 10.0), ("counts", 20.0), ("counts", 50.0), ("exact", 50.0),
)
TABLE_MIX_REPEATS = 4
# At or below this rate a table may be refused, by reconstruct when a basis
# pair counted nothing or by the bootstrap when over 10% of its resamples
# fail; the check confirms the stated cause and counts the refusal.
SPARSE_CPS = 1.0
_BASIS = {"H": "z", "V": "z", "+": "x", "-": "x", "L": "y", "R": "y",
          "+2": "z", "-2": "z", "h": "x", "v": "x", "a": "y", "d": "y"}
_REFUSAL = re.compile(r"^(\d+)/(\d+) bootstrap resamples failed$")

PIPELINE_SEEDS = 64
SWEEP_POINTS = 3000


def _seed_list(seed: int, n: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(n, np.uint32)
    return [int(s) >> 1 for s in state]


def _draw_noise(rng: np.random.Generator) -> src.NoiseModel:
    return src.NoiseModel(
        werner_p=float(rng.uniform(0.75, 1.0)),
        dephase_q=float(rng.uniform(0.0, 0.15)),
        miscal_angle=float(rng.uniform(-0.25, 0.25)),
    )


def _empty_basis_pairs(records) -> list[tuple[str, str]]:
    """Alice x Bob measurement bases whose four settings all counted zero."""
    totals = {}
    for r in records:
        pair = (_BASIS[r.setting.alice], _BASIS[r.setting.bob])
        totals[pair] = totals.get(pair, 0.0) + float(r.counts)
    return [pair for pair, total in totals.items() if total == 0]


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def _physical_problems(rho, what: str) -> list[str]:
    m = rho.matrix
    problems = []
    if abs(np.trace(m).real - 1.0) > PHYSICAL_TOL:
        problems.append(f"{what}: trace {np.trace(m).real!r} != 1")
    if np.max(np.abs(m - m.conj().T)) > PHYSICAL_TOL:
        problems.append(f"{what}: not Hermitian")
    if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -PHYSICAL_TOL:
        problems.append(f"{what}: not positive")
    return problems


class Workload:
    """Shared constructor: a scratch directory and the subprocess environment."""

    name = ""

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env

    def run_inprocess(self, inp):
        return self.run(inp)


class PipelineCli(Workload):
    """``python -m hybridoam pipeline --noise fitted`` run as a subprocess."""

    name = "pipeline_cli"

    def __init__(self, work: Path, env: dict):
        super().__init__(work, env)
        rho, _ = src.prepare_hybrid("fitted")
        self.f_true = tg.fidelity(rho, src.hybrid_singlet_ket())
        self.s_exact = bell.chsh_exact(rho).s

    def make_inputs(self, seed: int) -> list[int]:
        return _seed_list(seed, PIPELINE_SEEDS)

    def _argv(self, seed: int) -> tuple[list[str], Path]:
        out = self.work / f"pipeline-{seed}"
        argv = ["pipeline", "--noise", "fitted", "--seed", str(seed), "--out", str(out)]
        return argv, out

    def run(self, seed: int) -> Path:
        argv, out = self._argv(seed)
        proc = subprocess.run(
            [sys.executable, "-m", "hybridoam", *argv],
            env=self.env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stdout.strip()[-300:]}")
        return out

    def run_inprocess(self, seed: int) -> Path:
        argv, out = self._argv(seed)
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        return out

    def check(self, seed: int, out: Path) -> tuple[list[str], dict]:
        try:
            nbytes = sum(f.stat().st_size for f in out.iterdir())
            payload = json.loads(
                (out / "pipeline.json").read_text(), parse_constant=_reject_constant
            )
        finally:
            shutil.rmtree(out, ignore_errors=True)
        problems = []
        m = payload["tomography"]["metrics"]
        f, sigma_f = m["fidelity"], m["uncertainties"]["fidelity"]
        if abs(f - self.f_true) > N_SIGMA * sigma_f + PIPELINE_F_FLOOR:
            problems.append(f"fidelity {f:.5f} vs {self.f_true:.5f} (sigma {sigma_f:.5f})")
        chsh = payload["chsh"]
        if abs(chsh["S"] - self.s_exact) > N_SIGMA * chsh["sigma"]:
            problems.append(f"S {chsh['S']:.4f} vs exact {self.s_exact:.4f}")
        for bob, fringe in payload["fringe"].items():
            if not 0.0 <= fringe["visibility"] <= 1.0:
                problems.append(f"fringe {bob} visibility {fringe['visibility']}")
        return problems, {"fidelity_err": abs(f - self.f_true), "output_bytes": nbytes}


@dataclass(frozen=True)
class SweepPoint:
    noise: src.NoiseModel
    rate_cps: float
    seed: int


class Sweep(Workload):
    """Library parameter scan: one point is state, tomography, CHSH, fringes."""

    name = "sweep"

    def make_inputs(self, seed: int) -> list[SweepPoint]:
        rng = np.random.default_rng(seed)
        return [
            SweepPoint(
                noise=_draw_noise(rng),
                rate_cps=float(10.0 ** rng.uniform(1.0, 3.0)),
                seed=int(rng.integers(2**31)),
            )
            for _ in range(SWEEP_POINTS)
        ]

    def run(self, pt: SweepPoint) -> dict:
        rho, success = src.prepare_hybrid(pt.noise)
        records = tg.simulate_tomography(rho, pt.rate_cps, TOMOGRAPHY_S, pt.seed)
        run = tg.reconstruct(records)
        target = src.hybrid_singlet_ket()
        metrics = (
            tg.fidelity(run.rho_mle, target),
            tg.concurrence(run.rho_mle),
            tg.linear_entropy(run.rho_mle),
        )
        chsh = bell.chsh_empirical(rho, rate_cps=pt.rate_cps, duration_s=CHSH_S, seed=pt.seed)
        fringes = [
            ms.fit_fringe(
                ms.fringe_scan(rho, bob, GRID16, pt.rate_cps, FRINGE_S, seed=pt.seed, scan_index=k)
            )
            for k, bob in enumerate(("+2", "h"))
        ]
        return {"rho": rho, "success": success, "rho_mle": run.rho_mle,
                "metrics": metrics, "chsh": chsh, "fringes": fringes}

    def check(self, pt: SweepPoint, out: dict) -> tuple[list[str], dict]:
        nm = pt.noise
        # closed form of the preparation chain: Werner weight on top of the
        # dephased, rotated singlet, F = p (1 - q/2) cos^2 t + (1 - p)/4
        f_true = nm.werner_p * (1 - nm.dephase_q / 2) * math.cos(nm.miscal_angle) ** 2 + (
            1 - nm.werner_p
        ) / 4
        problems = _physical_problems(out["rho_mle"], "rho_mle")
        f_prep = tg.fidelity(out["rho"], src.hybrid_singlet_ket())
        if abs(f_prep - f_true) > PHYSICAL_TOL:
            problems.append(f"prepared fidelity {f_prep!r} vs closed form {f_true!r}")
        if abs(out["success"] - 0.5) > PHYSICAL_TOL:
            problems.append(f"transfer success {out['success']!r} != 0.5")
        for name, v in zip(("F", "C", "S_L"), out["metrics"]):
            if not -PHYSICAL_TOL <= v <= 1.0 + PHYSICAL_TOL:
                problems.append(f"{name} = {v} outside [0, 1]")
        chsh, s_exact = out["chsh"], bell.chsh_exact(out["rho"]).s
        if abs(chsh.s - s_exact) > N_SIGMA * chsh.sigma:
            problems.append(f"S {chsh.s:.4f} vs exact {s_exact:.4f} (sigma {chsh.sigma:.4f})")
        for _, v, _ in out["fringes"]:
            if not 0.0 <= v <= 1.0:
                problems.append(f"fringe visibility {v}")
        return problems, {"fidelity_err": abs(out["metrics"][0] - f_true)}


@dataclass(frozen=True)
class Table:
    path: Path
    kind: str
    rate_cps: float
    seed: int
    f_true: float


class Reanalyze(Workload):
    """Re-analysis of count tables from CSV, with bootstrap uncertainties."""

    name = "reanalyze"

    def make_inputs(self, seed: int) -> list[Table]:
        rng = np.random.default_rng(seed)
        target = src.hybrid_singlet_ket()
        tables = []
        for _ in range(TABLE_MIX_REPEATS):
            for kind, rate in TABLE_MIX:
                exact = kind == "exact"
                noise = _draw_noise(rng) if exact else src.noise_preset("fitted")
                table_seed = int(rng.integers(2**31))
                rho, _ = src.prepare_hybrid(noise)
                records = tg.simulate_tomography(rho, rate, TOMOGRAPHY_S, table_seed, exact=exact)
                path = self.work / f"table-{len(tables):03d}.csv"
                ms.write_counts_csv(records, path)
                tables.append(Table(path, kind, rate, table_seed, tg.fidelity(rho, target)))
        return tables

    def run(self, table: Table) -> dict:
        records = ms.read_counts_csv(table.path)
        try:
            run = tg.reconstruct(records)
        except tg.InsufficientDataError as exc:  # judged by check()
            return {"records": records, "refused": exc}
        try:
            boot = tg.metric_uncertainties(records, n_resamples=RESAMPLES, seed=table.seed)
        except RuntimeError as exc:  # judged by check()
            boot = exc
        return {"records": records, "rho_mle": run.rho_mle, "bootstrap": boot}

    def check(self, table: Table, out: dict) -> tuple[list[str], dict]:
        records = out["records"]
        if len(records) != 36:
            return [f"{len(records)} records read back, expected 36"], {}
        if "refused" in out:
            empty = _empty_basis_pairs(records)
            if table.rate_cps > SPARSE_CPS or not empty:
                return [f"reconstruct raised at {table.rate_cps} cps: {out['refused']}"], {}
            return [], {"table_refused": 1}
        problems = _physical_problems(out["rho_mle"], "rho_mle")
        f = tg.fidelity(out["rho_mle"], src.hybrid_singlet_ket())
        exact = table.kind == "exact"
        if exact and abs(f - table.f_true) > EXACT_F_TOL:
            problems.append(f"exact table fidelity {f!r} vs true {table.f_true!r}")
        boot, refused = out["bootstrap"], 0
        if isinstance(boot, Exception):
            match = _REFUSAL.match(str(boot))
            if (
                match is None
                or int(match[1]) <= 0.1 * int(match[2])
                or table.rate_cps > SPARSE_CPS
            ):
                problems.append(f"bootstrap raised at {table.rate_cps} cps: {boot}")
            refused = 1
        else:
            sigmas = (boot.fidelity_sigma, boot.concurrence_sigma, boot.linear_entropy_sigma)
            if not all(math.isfinite(s) and s >= 0 for s in sigmas):
                problems.append(f"bootstrap sigmas {sigmas}")
            if exact and abs(boot.fidelity - table.f_true) > EXACT_F_TOL:
                problems.append(f"exact table bootstrap fidelity {boot.fidelity!r}")
        return problems, {"fidelity_err": abs(f - table.f_true), "bootstrap_refused": refused}


WORKLOADS = {w.name: w for w in (PipelineCli, Sweep, Reanalyze)}
