"""Batch command-line front-end.

One table, ``_EXPERIMENTS``, holds the experiments (tomography, fringe,
CHSH, budget): each row draws a count table from the prepared state,
analyses a table, and names the inputs it reads, by provenance key.  A
command runs its row and ``pipeline`` every row on one state, through one
loop that draws each table (or reads --counts-csv), writes a drawn one as
``<command>_counts.csv`` or ``pipeline_<experiment>_counts.csv``, and
analyses it, so a command's count file and result are the pipeline's for
its row.  The table decides each command's flags and its provenance
``config``: the values of the inputs the run read, a seed only where a
random draw or a bootstrap reads it, and the rate budget, which has no flag.

Precedence: built-in defaults, then the --config JSON file (checked whole
by every command), then explicit flags.  Floats are written as Python's
shortest repr that reads back to the same float64, so identical config +
seed gives byte-identical files.

Exit codes: 0 success, 2 usage/config errors, under the command's usage
line, 1 simulation or reconstruction failures (with an error JSON on stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import bell
from . import budget as budget_mod
from . import measurement as ms
from . import source as src
from . import tomography as tg
from .states import _check_int, _check_real, matrix_to_json

_DEFAULT_DURATIONS = {
    "tomography": ms.DEFAULT_DURATION_S,
    "chsh": bell.DEFAULT_PAIR_DURATION_S,
    "fringe": ms.DEFAULT_DURATION_S,
}
_FRINGE_POINTS = 16
# --points' ceiling: a scan's records and count file grow linearly in it; its JSON does not
MAX_FRINGE_POINTS = 10_000


class ConfigError(ValueError):
    """Bad config file or flag combination (usage error, exit 2)."""


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # JSON has no NaN or infinity
    return obj


def write_json(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    # ValueError covers JSONDecodeError and an integer past Python's digit limit
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    extra = set(cfg) - {"noise", "budget", "rate_cps", "durations", "seed"}
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    return cfg


def _parse_noise(spec) -> src.NoiseModel:
    """The noise model of a config's "noise" value or the --noise flag: a
    preset name, or a model object, given as a dict or inline JSON; a value
    of another type is refused by the model's own from_dict."""
    if spec is None:
        return src.noise_preset("ideal")
    if isinstance(spec, str):
        spec = spec.strip()
        if not spec.startswith("{"):
            try:
                return src.noise_preset(spec)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
    try:
        return src.NoiseModel.from_dict(json.loads(spec) if isinstance(spec, str) else spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise model: {exc}") from exc


def _checked(guard, name: str, value, *bounds):
    """A config value or flag through one of the library's two number guards,
    states._check_real or _check_int, whose refusal is a usage error."""
    try:
        return guard(name, value, *bounds)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


# every input a flag sets, by its provenance key: its flag's options
_FLAGS = {
    "seed": dict(type=int, help="global RNG seed"),
    "duration_s": dict(type=float, help=(
        f"seconds per setting (default {_DEFAULT_DURATIONS['tomography']:g},"
        f" chsh {_DEFAULT_DURATIONS['chsh']:g})")),
    "rate_cps": dict(type=float, help="detected pair rate (default 100)"),
    "noise": dict(help='noise preset name or inline JSON {"werner_p":...}'),
    "resamples": dict(type=int, help="bootstrap resamples for uncertainties (0 disables)"),
    "exact": dict(action="store_true", help="expected counts instead of Poisson draws"),
    "counts_csv": dict(help="reconstruct from an existing count table"),
    "points": dict(type=int, help=(
        f"grid points over one period (at least {ms.MIN_FRINGE_POINTS},"
        f" at most {MAX_FRINGE_POINTS})")),
}
# options of one experiment's command, which the pipeline fixes or lacks
_OWN = ("counts_csv", "points")


class _Resolved:
    """Effective settings after merging defaults, config file, and flags,
    with the provenance keys of the inputs the command reads."""

    def __init__(self, args):
        # a flag not given is left out of the namespace
        flags = vars(args)
        self.command = args.command
        self.keys = _read_inputs(self.command, flags)
        cfg = _load_config(flags.get("config"))
        # a flag wins over the file, and the file over the default
        self.seed = _checked(_check_int, "seed", flags.get("seed", cfg.get("seed", 0)))
        rate = flags.get("rate_cps", cfg.get("rate_cps", ms.DEFAULT_RATE_CPS))
        self.rate_cps = _checked(_check_real, "rate_cps", rate, 0.0)
        cfg_durations = cfg.get("durations", {})
        if not isinstance(cfg_durations, dict):
            raise ConfigError('"durations" must be an object')
        extra = set(cfg_durations) - set(_DEFAULT_DURATIONS)
        if extra:
            raise ConfigError(f"unknown durations keys: {sorted(extra)}")
        positive = math.ulp(0.0)
        self.durations = {
            k: _checked(_check_real, f"duration {k}", cfg_durations.get(k, v), positive)
            for k, v in _DEFAULT_DURATIONS.items()
        }
        # the flag overrides every experiment's duration, each still checked above
        if "duration_s" in flags:
            flag = _checked(_check_real, "duration --duration-s", flags["duration_s"], positive)
            self.durations = dict.fromkeys(self.durations, flag)
        self.noise = _parse_noise(flags.get("noise", cfg.get("noise")))
        self.exact = flags.get("exact", False)
        self.resamples = flags.get("resamples", tg.MIN_RESAMPLES)
        if self.resamples != 0:  # 0 disables the bootstrap
            _checked(_check_int, "resamples", self.resamples, tg.MIN_RESAMPLES, tg.MAX_RESAMPLES)
        try:
            self.budget = budget_mod.RateBudget.from_dict(cfg.get("budget", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad budget config: {exc}") from exc
        self.counts_csv = flags.get("counts_csv")
        self.points = _checked(_check_int, "points", flags.get("points", _FRINGE_POINTS),
                               ms.MIN_FRINGE_POINTS, MAX_FRINGE_POINTS)
        # the seed is read by a random draw or a bootstrap, and by nothing else
        draws = self.counts_csv is None and not self.exact
        if not (draws or "resamples" in self.keys and self.resamples > 0):
            self.keys = tuple(k for k in self.keys if k != "seed")
        self.out = Path(flags["out"])
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out}: {exc}") from exc

    def config(self, table=None) -> dict:
        """The values of the inputs the command read, by provenance key; a table
        read from a file brings its one duration, which its analysis checked."""
        duration = table[0].setting.duration_s if table else self.durations.get(self.command)
        values = {**vars(self), "noise": self.noise.as_dict(), "duration_s": duration,
                  "budget": self.budget.as_dict()}
        return {key: values[key] for key in self.keys}


def _tomography(res: _Resolved, records) -> dict:
    """Reconstruction of a count table, with bootstrap metrics if asked."""
    run = tg.reconstruct(records)
    if res.resamples > 0:
        boot = tg.metric_uncertainties(records, n_resamples=res.resamples, seed=res.seed)
        metrics = boot.as_dict()
    else:
        metrics = {
            "fidelity": tg.fidelity(run.rho_mle, src.hybrid_singlet_ket()),
            "concurrence": tg.concurrence(run.rho_mle),
            "linear_entropy": tg.linear_entropy(run.rho_mle),
            "uncertainties": None,
        }
    return {
        "rho_linear": matrix_to_json(run.rho_linear),
        "rho_mle": matrix_to_json(run.rho_mle),
        "metrics": metrics,
        "loglik": run.loglik,
        "loglik_gap_bound": run.loglik_gap_bound,
        "converged": run.converged,
        "n_iter": run.n_iter,
    }


def _draw_fringe(res: _Resolved, rho) -> list:
    """Two scans over a period, against Bob's +2 and h analyzers."""
    grid = np.linspace(0.0, 2.0 * np.pi, res.points, endpoint=False)
    records = []
    for scan_index, bob in enumerate(("+2", "h")):
        records += ms.fringe_scan(
            rho, bob, grid, res.rate_cps, res.durations["fringe"],
            seed=res.seed, scan_index=scan_index, exact=res.exact,
        )
    return records


def _fringe(res: _Resolved, records) -> dict:
    """The fit of each scan, the records of one Bob label, over the angles
    of its Alice tags; the points themselves stay in the count file."""
    scans = {}
    for r in records:
        scans.setdefault(r.setting.bob, []).append(r)
    fits = {}
    for bob, scan in scans.items():
        n0, vis, phi0 = ms.fit_fringe(scan)
        fits[bob] = {"n0": n0, "visibility": vis, "phi0": phi0}
    return fits


@dataclasses.dataclass(frozen=True)
class _Experiment:
    help: str
    # (resolved settings, prepared state) -> count records; None draws none
    draw: Callable | None
    # (resolved settings, count records or None) -> result
    analyze: Callable
    # provenance keys of what it can read, in help order, and of what its
    # analysis reads, which a reanalysis of a table keeps
    inputs: tuple[str, ...]
    analysis: tuple[str, ...] = ()
    # the text its command prints after writing the result
    report: Callable | None = None


_EXPERIMENTS = {
    "tomography": _Experiment(
        "36-setting reconstruction", lambda res, rho: tg.simulate_tomography(
            rho, res.rate_cps, res.durations["tomography"], res.seed, exact=res.exact),
        _tomography,
        ("seed", "duration_s", "rate_cps", "noise", "budget", "resamples", "exact",
         "counts_csv"),
        analysis=("seed", "resamples"),
    ),
    "fringe": _Experiment(
        "analyzer rotation scan", _draw_fringe, _fringe,
        ("seed", "duration_s", "rate_cps", "noise", "exact", "points"),
    ),
    "chsh": _Experiment(
        "S measurement", lambda res, rho: bell.chsh_records(
            rho, res.rate_cps, res.durations["chsh"], res.seed, res.exact),
        lambda res, records: bell.ChshResult.from_records(records).as_dict(),
        ("seed", "duration_s", "rate_cps", "noise", "exact"),
    ),
    "budget": _Experiment(
        "rate bookkeeping", None,
        lambda res, records: budget_mod.budget_report(res.budget),
        ("budget",), report=budget_mod.format_report,
    ),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _inputs(command: str) -> tuple[str, ...]:
    """Provenance keys of every input a command can read: its row's, or for
    the pipeline every row's that it does not fix, with every duration."""
    if command in _EXPERIMENTS:
        return _EXPERIMENTS[command].inputs
    read = dict.fromkeys(k for row in _EXPERIMENTS.values() for k in row.inputs if k not in _OWN)
    return tuple("durations" if k == "duration_s" else k for k in read)


def _read_inputs(command: str, flags: dict) -> tuple[str, ...]:
    """The inputs a command reads: its row's, without a table it was not given.
    A reanalysis reads its table and its analysis's inputs, and refuses the rest."""
    keys = _inputs(command)
    if "counts_csv" not in flags:
        return tuple(k for k in keys if k != "counts_csv")
    read = ("counts_csv", *_EXPERIMENTS[command].analysis)
    refused = [_flag(k) for k in keys if k in flags and k not in read]
    if refused:
        raise ConfigError(f"{', '.join(refused)} not allowed with --counts-csv")
    return (*read, "duration_s")


def _run(res: _Resolved) -> None:
    """Run a command's rows on one prepared state: draw and write each row's
    count table, or read the one given, and analyse it."""
    command = res.command
    rows = _EXPERIMENTS if command == "pipeline" else {command: _EXPERIMENTS[command]}
    # an experiment that reads the noise reads the state it shapes
    rho, success = (
        src.prepare_hybrid(res.noise, res.budget) if "noise" in res.keys else (None, None)
    )
    results = {}
    # a table read from a file is not written back to --out, which may hold it
    table = None if res.counts_csv is None else ms.read_counts_csv(res.counts_csv)
    for name, row in rows.items():
        records = table
        if records is None and row.draw is not None:
            records = row.draw(res, rho)
            stem = command if name == command else f"{command}_{name}"
            ms.write_counts_csv(records, res.out / f"{stem}_counts.csv")
        results[name] = row.analyze(res, records)
    payload = results if command == "pipeline" else results[command]
    if "tomography" in rows:
        payload["success_probability"] = success
    config = res.config(table)
    payload["provenance"] = {"command": command, "config": config, "version": __version__}
    if "seed" in config:
        payload["provenance"]["seed"] = res.seed
    write_json(payload, res.out / f"{command}.json")
    if command != "pipeline" and rows[command].report:
        print(rows[command].report(payload))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridoam",
        description="Simulate the hybrid polarization-OAM entanglement bench.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {name: row.help for name, row in _EXPERIMENTS.items()}
    helps["pipeline"] = " + ".join(_EXPERIMENTS) + " on one state"
    for command, text in helps.items():
        # a flag not given stays out of the namespace, so a run can tell
        p = sub.add_parser(command, help=text, argument_default=argparse.SUPPRESS)
        # the parser whose usage line a late usage error is reported under
        p.set_defaults(command_parser=p)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        for key in _inputs(command):
            # the pipeline's durations are set by the one --duration-s; the budget has none
            key = "duration_s" if key == "durations" else key
            if key in _FLAGS:
                p.add_argument(_flag(key), **_FLAGS[key])
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # as every usage error, under the command's usage line
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        res = _Resolved(args)
    except ConfigError as exc:
        args.command_parser.error(str(exc))
    try:
        _run(res)
    except Exception as exc:  # runtime failure contract: error JSON, exit 1
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record, sort_keys=True))
        return 1
    return 0
