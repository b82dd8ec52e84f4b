"""Batch command-line front-end.

Subcommands run the configured experiment end-to-end and write JSON (and
CSV count tables) into the --out directory.  Precedence: built-in defaults,
then the --config JSON file, then explicit flags.  Every output carries a
provenance block (command, effective config, seed, package version) and
floats are written as Python's shortest repr that reads back to the same
float64, so identical config + seed gives byte-identical files.

Exit codes: 0 success, 2 usage/config errors, 1 simulation or
reconstruction failures (with an error JSON on stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from . import bell
from . import budget as budget_mod
from . import measurement as ms
from . import source as src
from . import tomography as tg
from .states import matrix_to_json

_DEFAULT_DURATIONS = {
    "tomography": ms.DEFAULT_DURATION_S,
    "chsh": bell.DEFAULT_PAIR_DURATION_S,
    "fringe": ms.DEFAULT_DURATION_S,
}
_DEFAULT_SEED = 0
_DEFAULT_RESAMPLES = 100
_FRINGE_POINTS = 16


class ConfigError(ValueError):
    """Bad config file or flag combination (usage error, exit 2)."""


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            return None  # JSON has no NaN or infinity
        return float(obj)
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
    known = {"noise", "budget", "rate_cps", "durations", "seed"}
    extra = set(cfg) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    return cfg


def _parse_noise(spec) -> src.NoiseModel:
    if spec is None:
        return src.noise_preset("ideal")
    if isinstance(spec, dict):
        try:
            return src.NoiseModel.from_dict(spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad noise model: {exc}") from exc
    text = str(spec).strip()
    if text.startswith("{"):
        try:
            return src.NoiseModel.from_dict(json.loads(text))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad inline noise JSON: {exc}") from exc
    try:
        return src.noise_preset(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _checked(guard, value, name: str, *args):
    """A config value or flag through the library's own guard for it, whose
    refusal is a usage error."""
    try:
        return guard(value, name, *args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


class _Resolved:
    """Effective settings after merging defaults, config file, and flags."""

    def __init__(self, args):
        cfg = _load_config(args.config)
        # a flag wins over the file, and the file over the default
        seed = cfg.get("seed", _DEFAULT_SEED) if args.seed is None else args.seed
        self.seed = _checked(ms._seed, seed, "seed")
        rate = cfg.get("rate_cps", ms.DEFAULT_RATE_CPS) if args.rate_cps is None else args.rate_cps
        self.rate_cps = _checked(ms._finite_float, rate, "rate_cps", False)
        cfg_durations = cfg.get("durations", {})
        if not isinstance(cfg_durations, dict):
            raise ConfigError('"durations" must be an object')
        extra = set(cfg_durations) - set(_DEFAULT_DURATIONS)
        if extra:
            raise ConfigError(f"unknown durations keys: {sorted(extra)}")
        self.durations = {
            k: _checked(ms._finite_float, cfg_durations.get(k, v), f"duration {k}", True)
            for k, v in _DEFAULT_DURATIONS.items()
        }
        # the flag overrides every experiment's duration, each still checked above
        if args.duration_s is not None:
            flag = _checked(ms._finite_float, args.duration_s, "duration --duration-s", True)
            self.durations = dict.fromkeys(self.durations, flag)
        noise_spec = args.noise if args.noise is not None else cfg.get("noise")
        self.noise = _parse_noise(noise_spec)
        self.deterministic = bool(args.deterministic_transferrers)
        self.exact = bool(getattr(args, "exact", False))
        # only tomography and pipeline, which bootstrap, take --resamples
        resamples = getattr(args, "resamples", None)
        self.resamples = resamples if resamples is not None else _DEFAULT_RESAMPLES
        if self.resamples != 0 and self.resamples < 100:
            # the bootstrap needs at least 100 resamples for its sigmas
            raise ConfigError(
                f"resamples: 0 disables, at least 100 otherwise; got {self.resamples}"
            )
        try:
            b = budget_mod.RateBudget.from_dict(cfg.get("budget", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad budget config: {exc}") from exc
        if self.deterministic:
            b = dataclasses.replace(b, transfer_prep_eff=1.0, transfer_det_eff=1.0)
        self.budget = b
        self.out = Path(args.out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out}: {exc}") from exc

    def write(self, command: str, payload: dict, **extras) -> dict:
        """Write a command's payload to <command>.json under --out, with its
        provenance block: the command, effective config and ``extras``, the
        seed and the package version."""
        config = {
            "noise": self.noise.as_dict(),
            "rate_cps": self.rate_cps,
            "seed": self.seed,
            "deterministic_transferrers": self.deterministic,
            "exact": self.exact,
            **extras,
        }
        payload["provenance"] = {
            "command": command,
            "config": config,
            "seed": self.seed,
            "version": __version__,
        }
        write_json(payload, self.out / f"{command}.json")
        return payload


def _tomography_block(res: _Resolved, records) -> dict:
    """Reconstruction of one count table, with bootstrap metrics if asked."""
    run = tg.reconstruct(records)
    if res.resamples > 0:
        # the bootstrap takes the run, so the observed table is solved once
        metrics = tg.metric_uncertainties(
            run, n_resamples=res.resamples, seed=res.seed
        ).as_dict()
    else:
        target = src.hybrid_singlet_ket()
        metrics = {
            "fidelity": tg.fidelity(run.rho_mle, target),
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
    }


def _fringe_block(
    res: _Resolved, rho, bob: str, n_points: int, scan_index: int = 0
) -> tuple[list, dict]:
    """One analyzer scan over a period and its fit: (records, result)."""
    grid = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    records = ms.fringe_scan_records(
        rho,
        bob,
        grid,
        res.rate_cps,
        res.durations["fringe"],
        seed=res.seed,
        scan_index=scan_index,
        exact=res.exact,
    )
    points = [(float(t), float(r.counts)) for t, r in zip(grid, records)]
    n0, vis, phi0 = ms.fit_fringe(points)
    return records, {
        "n0": n0,
        "visibility": vis,
        "phi0": phi0,
        "visibility_minmax": ms.visibility_minmax(points),
        "points": [[t, c] for t, c in points],
    }


def _chsh_result(res: _Resolved, rho) -> bell.ChshResult:
    if res.exact:
        return bell.chsh_exact(rho)
    return bell.chsh_empirical(
        rho, rate_cps=res.rate_cps, duration_s=res.durations["chsh"],
        seed=res.seed,
    )


def _cmd_tomography(res: _Resolved, args) -> dict:
    duration = res.durations["tomography"]
    if args.counts_csv:
        records = ms.read_counts_csv(args.counts_csv)
        success = None
    else:
        rho, success = src.prepare_hybrid(res.noise, res.budget)
        records = tg.simulate_tomography(
            rho, res.rate_cps, duration, res.seed, exact=res.exact
        )
        ms.write_counts_csv(records, res.out / "tomography_counts.csv")
    payload = _tomography_block(res, records)
    payload["success_probability"] = success
    return res.write(
        "tomography", payload, duration_s=duration, resamples=res.resamples
    )


def _cmd_fringe(res: _Resolved, args) -> dict:
    rho, _ = src.prepare_hybrid(res.noise, res.budget)
    records, payload = _fringe_block(res, rho, args.bob, args.points)
    ms.write_counts_csv(records, res.out / "fringe_counts.csv")
    payload["bob"] = args.bob
    return res.write(
        "fringe", payload, duration_s=res.durations["fringe"], bob=args.bob,
        points=args.points,
    )


def _cmd_chsh(res: _Resolved, args) -> dict:
    rho, _ = src.prepare_hybrid(res.noise, res.budget)
    payload = _chsh_result(res, rho).as_dict()
    return res.write("chsh", payload, duration_s=res.durations["chsh"])


def _cmd_budget(res: _Resolved, args) -> dict:
    report = budget_mod.budget_report(res.budget)
    payload = res.write("budget", dict(report))
    print(budget_mod.format_report(report))
    return payload


def _cmd_pipeline(res: _Resolved, args) -> dict:
    rho, success = src.prepare_hybrid(res.noise, res.budget)
    records = tg.simulate_tomography(
        rho, res.rate_cps, res.durations["tomography"], res.seed,
        exact=res.exact,
    )
    ms.write_counts_csv(records, res.out / "pipeline_tomography_counts.csv")
    payload = {
        "success_probability": success,
        "budget": budget_mod.budget_report(res.budget),
        "tomography": _tomography_block(res, records),
        "fringe": {
            bob: _fringe_block(res, rho, bob, _FRINGE_POINTS, scan_index)[1]
            for scan_index, bob in enumerate(("+2", "h"))
        },
        "chsh": _chsh_result(res, rho).as_dict(),
    }
    return res.write(
        "pipeline", payload, resamples=res.resamples, durations=res.durations
    )


_COMMANDS = {
    "tomography": _cmd_tomography,
    "fringe": _cmd_fringe,
    "chsh": _cmd_chsh,
    "budget": _cmd_budget,
    "pipeline": _cmd_pipeline,
}


def _fringe_points(text: str) -> int:
    n = int(text)
    if n < 4:
        # the fit has three parameters and needs one more point than that
        raise argparse.ArgumentTypeError(f"need at least 4 points, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridoam",
        description="Simulate the hybrid polarization-OAM entanglement bench.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="global RNG seed")
        p.add_argument(
            "--duration-s", type=float, default=None,
            help=f"seconds per setting (default {_DEFAULT_DURATIONS['tomography']:g},"
            f" chsh {_DEFAULT_DURATIONS['chsh']:g})",
        )
        p.add_argument("--rate-cps", type=float, default=None,
                       help="detected pair rate (default 100)")
        p.add_argument("--noise", default=None,
                       help='noise preset name or inline JSON {"werner_p":...}')
        p.add_argument("--deterministic-transferrers", action="store_true",
                       help="unit-success transferrers in state prep and budget")

    def resamples(p):
        p.add_argument("--resamples", type=int, default=None,
                       help="bootstrap resamples for uncertainties (0 disables)")

    p = sub.add_parser("tomography", help="36-setting reconstruction")
    common(p)
    resamples(p)
    # a table read from a file has no expectations to take
    source = p.add_mutually_exclusive_group()
    source.add_argument("--exact", action="store_true", help="expected counts, no noise")
    source.add_argument("--counts-csv", default=None,
                        help="reconstruct from an existing count table")

    p = sub.add_parser("fringe", help="analyzer rotation scan")
    common(p)
    p.add_argument("--exact", action="store_true", help="expected counts, no noise")
    p.add_argument("--bob", default="+2", choices=tg.BOB_LABELS,
                   help="Bob projector label (default +2)")
    p.add_argument("--points", type=_fringe_points, default=_FRINGE_POINTS,
                   help="grid points over one period (at least 4)")

    p = sub.add_parser("chsh", help="S measurement")
    common(p)
    p.add_argument("--exact", action="store_true", help="Born-rule correlations")

    p = sub.add_parser("budget", help="rate bookkeeping")
    common(p)

    p = sub.add_parser("pipeline", help="tomography + fringes + chsh + budget")
    common(p)
    resamples(p)
    p.add_argument("--exact", action="store_true", help="expected counts, no noise")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        res = _Resolved(args)
    except ConfigError as exc:
        parser.error(str(exc))  # exits 2
    try:
        _COMMANDS[args.command](res, args)
    except Exception as exc:  # runtime failure contract: error JSON, exit 1
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record, sort_keys=True))
        return 1
    return 0
