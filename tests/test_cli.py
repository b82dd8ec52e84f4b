import copy
import json
import math

import numpy as np
import pytest

from hybridoam.bell import ChshResult
from hybridoam.budget import RateBudget
from hybridoam.cli import MAX_FRINGE_POINTS, build_parser, main
from hybridoam.measurement import (
    MIN_FRINGE_POINTS,
    fit_fringe,
    read_counts_csv,
    write_counts_csv,
)
from hybridoam.source import noise_preset, prepare_hybrid
from hybridoam.states import _check_int, _check_real, matrix_to_json
from hybridoam.tomography import (
    MAX_RESAMPLES,
    MIN_RESAMPLES,
    reconstruct,
    simulate_tomography,
)

S_MAX = 2.0 * np.sqrt(2.0)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_budget_command(tmp_path, capsys):
    assert main(["budget", "--out", str(tmp_path)]) == 0
    d = load(tmp_path / "budget.json")
    assert abs(d["prep_probability"] - 0.40) < 1e-12
    assert abs(d["det_probability"] - 0.08) < 1e-12
    assert abs(d["upgrade"]["projected_observed_rate_cps"] - 800.0) < 1e-9
    out = capsys.readouterr().out
    assert "p_prep" in out and "192.0" in out


def test_budget_json_is_strict_when_a_rate_vanishes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": {"c_source_cps": 0}}))
    assert main(["budget", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def reject(constant):
        raise AssertionError(f"non-JSON constant {constant} in budget.json")

    d = json.loads((tmp_path / "budget.json").read_text(), parse_constant=reject)
    assert d["upgrade"]["rate_gain"] is None
    assert d["expected_rate_cps"] == 0.0


def test_chsh_exact_command(tmp_path):
    assert main(["chsh", "--exact", "--out", str(tmp_path)]) == 0
    d = load(tmp_path / "chsh.json")
    assert abs(d["S"] - S_MAX) < 1e-12
    assert d["sigma"] is None and d["mode"] == "exact"
    assert d["provenance"]["command"] == "chsh"


def test_chsh_empirical_command(tmp_path):
    code = main(
        ["chsh", "--noise", "fitted", "--seed", "5", "--out", str(tmp_path)]
    )
    assert code == 0
    d = load(tmp_path / "chsh.json")
    assert d["mode"] == "empirical"
    assert d["sigma"] > 0
    assert abs(d["S"]) < S_MAX + 0.5


def test_fringe_exact_command(tmp_path):
    assert main(["fringe", "--exact", "--out", str(tmp_path)]) == 0
    d = load(tmp_path / "fringe.json")
    # one fit per Bob analyzer, +2 then h, each with full visibility
    assert list(d) == ["+2", "h", "provenance"]
    for bob, phi0 in (("+2", 0.0), ("h", -np.pi / 2)):
        assert abs(d[bob]["visibility"] - 1.0) < 1e-9
        assert abs(d[bob]["phi0"] - phi0) < 1e-9
        assert len(d[bob]["points"]) == 16
    assert (tmp_path / "fringe_counts.csv").exists()


def test_tomography_exact_command(tmp_path):
    code = main(
        ["tomography", "--exact", "--resamples", "0", "--out", str(tmp_path)]
    )
    assert code == 0
    d = load(tmp_path / "tomography.json")
    assert abs(d["metrics"]["fidelity"] - 1.0) < 1e-9
    assert d["metrics"]["uncertainties"] is None
    assert abs(d["success_probability"] - 0.5) < 1e-12
    assert (tmp_path / "tomography_counts.csv").exists()


def test_tomography_from_counts_csv(tmp_path):
    outa = tmp_path / "a"
    outb = tmp_path / "b"
    assert main(
        ["tomography", "--noise", "fitted", "--seed", "9", "--resamples", "0",
         "--out", str(outa)]
    ) == 0
    assert main(
        ["tomography", "--counts-csv", str(outa / "tomography_counts.csv"),
         "--resamples", "0", "--out", str(outb)]
    ) == 0
    da = load(outa / "tomography.json")
    db = load(outb / "tomography.json")
    assert db["rho_mle"] == da["rho_mle"]
    assert db["success_probability"] is None
    # with the bootstrap on, the metrics say how many resamples it refused
    outc = tmp_path / "c"
    assert main(
        ["tomography", "--counts-csv", str(outa / "tomography_counts.csv"),
         "--out", str(outc)]
    ) == 0
    dc = load(outc / "tomography.json")
    metrics = dc["metrics"]
    assert metrics["failed_resamples"] == 0
    assert metrics["unconverged_resamples"] == 0
    assert metrics["uncertainties"]["fidelity"] > 0
    # the bootstrap reuses the point estimate instead of solving the table again
    assert dc["rho_mle"] == db["rho_mle"]
    for name in ("fidelity", "concurrence", "linear_entropy"):
        assert metrics[name] == db["metrics"][name]
    # the solver's certificate ships next to the likelihood it certifies
    for d in (da, db, dc):
        assert d["converged"] is True
        assert d["loglik_gap_bound"] <= 1e-6


def test_reanalysis_records_its_table(tmp_path):
    table = tmp_path / "table"
    assert main(["tomography", "--noise", "fitted", "--rate-cps", "5", "--duration-s", "30",
                 "--resamples", "0", "--out", str(table)]) == 0
    csv = table / "tomography_counts.csv"
    before = csv.read_bytes()
    # the table is read from --out itself and is not written back; with no
    # bootstrap, nothing reads the seed, which is then not echoed
    assert main(["tomography", "--counts-csv", str(csv), "--seed", "4", "--resamples", "0",
                 "--out", str(table)]) == 0
    assert csv.read_bytes() == before
    prov = load(table / "tomography.json")["provenance"]
    assert prov["config"] == {"counts_csv": str(csv), "duration_s": 30.0, "resamples": 0}
    assert "seed" not in prov
    # the bootstrap reads it
    assert main(["tomography", "--counts-csv", str(csv), "--seed", "4",
                 "--out", str(table)]) == 0
    assert csv.read_bytes() == before
    prov = load(table / "tomography.json")["provenance"]
    assert prov["config"] == {
        "counts_csv": str(csv), "duration_s": 30.0, "seed": 4, "resamples": 100,
    }
    assert prov["seed"] == 4


def _assert_same_files(outa, outb):
    """Two output directories hold the same files, byte for byte."""
    names = sorted(p.name for p in outa.iterdir())
    assert names == sorted(p.name for p in outb.iterdir())
    assert names == [
        "pipeline.json", "pipeline_chsh_counts.csv", "pipeline_fringe_counts.csv",
        "pipeline_tomography_counts.csv",
    ]
    for name in names:
        assert (outa / name).read_bytes() == (outb / name).read_bytes(), name


def test_pipeline_reruns_are_byte_identical(tmp_path):
    args = ["pipeline", "--noise", "fitted", "--seed", "11", "--resamples", "0"]
    outa = tmp_path / "a"
    outb = tmp_path / "b"
    assert main(args + ["--out", str(outa)]) == 0
    assert main(args + ["--out", str(outb)]) == 0
    _assert_same_files(outa, outb)
    d = load(outa / "pipeline.json")
    assert set(d["fringe"]) == {"+2", "h"}
    assert d["chsh"]["mode"] == "empirical"
    assert abs(d["budget"]["expected_rate_cps"] - 192.0) < 1e-9
    # with the default 100 resamples the bootstrap's one stream is pinned too
    boot = ["pipeline", "--noise", "fitted", "--seed", "11"]
    for out in (tmp_path / "c", tmp_path / "d"):
        assert main(boot + ["--out", str(out)]) == 0
    _assert_same_files(tmp_path / "c", tmp_path / "d")
    metrics = load(tmp_path / "c" / "pipeline.json")["tomography"]["metrics"]
    assert metrics["uncertainties"]["fidelity"] > 0


def _theta(record):
    return float(record.setting.alice[len("theta="):])


def _refit(records):
    """Each scan's fit and (theta, counts) points from its records, by Bob
    label, in record order."""
    scans = {}
    for r in records:
        scans.setdefault(r.setting.bob, []).append(r)
    return {
        bob: (fit_fringe(scan), [(_theta(r), float(r.counts)) for r in scan])
        for bob, scan in scans.items()
    }


def test_every_count_file_reproduces_its_result(tmp_path):
    # each counts file, read back, gives its command's result through the
    # public analysis, float for float
    runs = {
        "tomography": ["tomography", "--noise", "fitted", "--resamples", "0"],
        "chsh": ["chsh", "--noise", "fitted"],
        "fringe": ["fringe", "--noise", "fitted"],
        "pipeline": ["pipeline", "--noise", "fitted", "--resamples", "0"],
    }
    for command, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / command)]) == 0
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.glob("*/*_counts.csv"))
    assert files == [
        "chsh/chsh_counts.csv", "fringe/fringe_counts.csv", "pipeline/pipeline_chsh_counts.csv",
        "pipeline/pipeline_fringe_counts.csv", "pipeline/pipeline_tomography_counts.csv",
        "tomography/tomography_counts.csv",
    ]

    def table(command, name):
        return read_counts_csv(tmp_path / command / f"{name}_counts.csv")

    pipeline = load(tmp_path / "pipeline" / "pipeline.json")
    # a command runs the pipeline's row: its count file is the pipeline's,
    # and its result, without the provenance, the pipeline's block
    # (tomography's with the success probability the pipeline reports once)
    for command in ("tomography", "chsh", "fringe"):
        counts = f"{command}_counts.csv"
        assert (tmp_path / command / counts).read_bytes() == (
            tmp_path / "pipeline" / f"pipeline_{counts}").read_bytes(), command
        single = load(tmp_path / command / f"{command}.json")
        assert single.pop("provenance")["command"] == command
        block = pipeline[command]
        if command == "tomography":
            block = {**block, "success_probability": pipeline["success_probability"]}
        assert single == block, command
    for result, records in (
        (load(tmp_path / "chsh" / "chsh.json"), table("chsh", "chsh")),
        (pipeline["chsh"], table("pipeline", "pipeline_chsh")),
    ):
        s = ChshResult.from_records(records)
        assert (s.s, s.sigma, list(s.correlations)) == (
            result["S"], result["sigma"], result["correlations"]
        )
    single = load(tmp_path / "fringe" / "fringe.json")
    del single["provenance"]
    fringes = {"fringe": (single, table("fringe", "fringe")),
               "pipeline": (pipeline["fringe"], table("pipeline", "pipeline_fringe"))}
    for command, (results, records) in fringes.items():
        # the +2 scan, then the h scan, each in grid order at 15 s
        refits = _refit(records)
        assert list(refits) == ["+2", "h"], command
        assert list(refits) == list(results), command
        assert {r.setting.duration_s for r in records} == {15.0}
        for bob, ((n0, vis, phi0), points) in refits.items():
            assert len(points) == 16
            assert [_theta(r) for r in records if r.setting.bob == bob] == list(
                np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
            )
            result = results[bob]
            assert (n0, vis, phi0) == (result["n0"], result["visibility"], result["phi0"])
            assert [list(p) for p in points] == result["points"], (command, bob)
    run = reconstruct(table("pipeline", "pipeline_tomography"))
    tomography = pipeline["tomography"]
    assert matrix_to_json(run.rho_mle) == tomography["rho_mle"]
    assert matrix_to_json(run.rho_linear) == tomography["rho_linear"]
    assert (run.loglik, run.n_iter) == (tomography["loglik"], tomography["n_iter"])


def test_pipeline_honours_duration_flag(tmp_path):
    args = ["pipeline", "--resamples", "0", "--seed", "1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--duration-s", "300", "--out", str(tmp_path / "b")]) == 0
    name = "pipeline_tomography_counts.csv"
    assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    da = load(tmp_path / "a" / "pipeline.json")
    db = load(tmp_path / "b" / "pipeline.json")
    assert da["provenance"]["config"]["durations"] == {
        "tomography": 15.0, "fringe": 15.0, "chsh": 60.0,
    }
    assert db["provenance"]["config"]["durations"] == {
        "tomography": 300.0, "fringe": 300.0, "chsh": 300.0,
    }
    assert da["fringe"]["+2"]["points"] != db["fringe"]["+2"]["points"]
    assert da["chsh"]["sigma"] > db["chsh"]["sigma"]


def test_pipeline_exact_is_seed_invariant(tmp_path):
    outa = tmp_path / "a"
    outb = tmp_path / "b"
    assert main(["pipeline", "--exact", "--resamples", "0", "--seed", "1",
                 "--out", str(outa)]) == 0
    assert main(["pipeline", "--exact", "--resamples", "0", "--seed", "2",
                 "--out", str(outb)]) == 0
    da = load(outa / "pipeline.json")
    db = load(outb / "pipeline.json")
    assert da["tomography"]["rho_mle"] == db["tomography"]["rho_mle"]
    assert da["chsh"]["S"] == db["chsh"]["S"]
    assert abs(da["chsh"]["S"] - S_MAX) < 1e-9


def test_success_probability_is_the_budgets_prep_transfer_efficiency(tmp_path, capsys):
    # the reported success and the same file's budget come from one value,
    # which the config file sets and the provenance echoes
    # the last is a deterministic chain: both transferrers succeed every time
    deterministic = {"transfer_prep_eff": 1.0, "transfer_det_eff": 1.0}
    cases = [({}, 0.5), ({"transfer_prep_eff": 0.3}, 0.3), (deterministic, 1.0)]
    for i, (budget, success) in enumerate(cases):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"budget": budget}))
        echoed = RateBudget.from_dict(budget).as_dict()
        runs = {
            "pipeline": ["pipeline", "--exact", "--resamples", "0"],
            "tomography": ["tomography", "--exact", "--resamples", "0"],
            "budget": ["budget"],
        }
        for command, argv in runs.items():
            out = tmp_path / f"{command}{i}"
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
            d = load(out / f"{command}.json")
            assert d["provenance"]["config"]["budget"] == echoed, (command, budget)
            if command != "budget":
                assert d["success_probability"] == success == echoed["transfer_prep_eff"]
            report = d["budget"] if command == "pipeline" else d
            if command != "tomography":
                assert report["budget"] == echoed
                assert report["prep_probability"] == report["budget"]["qplate_eff"] * success
    # a reanalysis reads no budget, and reports no success
    table = tmp_path / "tomography1" / "tomography_counts.csv"
    assert main(["tomography", "--counts-csv", str(table), "--resamples", "0",
                 "--config", str(tmp_path / "cfg1.json"), "--out", str(tmp_path / "re")]) == 0
    d = load(tmp_path / "re" / "tomography.json")
    assert d["success_probability"] is None and "budget" not in d["provenance"]["config"]
    capsys.readouterr()
    # the unit-success chain doubles both arms' probabilities, as the
    # upgraded budget does
    d = load(tmp_path / "budget2" / "budget.json")
    assert abs(d["prep_probability"] - 0.80) < 1e-12
    assert abs(d["det_probability"] - 0.16) < 1e-12


# the provenance keys of the inputs each command reads, in a run that draws
# counts at random; the pipeline reads every experiment's duration, and
# tomography also takes --counts-csv
_INPUTS = {
    "tomography": {"seed", "duration_s", "rate_cps", "noise", "budget", "resamples", "exact"},
    "fringe": {"seed", "duration_s", "rate_cps", "noise", "exact", "points"},
    "chsh": {"seed", "duration_s", "rate_cps", "noise", "exact"},
    "budget": {"budget"},
    "pipeline": {"seed", "durations", "rate_cps", "noise", "budget", "resamples", "exact"},
}
# every flag a command may offer, with a value it accepts (None: a switch)
_FLAG_VALUES = {
    "--seed": "1", "--duration-s": "5", "--rate-cps": "5", "--noise": "ideal",
    "--resamples": "0", "--exact": None, "--counts-csv": "table.csv", "--points": "8",
}


def _flag(key):
    return "--duration-s" if key == "durations" else "--" + key.replace("_", "-")


def test_each_command_offers_and_echoes_exactly_its_inputs(tmp_path, capsys):
    # one config file with every key serves every command; each echoes only
    # the values it read
    durations = {"tomography": 10.0, "fringe": 10.0, "chsh": 20.0}
    budget = {"transfer_prep_eff": 0.4}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "noise": "fitted", "rate_cps": 50.0, "seed": 3, "durations": durations, "budget": budget,
    }))
    # the value each input echoes: the file's, or a flag's default
    values = {
        "seed": 3, "rate_cps": 50.0, "noise": noise_preset("fitted").as_dict(),
        "durations": durations, "budget": RateBudget.from_dict(budget).as_dict(),
        "resamples": 100, "exact": False, "points": 16,
    }
    parser = build_parser()
    offered = {}
    for command, inputs in _INPUTS.items():
        offered[command] = set()
        for flag, value in _FLAG_VALUES.items():
            argv = [command, flag] + ([] if value is None else [value])
            try:
                parser.parse_args(argv)
                offered[command].add(flag)
            except SystemExit:
                assert "unrecognized arguments" in capsys.readouterr().err, argv
        own = {"--counts-csv"} if command == "tomography" else set()
        # the budget has no flag: only the config file sets it
        assert offered[command] == {_flag(k) for k in inputs - {"budget"}} | own, command
        for flag in ("--config", "--out"):
            parser.parse_args([command, flag, "x"])
        # the seed is read only by a random draw or a bootstrap: an exact run
        # reads it only where it bootstraps
        modes = {(): inputs}
        if "exact" in inputs:
            modes[("--exact",)] = inputs - {"seed"}
        if "resamples" in inputs:
            modes = {(*mode, "--resamples", "0"): keys for mode, keys in modes.items()}
            modes[("--exact",)] = inputs
        for mode, keys in modes.items():
            out = tmp_path / command / "-".join(mode)
            assert main([command, *mode, "--config", str(cfg), "--out", str(out)]) == 0
            capsys.readouterr()
            prov = load(out / f"{command}.json")["provenance"]
            assert set(prov["config"]) == keys, (command, mode)
            assert ("seed" in prov) == ("seed" in keys), (command, mode)
            expected = {
                **values, "duration_s": durations.get(command), "exact": "--exact" in mode,
                "resamples": 0 if "0" in mode else 100,
            }
            assert prov["config"] == {k: expected[k] for k in keys}, (command, mode)
            assert prov.get("seed", 3) == 3
    # with --config and --out, 34 flags over the five commands
    assert sum(len(flags) + 2 for flags in offered.values()) == 34


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rate_cps": 50.0, "seed": 3, "noise": "fitted"}))
    out = tmp_path / "out"
    assert main(["chsh", "--config", str(cfg), "--rate-cps", "200",
                 "--out", str(out)]) == 0
    prov = load(out / "chsh.json")["provenance"]
    assert prov["config"]["rate_cps"] == 200.0  # flag beats config
    assert prov["seed"] == 3  # config beats default
    assert prov["config"]["noise"]["miscal_angle"] > 0


def test_usage_errors_exit_2(tmp_path, capsys):
    def config(payload):
        path = tmp_path / f"cfg{len(list(tmp_path.glob('cfg*')))}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    cases = [
        (["chsh", "--noise", "lab"], "unknown noise preset"),
        (["budget", "--config", config({"gain": 3})], "unknown config keys"),
        (["chsh", "--rate-cps", "-5"], "rate_cps"),
        (["chsh", "--config", config({"seed": "x"})], "seed"),
        (["chsh", "--exact", "--config", config({"seed": "7"})], "seed"),
        (["chsh", "--exact", "--config", config({"rate_cps": "50"})], "rate_cps"),
        (["chsh", "--exact", "--config", config({"durations": {"chsh": "20"}})],
         "duration chsh"),
        (["chsh", "--config", config({"durations": {"chsh": "abc"}})], "chsh"),
        (["pipeline", "--config", config({"durations": {"tomografy": 5}})],
         "tomografy"),
        (["fringe", "--points", "0"], "points must lie in [4, 10000], got 0"),
        (["fringe", "--points", "-3"], "points must lie in [4, 10000], got -3"),
        # and at most MAX_FRINGE_POINTS, refused as the flag is parsed, before any draw
        (["fringe", "--points", "10001"], "points must lie in [4, 10000], got 10001"),
        (["fringe", "--exact", "--points", str(10**12)], "points must lie in [4, 10000]"),
        (["fringe", "--points", "1e3"], "argument --points: invalid int value: '1e3'"),
        (["chsh", "--exact", "--config", config({"seed": 3.7})], "seed"),
        # a seed is a JSON integer, as the streams and CountRecord take it
        (["chsh", "--exact", "--config", config({"seed": 3.0})],
         "seed must be an integer, got float"),
        (["chsh", "--exact", "--config", config({"seed": True})], "seed"),
        (["chsh", "--exact", "--config", config({"rate_cps": False})], "rate_cps"),
        (["chsh", "--rate-cps", "inf"], "rate_cps"),
        (["chsh", "--rate-cps", "nan"], "rate_cps"),
        (["chsh", "--exact", "--rate-cps", "inf"], "rate_cps"),
        (["chsh", "--exact", "--rate-cps", "nan"], "rate_cps"),
        (["chsh", "--exact", "--config", config({"rate_cps": float("inf")})],
         "rate_cps"),
        (["chsh", "--exact", "--config", config({"durations": {"chsh": True}})],
         "duration chsh"),
        # --duration-s overrides every duration, but a bad one in the config still fails
        (["chsh", "--exact", "--duration-s", "5",
          "--config", config({"durations": {"fringe": -1}})], "duration fringe"),
        # the fringe command scans +2 and h, as the pipeline does, and has no --bob
        (["fringe", "--exact", "--bob", "xyz"], "unrecognized arguments: --bob xyz"),
        (["fringe", "--exact", "--bob", "H"], "unrecognized arguments: --bob H"),
        (["tomography", "--exact", "--resamples", "1"], "resamples must lie in [100, 10000]"),
        (["tomography", "--exact", "--resamples", "99"], "resamples must lie in [100, 10000]"),
        # and at most MAX_RESAMPLES: 10**12 would allocate 262 TiB of draws
        (["tomography", "--exact", "--resamples", "10001"],
         "resamples must lie in [100, 10000], got 10001"),
        (["pipeline", "--exact", "--resamples", str(10**12)],
         "resamples must lie in [100, 10000]"),
        (["pipeline", "--exact", "--resamples", "50"], "resamples must lie in [100, 10000]"),
        # only the commands that bootstrap take --resamples
        (["chsh", "--resamples", "5"], "unrecognized arguments: --resamples"),
        (["chsh", "--resamples", "0"], "unrecognized arguments: --resamples"),
        (["budget", "--resamples", "50"], "unrecognized arguments: --resamples"),
        (["fringe", "--resamples", "100"], "unrecognized arguments: --resamples"),
        # a table read from a file has no expectations to take
        (["tomography", "--counts-csv", "counts.csv", "--exact"], "not allowed with"),
        (["tomography", "--exact", "--counts-csv", "counts.csv"], "not allowed with"),
        # nor the inputs its own records replace
        *[(["tomography", "--counts-csv", "counts.csv", *flag], "not allowed with")
          for flag in (["--noise", "fitted"], ["--rate-cps", "5"], ["--duration-s", "30"])],
        (["chsh", "--seed", "-1"], "seed"),
        (["chsh", "--exact", "--seed", "-1"], "seed"),
        # a command offers only the flags of the inputs it reads
        (["budget", "--seed", "-1"], "unrecognized arguments: --seed"),
        (["fringe", "--deterministic-transferrers"],
         "unrecognized arguments: --deterministic-transferrers"),
        # the budget comes from the config file alone, so the command's usage
        # line lists its real flags
        (["budget", "--deterministic-transferrers"],
         "unrecognized arguments: --deterministic-transferrers"),
        (["chsh", "--config", config({"seed": -3})], "seed"),
        (["budget", "--config", config({"budget": {"c_source_cps": float("nan")}})],
         "c_source_cps"),
        # a deterministic stage is a transfer efficiency of 1.0, not a key of its own
        *[(["budget", "--config", config({"budget": {f"deterministic_{stage}": True}})],
           "unknown budget keys") for stage in ("prep", "det")],
        (["budget", "--config", config({"budget": {"qplate_eff": True}})],
         "qplate_eff"),
        (["budget", "--config", config({"budget": {"fiber_coupling": "0.2"}})],
         "fiber_coupling"),
        (["chsh", "--exact", "--config", config({"noise": {"werner_p": True}})],
         "werner_p"),
        (["chsh", "--exact", "--noise", '{"miscal_angle": false}'], "miscal_angle"),
        # integers past float64's range, which float() cannot convert
        (["chsh", "--exact", "--noise", json.dumps({"miscal_angle": 10**400})],
         "miscal_angle"),
        (["budget", "--config", config({"budget": {"c_source_cps": 10**400}})],
         "c_source_cps"),
        (["budget", "--config", config([1, 2])], "config root must be a JSON object"),
        # a noise model given as a config object or as inline JSON is read one way
        (["chsh", "--exact", "--config", config({"noise": {"bogus": 1}})],
         "bad noise model: unknown noise keys: ['bogus']"),
        (["chsh", "--exact", "--noise", '{"bogus": 1}'],
         "bad noise model: unknown noise keys: ['bogus']"),
        (["chsh", "--exact", "--noise", '{"werner_p": '], "bad noise model: Expecting value"),
        # a config noise value is a preset name or an object, nothing else
        *[(["chsh", "--exact", "--config", config({"noise": value})],
           f"bad noise model: noise must be an object, got {kind}")
          for value, kind in ((0.9, "float"), (["fitted"], "list"), (True, "bool"))],
        # and a budget value is an object, refused by its type
        *[(["budget", "--config", config({"budget": value})],
           f"bad budget config: budget must be an object, got {kind}")
          for value, kind in (("qplate_eff", "str"), (None, "NoneType"), (7, "int"),
                              ([1], "list"))],
    ]
    # an integer past Python's 4,300-digit limit, which json.load refuses to read
    huge = tmp_path / "huge.json"
    huge.write_text('{"seed": 1' + "0" * 5000 + "}")
    cases.append((["chsh", "--exact", "--config", str(huge)], "cannot read config"))
    # an output directory that cannot be made, below a regular file
    cases.append((["budget", "--out", str(huge / "out")], "cannot create output directory"))
    for argv, message in cases:
        out = [] if "--out" in argv else ["--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + out)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert message in err, argv
        # an error found in or after parsing the command's flags, an unknown
        # flag among them, is reported under the command's usage
        assert err.startswith(f"usage: hybridoam {argv[0]} "), argv
        assert f"hybridoam {argv[0]}: error: " in err, argv
    with pytest.raises(SystemExit) as exc:
        main(["tomography", "--counts-csv", "t.csv", "--noise", "fitted"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hybridoam tomography [-h]")
    assert "hybridoam tomography: error: --noise not allowed with --counts-csv" in err


def test_runtime_errors_exit_1_with_error_json(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("setting,counts\nH|+2,5\n")
    code = main(["tomography", "--counts-csv", str(bad), "--out", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "ValueError"
    # counts float64 cannot hold exactly: 2**53 + 1 once certified a
    # negative gap bound, 2**62 broke the eigensolver, and 1e30 and 2**64
    # raised numpy's TypeError
    table = tmp_path / "table.csv"
    write_counts_csv(simulate_tomography(prepare_hybrid()[0], seed=1), table)
    rows = table.read_text().splitlines()
    for count in ("9007199254740993", str(2**62), "1e30", str(2**64)):
        cells = rows[1].split(",")
        cells[4] = count
        huge = tmp_path / "huge.csv"
        huge.write_text("\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n")
        code = main([
            "tomography", "--counts-csv", str(huge), "--resamples", "0", "--out", str(tmp_path),
        ])
        assert code == 1, count
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"]["type"] == "ValueError", count
        assert "2**53" in err["error"]["message"], count
    # a mean past 2**53, the most a count record holds, is refused before
    # numpy's Poisson draw, which would refuse it in its own words
    out = tmp_path / "huge_rate"
    code = main(["tomography", "--rate-cps", "1e308", "--resamples", "0", "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == {
        "type": "ValueError", "message": "mean counts above 2**53 are not exact in float64, got inf",
    }
    assert not (out / "tomography_counts.csv").exists()
    # a table whose rows mix durations
    cells = rows[1].split(",")
    assert cells[0] == "H|+2"
    cells[3], cells[4] = "30", str(2 * int(cells[4]))
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n")
    out = tmp_path / "mixed"
    assert main(["tomography", "--counts-csv", str(mixed), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "InsufficientDataError"
    assert "durations: [15.0, 30.0]" in err["error"]["message"]
    assert not (out / "tomography.json").exists()


def test_inline_noise_json(tmp_path):
    assert main(
        ["chsh", "--exact", "--noise", '{"werner_p": 0.5}', "--out", str(tmp_path)]
    ) == 0
    d = load(tmp_path / "chsh.json")
    assert abs(d["S"] - 0.5 * S_MAX) < 1e-12


# each value the CLI checks with a library guard: the command that reads
# it, its config entry (None for a flag alone), its flag, and the guard with
# the name and bounds the CLI gives it
_GUARDED = {
    "seed": (
        ["chsh", "--exact"], lambda v: {"seed": v}, "--seed", lambda v: _check_int("seed", v),
    ),
    "rate_cps": (
        ["chsh", "--exact"], lambda v: {"rate_cps": v}, "--rate-cps",
        lambda v: _check_real("rate_cps", v, 0.0),
    ),
    "duration": (
        ["chsh", "--exact"], lambda v: {"durations": {"chsh": v}}, "--duration-s",
        lambda v: _check_real("duration chsh", v, math.ulp(0.0)),
    ),
    # 0 disables the bootstrap
    "resamples": (
        ["tomography", "--exact"], None, "--resamples",
        lambda v: None if v == 0 else _check_int("resamples", v, MIN_RESAMPLES, MAX_RESAMPLES),
    ),
    "points": (
        ["fringe", "--exact"], None, "--points",
        lambda v: _check_int("points", v, MIN_FRINGE_POINTS, MAX_FRINGE_POINTS),
    ),
}


@pytest.mark.parametrize("key", _GUARDED)
def test_the_cli_refuses_exactly_what_the_library_guard_refuses(key, tmp_path, capsys):
    command, entry, flag, guard = _GUARDED[key]
    for value in (*_HOSTILE, 3.0, 10**400, 100):
        try:
            guard(value)
            message = None
        except (TypeError, ValueError) as exc:
            message = str(exc)
        # exact CHSH takes its expectations at the run's rate and duration, so
        # an accepted rate of 0 leaves no counts to correlate, and 1e308 means
        # past 2**53: runtime failures (exit 1), not usage errors
        accepted = 1 if key in ("rate_cps", "duration") and value in (0, 1e308) else 0
        runs = [[flag, str(value)]]
        if entry is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(entry(value)))  # inf and nan as Infinity and NaN
            runs.insert(0, ["--config", str(cfg)])
        for argv in runs:
            try:
                code = main([*command, *argv, "--out", str(tmp_path)])
            except SystemExit as exc:
                code = exc.code
            assert code == (accepted if message is None else 2), (argv, value)
            # argparse refuses a flag its type cannot convert in its own words;
            # a flag alone, whose type is int, passes an integer literal to the guard
            checked = argv[0] == "--config" or entry is None and str(value).lstrip("-").isdigit()
            if message is not None and checked:
                assert message in capsys.readouterr().err, value
            capsys.readouterr()


# values no config field or CSV cell should crash on
_HOSTILE = (-1, 0, 3.7, 1e308, float("inf"), float("nan"), True, "x", [], {})
_CONFIG_FIELDS = (
    ("seed",), ("rate_cps",), ("noise",), ("budget",), ("durations",),
    ("noise", "werner_p"), ("noise", "dephase_q"), ("noise", "miscal_angle"),
    ("budget", "c_source_cps"), ("budget", "qplate_eff"),
    ("budget", "transfer_prep_eff"), ("budget", "transfer_det_eff"),
    ("budget", "fiber_coupling"),
    ("durations", "chsh"), ("durations", "tomography"),
)
_FUZZ_COMMANDS = (
    ["budget"],
    ["chsh", "--exact"],
    ["tomography", "--exact", "--resamples", "0"],
)


def _run_contract(argv, out, capsys):
    """Run the CLI in-process and check its exit and output contract."""
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv
    stdout = capsys.readouterr().out
    if code == 1:
        error = json.loads(stdout.strip().splitlines()[-1])["error"]
        assert error["type"] and "message" in error, argv

    def reject(constant):
        raise AssertionError(f"non-JSON constant {constant} from {argv}")

    for path in out.glob("*.json"):
        payload = json.loads(path.read_text(), parse_constant=reject)
        if code == 0:
            # an accepted config is echoed whole: no null where it had a value
            echoed = [payload["provenance"]["config"]]
            if path.name == "budget.json":
                echoed += [payload["budget"], payload["upgrade"]["budget"]]
            assert _nulls(echoed) == 0, (argv, path.name)
    return code


def _nulls(obj) -> int:
    if isinstance(obj, dict):
        return sum(_nulls(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(_nulls(v) for v in obj)
    return obj is None


def test_fuzzed_configs_and_count_tables_keep_the_exit_contract(tmp_path, capsys):
    rng = np.random.default_rng(20261018)
    table = tmp_path / "table"
    assert main(["tomography", "--noise", "fitted", "--resamples", "0",
                 "--out", str(table)]) == 0
    header, *rows = (table / "tomography_counts.csv").read_text().splitlines()
    codes = []
    for case in range(120):
        out = tmp_path / f"run{case}"
        cfg = {}
        for i in rng.choice(len(_CONFIG_FIELDS), size=rng.integers(1, 4), replace=False):
            value = copy.deepcopy(_HOSTILE[rng.integers(len(_HOSTILE))])
            key, *inner = _CONFIG_FIELDS[i]
            if inner:
                if not isinstance(cfg.get(key), dict):
                    cfg[key] = {}
                cfg[key][inner[0]] = value
            else:
                cfg[key] = value
        path = tmp_path / f"cfg{case}.json"
        path.write_text(json.dumps(cfg))  # inf and nan as Infinity and NaN
        command = _FUZZ_COMMANDS[rng.integers(len(_FUZZ_COMMANDS))]
        codes.append(_run_contract(command + ["--config", str(path)], out, capsys))

        # one to three cells of the count table replaced by a hostile value
        cells = [line.split(",") for line in rows]
        for _ in range(rng.integers(1, 4)):
            row = cells[rng.integers(len(cells))]
            row[rng.integers(len(row))] = str(_HOSTILE[rng.integers(len(_HOSTILE))])
        csv_path = tmp_path / f"counts{case}.csv"
        csv_path.write_text("\n".join([header, *map(",".join, cells)]) + "\n")
        codes.append(_run_contract(
            ["tomography", "--counts-csv", str(csv_path), "--resamples", "0"],
            out, capsys,
        ))
    # the draw reaches every branch of the contract
    assert set(codes) == {0, 1, 2}
