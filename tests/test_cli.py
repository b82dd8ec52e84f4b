import copy
import json

import numpy as np
import pytest

from hybridoam.cli import main
from hybridoam.measurement import write_counts_csv
from hybridoam.source import prepare_hybrid
from hybridoam.tomography import simulate_tomography

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
    assert main(["fringe", "--exact", "--bob", "h", "--out", str(tmp_path)]) == 0
    d = load(tmp_path / "fringe.json")
    assert abs(d["visibility"] - 1.0) < 1e-9
    assert abs(d["phi0"] + np.pi / 2) < 1e-9
    assert len(d["points"]) == 16
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


def test_pipeline_reruns_are_byte_identical(tmp_path):
    args = ["pipeline", "--noise", "fitted", "--seed", "11", "--resamples", "0"]
    outa = tmp_path / "a"
    outb = tmp_path / "b"
    assert main(args + ["--out", str(outa)]) == 0
    assert main(args + ["--out", str(outb)]) == 0
    for name in ("pipeline.json", "pipeline_tomography_counts.csv"):
        assert (outa / name).read_bytes() == (outb / name).read_bytes()
    d = load(outa / "pipeline.json")
    assert set(d["fringe"]) == {"+2", "h"}
    assert d["chsh"]["mode"] == "empirical"
    assert abs(d["budget"]["expected_rate_cps"] - 192.0) < 1e-9
    # with the default 100 resamples the bootstrap's one stream is pinned too
    boot = ["pipeline", "--noise", "fitted", "--seed", "11"]
    for out in (tmp_path / "c", tmp_path / "d"):
        assert main(boot + ["--out", str(out)]) == 0
    for name in ("pipeline.json", "pipeline_tomography_counts.csv"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()
    metrics = load(tmp_path / "c" / "pipeline.json")["tomography"]["metrics"]
    assert metrics["uncertainties"]["fidelity"] > 0


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


def test_deterministic_transferrer_flag(tmp_path):
    assert main(
        ["budget", "--deterministic-transferrers", "--out", str(tmp_path)]
    ) == 0
    d = load(tmp_path / "budget.json")
    assert abs(d["prep_probability"] - 0.80) < 1e-12
    assert abs(d["det_probability"] - 0.16) < 1e-12


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
        (["fringe", "--points", "0"], "at least 4"),
        (["fringe", "--points", "-3"], "at least 4"),
        (["chsh", "--exact", "--config", config({"seed": 3.7})], "seed"),
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
        (["fringe", "--exact", "--bob", "xyz"], "invalid choice"),
        (["fringe", "--exact", "--bob", "H"], "invalid choice"),
        (["tomography", "--exact", "--resamples", "1"], "0 disables, at least 100"),
        (["tomography", "--exact", "--resamples", "99"], "0 disables, at least 100"),
        (["pipeline", "--exact", "--resamples", "50"], "0 disables, at least 100"),
        # only the commands that bootstrap take --resamples
        (["chsh", "--resamples", "5"], "unrecognized arguments: --resamples"),
        (["chsh", "--resamples", "0"], "unrecognized arguments: --resamples"),
        (["budget", "--resamples", "50"], "unrecognized arguments: --resamples"),
        (["fringe", "--resamples", "100"], "unrecognized arguments: --resamples"),
        # a table read from a file has no expectations to take
        (["tomography", "--counts-csv", "counts.csv", "--exact"], "not allowed with"),
        (["tomography", "--exact", "--counts-csv", "counts.csv"], "not allowed with"),
        (["chsh", "--seed", "-1"], "seed"),
        (["chsh", "--exact", "--seed", "-1"], "seed"),
        (["budget", "--seed", "-1"], "seed"),
        (["chsh", "--config", config({"seed": -3})], "seed"),
        (["budget", "--config", config({"budget": {"c_source_cps": float("nan")}})],
         "c_source_cps"),
        (["budget", "--config", config({"budget": {"deterministic_prep": "x"}})],
         "deterministic_prep"),
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
    ]
    # an integer past Python's 4,300-digit limit, which json.load refuses to read
    huge = tmp_path / "huge.json"
    huge.write_text('{"seed": 1' + "0" * 5000 + "}")
    cases.append((["chsh", "--exact", "--config", str(huge)], "cannot read config"))
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


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


# values no config field or CSV cell should crash on
_HOSTILE = (-1, 0, 3.7, 1e308, float("inf"), float("nan"), True, "x", [], {})
_CONFIG_FIELDS = (
    ("seed",), ("rate_cps",), ("noise",), ("budget",), ("durations",),
    ("noise", "werner_p"), ("noise", "dephase_q"), ("noise", "miscal_angle"),
    ("budget", "c_source_cps"), ("budget", "qplate_eff"),
    ("budget", "transfer_prep_eff"), ("budget", "transfer_det_eff"),
    ("budget", "fiber_coupling"), ("budget", "deterministic_prep"),
    ("budget", "deterministic_det"),
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
                for flag in ("deterministic_prep", "deterministic_det"):
                    assert isinstance(payload["budget"][flag], bool), argv
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
