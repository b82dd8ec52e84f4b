"""The CLI's process entry, `hybridoam.__main__.run`, which `python -m
hybridoam` and the `hybridoam` console script both call.  `run` freezes the
garbage collector of the process it runs in, so every run of it here is a
subprocess; the in-process API, `cli.main`, must never freeze."""

import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridoam
import hybridoam.__main__ as entry
from hybridoam.cli import main

ROOT = Path(__file__).parents[1]


def _console_script():
    """The `hybridoam` console script's (module, function), from pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["hybridoam"].partition(":")
    return module, attr


def _launchers():
    module, attr = _console_script()
    # the wrapper an installer writes for a console script
    script = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return {"python -m hybridoam": ["-m", "hybridoam"], "console script": ["-c", script]}


def _run(launcher, *args):
    env = dict(os.environ)
    src_dir = str(Path(hybridoam.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *launcher, *args], env=env, capture_output=True, text=True,
        timeout=60,
    )


@pytest.fixture(params=["python -m hybridoam", "console script"])
def launcher(request):
    return _launchers()[request.param]


def test_entry_runs_a_command_as_main_does(launcher, tmp_path, capsys):
    proc = _run(launcher, "budget", "--out", str(tmp_path / "process"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert main(["budget", "--out", str(tmp_path / "in_process")]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert "p_prep" in proc.stdout
    written = (tmp_path / "process" / "budget.json").read_bytes()
    assert written == (tmp_path / "in_process" / "budget.json").read_bytes()


def test_entry_exits_2_on_a_usage_error(launcher):
    proc = _run(launcher, "budget", "--bogus")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: hybridoam budget [-h]")
    assert "hybridoam budget: error: unrecognized arguments: --bogus" in proc.stderr


def test_entry_exits_1_with_the_error_json_on_a_runtime_failure(launcher, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("setting,counts\nH|+2,5\n")
    proc = _run(launcher, "tomography", "--counts-csv", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {"error": {
        "type": "ValueError", "message": "unexpected CSV columns: ['setting', 'counts']",
    }}
    assert not (tmp_path / "tomography.json").exists()


def test_running_the_package_as_main_freezes_its_imports(tmp_path):
    code = (
        "import gc, json, runpy, sys\n"
        "before = gc.get_freeze_count()\n"
        f"sys.argv = ['hybridoam', 'budget', '--out', {str(tmp_path)!r}]\n"
        "try:\n"
        "    runpy.run_module('hybridoam', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(json.dumps([before, gc.get_freeze_count(), exc.code]))\n"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    before, after, exit_code = json.loads(proc.stdout.splitlines()[-1])
    assert before == 0 and after > 0 and exit_code == 0
    assert (tmp_path / "budget.json").is_file()


def test_in_process_main_never_freezes(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["budget", "--out", str(tmp_path)]) == 0
    assert main(["chsh", "--exact", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == frozen


def test_console_script_is_what_main_runs():
    module, attr = _console_script()
    assert getattr(importlib.import_module(module), attr) is entry.run
    # `__main__`'s one statement under its main guard is run()
    tree = ast.parse(Path(entry.__file__).read_text())
    guards = [node for node in tree.body if isinstance(node, ast.If)]
    assert len(guards) == 1
    assert ast.unparse(guards[0].test) == "__name__ == '__main__'"
    assert [ast.unparse(stmt) for stmt in guards[0].body] == ["run()"]
