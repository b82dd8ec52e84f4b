"""The package's public API: what `import hybridoam` loads and exports, who
reads each export and each field, and the README's library example."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import types
import typing
from pathlib import Path

import hybridoam

PACKAGE = Path(hybridoam.__file__).parent


def test_import_loads_no_scipy():
    # a CLI start loads no scipy, and exactly the package modules it runs
    import hybridoam

    env = dict(os.environ)
    src_dir = str(Path(hybridoam.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    code = (
        "import json, sys, hybridoam.cli; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'hybridoam'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    modules = ("states", "source", "measurement", "tomography", "bell", "budget", "cli")
    assert json.loads(out.stdout) == sorted(
        ["hybridoam"] + [f"hybridoam.{name}" for name in modules]
    )


PUBLIC_NAMES = """
    ChshResult CountRecord DensityMatrix FitFailureError
    InsufficientDataError InvalidLabelError MeasurementSetting NoiseModel
    RateBudget StateMetrics StateVector
    TomographyRun UndefinedCorrelationError budget_report
    chsh_empirical chsh_exact chsh_records concurrence fidelity
    fit_fringe format_report fringe_scan hybrid_singlet_ket
    linear_entropy matrix_from_json matrix_to_json metric_uncertainties noise_preset prepare_hybrid read_counts_csv
    reconstruct simulate_tomography write_counts_csv
""".split()


def test_public_api_is_pinned():
    # every name `import hybridoam` exports besides its submodules, whose
    # set test_import_loads_no_scipy pins: adding or removing one is a
    # deliberate change of this list
    import types

    import hybridoam

    exported = {
        name for name, value in vars(hybridoam).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported) == sorted(PUBLIC_NAMES)
    # the README's count of them
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"exports {len(PUBLIC_NAMES)} names" in readme


# exports that no entry point reads and no user receives or catches, each
# kept for the reason given beside it in hybridoam/__init__.py
UNCALLED_EXPORTS = {"matrix_from_json"}


def _readme_quick_start():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _loaded_names(tree):
    """Names a module reads, each top-level definition's own body left out
    for its own name: a function that only calls itself has no caller."""
    found = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def _entry_sources():
    """The sources a user's run starts from: the CLI, benchmarks/workloads.py
    and the README's library quick start."""
    workloads = Path(__file__).parents[1] / "benchmarks" / "workloads.py"
    return [(PACKAGE / "cli.py").read_text(), workloads.read_text(), _readme_quick_start()]


def _run_path_trees():
    """The parsed sources a run path starts from: the package's modules but
    its __init__, benchmarks/workloads.py and the README's library quick
    start."""
    sources = [
        p.read_text() for p in sorted(PACKAGE.glob("*.py"))
        if p.name not in ("__init__.py", "cli.py")
    ]
    return [ast.parse(text) for text in sources + _entry_sources()]


def _classes_in(hint):
    """The classes a resolved annotation names, inside generics and unions."""
    found = {hint} if isinstance(hint, type) else set()
    return found.union(*map(_classes_in, typing.get_args(hint)))


def _received_classes(exports):
    """The classes an exported function returns, and in turn those a field
    of such a class holds."""
    found = set().union(*(
        _classes_in(typing.get_type_hints(inspect.unwrap(value)).get("return"))
        for value in exports.values() if inspect.isfunction(inspect.unwrap(value))
    ))
    todo = list(found)
    while todo:
        cls = todo.pop()
        if dataclasses.is_dataclass(cls):
            hints = typing.get_type_hints(cls)
            new = set().union(*(_classes_in(hints[f.name]) for f in dataclasses.fields(cls)))
            todo += new - found
            found |= new
    return found


def _raised_names():
    """Names of what the package's modules raise."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                found.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return found


def test_every_export_has_a_caller():
    # an export is what a user calls, receives or catches: a name the CLI,
    # benchmarks/workloads.py or the README's quick start reads outside its
    # own definition; a class an exported function returns, or a field of
    # one holds; an error the package raises; or a name kept for the reason
    # beside it in __init__.py.  A read from another package module does not
    # count: the chain's internal steps stay in their modules.
    exports = {
        name: value for name, value in vars(hybridoam).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    loaded = set().union(*(_loaded_names(ast.parse(text)) for text in _entry_sources()))
    received = _received_classes(exports)
    raised = _raised_names()
    caught = {
        name for name, value in exports.items()
        if isinstance(value, type) and issubclass(value, BaseException) and name in raised
    }
    kept = {name for name, value in exports.items() if value in received} | caught
    assert UNCALLED_EXPORTS <= set(exports)
    init = (PACKAGE / "__init__.py").read_text()
    for name in UNCALLED_EXPORTS:
        assert f"    {name},  # " in init, name
    uncalled = sorted(set(exports) - loaded - kept - UNCALLED_EXPORTS)
    assert uncalled == []


# fields and properties of exported dataclasses that no run path reads, each
# kept for the reason given beside it
UNREAD_FIELDS: set[str] = set()


def _attribute_reads(tree):
    """(attribute, owner) for every attribute a module reads, where owner is
    the class whose own __post_init__ holds the read, else None."""
    owner = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    owner.update((id(node), cls.name) for node in ast.walk(fn))
    return {
        (node.attr, owner.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_field_is_read_on_a_run_path():
    # every field and property of an exported dataclass is read as an
    # attribute on a run path, outside the class's own __post_init__ (a
    # value only a check reads carries nothing), or is kept for a reason
    import hybridoam

    classes = [
        value for name, value in vars(hybridoam).items()
        if name in PUBLIC_NAMES and isinstance(value, type) and dataclasses.is_dataclass(value)
    ]
    members = {
        (cls.__name__, name)
        for cls in classes
        for name in [f.name for f in dataclasses.fields(cls)]
        + [n for n, v in vars(cls).items() if isinstance(v, property)]
    }
    reads = set().union(*(_attribute_reads(tree) for tree in _run_path_trees()))
    read = {(cls, name) for cls, name in members if any(
        attr == name and where != cls for attr, where in reads
    )}
    named = {f"{cls}.{name}" for cls, name in members}
    assert UNREAD_FIELDS <= named
    unread = sorted({f"{cls}.{name}" for cls, name in members - read} - UNREAD_FIELDS)
    assert unread == []


def test_readme_quick_start_runs(capsys):
    # the README's library example, run as written, so that a renamed or
    # removed export fails here instead of leaving the example stale
    namespace = {}
    exec(compile(_readme_quick_start(), "README.md", "exec"), namespace)
    fidelity_value, s_value = map(float, capsys.readouterr().out.split())
    assert 0.85 < fidelity_value < 1.0 and 2.0 < s_value < 2.8
    assert 0.8 < namespace["v"] <= 1.0
