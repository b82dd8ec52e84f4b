import json

import numpy as np
import pytest

import golden_outputs as golden


def _without_version(path):
    data = json.loads(path.read_text())
    data["provenance"].pop("version")
    return data


@pytest.mark.parametrize("name", sorted(golden.RUNS))
def test_outputs_match_the_golden_set(name, tmp_path):
    """Every file of a golden run, and its stdout, as committed: count CSVs
    and stdout byte for byte, JSON value for value with exact floats, apart
    from the package version."""
    expected = golden.GOLDEN / name
    stdout = golden.run(name, tmp_path)
    numpy_then = json.loads((golden.GOLDEN / golden.META).read_text())["numpy"]
    hint = (
        f"{name} differs from tests/golden/{name}; if the change is meant, rewrite"
        f" the set with tests/golden_outputs.py (written with numpy {numpy_then},"
        f" running {np.__version__})"
    )
    assert stdout == (expected / golden.STDOUT).read_text(), hint
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted(p.name for p in expected.iterdir() if p.name != golden.STDOUT), hint
    for f in files:
        if f.endswith(".json"):
            assert _without_version(tmp_path / f) == _without_version(expected / f), (hint, f)
        else:
            assert (tmp_path / f).read_bytes() == (expected / f).read_bytes(), (hint, f)
