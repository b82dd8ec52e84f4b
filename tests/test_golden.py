import json

import numpy as np
import pytest

import golden_outputs as golden


@pytest.mark.parametrize("name", sorted(golden.RUNS))
def test_outputs_match_the_golden_set(name, tmp_path):
    """Every file of a golden run, and its stdout, as committed, by
    golden_outputs.differences: count CSVs and stdout byte for byte, JSON
    value for value with exact floats, apart from the package version."""
    golden.run(name, tmp_path)
    moved = golden.differences(name, tmp_path)
    numpy_then = json.loads((golden.GOLDEN / golden.META).read_text())["numpy"]
    hint = (
        f"{name} differs from tests/golden/{name} in {moved}; if the change is meant,"
        f" rewrite the set with tests/golden_outputs.py (written with numpy {numpy_then},"
        f" running {np.__version__})"
    )
    assert moved == [], hint
