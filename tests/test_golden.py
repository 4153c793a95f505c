"""Replays ``tests/golden.json``, the golden output grid that
``scripts/make_golden.py`` writes: each cell must give the outputs the
commit that wrote the file gave.  Labels, metrics, indices and sweep
trial accuracies must match exactly; scores, chi-square statistics and
p-values within 1e-12."""

import json

import numpy as np
import pytest

from conftest import load_script

golden = load_script("make_golden")
GOLDEN = json.loads(golden.GOLDEN.read_text())
#: Outputs compared within 1e-12; every other output must match exactly.
CLOSE = {"scores", "chi2_scores", "p_values"}


def assert_replays(expected, actual, where: str) -> None:
    if not isinstance(expected, dict):
        # Compared as JSON text, so a NaN metric equals itself.
        assert json.dumps(actual) == json.dumps(expected), where
        return
    assert actual.keys() == expected.keys(), where
    for key, value in expected.items():
        if key in CLOSE:
            np.testing.assert_allclose(
                actual[key], value, rtol=1e-12, atol=1e-12, err_msg=f"{where}: {key}"
            )
        else:
            assert_replays(value, actual[key], f"{where}: {key}")


def test_the_file_holds_the_scripts_grid():
    assert {cell_id: entry["cell"] for cell_id, entry in GOLDEN.items()} == golden.cells()


@pytest.mark.parametrize("cell_id", list(GOLDEN))
def test_cell_replays(cell_id):
    entry = GOLDEN[cell_id]
    actual = json.loads(json.dumps(golden.compute(entry["cell"])))
    assert_replays(entry["outputs"], actual, cell_id)
