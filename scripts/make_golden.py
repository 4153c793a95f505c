#!/usr/bin/env python3
"""Write tests/golden.json, the golden output grid that
tests/test_golden.py replays.

The grid pins what the bench API returns on a fixed set of cells, so
"outputs unchanged" across a refactor is a tier-1 check.  The test
compares labels, metrics, split and selection indices and sweep trial
accuracies exactly, and scores, chi-square statistics and p-values
within 1e-12 (BLAS rounding may differ across CPUs).  A change that
moves a stream on purpose regenerates the file and says which cells
moved and why.

Cells, each on the shipped data with every other setting at its
default (split seed = config seed, map at pi/2, k = 3):

* ``run``, qknn with exact distances: iris at 2 and 4 features and
  wdbc at 4 and 6 features, each at k in {1, 3, 8}; iris over seeds
  0-7, wdbc over seeds 0-1.
* ``run``, qknn with sampled distances at 256 shots: iris at 4
  features, seed 0, k in {3, 8}.
* ``run``, cknn: iris at 2 and 4 features over seeds 0-7, and wdbc at
  4, 6 and 30 features over seeds 0-3, each at k in {1, 3, 8}.
* ``run``, qnn at 3 epochs: iris at 4 features and wdbc at 4 features,
  seed 0.
* ``sweep``, ``run_noise_sweep`` trial accuracies: iris at 4 features,
  seed 0, every noise kind x mitigation "none" and "physical-code" x
  the map at pi/2, at 0.7 and off, at p in {0, 0.1, 0.3}, 2 trials.
* ``compare``: ``run_compare`` on iris, seed 0, qnn at 3 epochs.
* ``select``: ``chi_square_select`` on the full iris and wdbc sets, as
  ``bench select`` runs it, with the policies topk=4 and alpha=0.05.

Usage, from the repository root (a few seconds):

    python scripts/make_golden.py [--out tests/golden.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

from qknn.bench import (  # noqa: E402
    BenchConfig,
    load_benchmark_dataset,
    run_benchmark,
    run_compare,
    run_noise_sweep,
)
from qknn.data import chi_square_select  # noqa: E402
from qknn.noise import NoiseKind  # noqa: E402

DATA_DIR = CHECKOUT / "data"
GOLDEN = CHECKOUT / "tests" / "golden.json"
KS = (1, 3, 8)
QNN_EPOCHS = 3
SWEEP_LEVELS = (0.0, 0.1, 0.3)
SWEEP_TRIALS = 2
#: Map settings of the sweep cells: the default pi/2, a non-Clifford
#: angle, and the map off.
SWEEP_MAPS = (
    {},
    {"feature_map_angle": 0.7},
    {"use_feature_map": False},
)


def cells() -> dict[str, dict]:
    """The grid, as {cell id: cell}; a cell is a ``kind`` plus the
    ``BenchConfig`` settings (``config``) it overrides."""
    grid = {}

    def add(kind: str, config: dict, **extra) -> None:
        settings = ",".join(f"{k}={v}" for k, v in {**config, **extra}.items())
        grid[f"{kind}:{settings}"] = {"kind": kind, "config": config, **extra}

    for model, sets in (
        ("qknn", (("iris", (2, 4), 8), ("wdbc", (4, 6), 2))),
        ("cknn", (("iris", (2, 4), 8), ("wdbc", (4, 6, 30), 4))),
    ):
        for dataset, widths, seeds in sets:
            for features in widths:
                for k in KS:
                    for seed in range(seeds):
                        add("run", {"dataset": dataset, "model": model,
                                    "features": features, "k": k, "seed": seed})
    for k in (3, 8):
        add("run", {"dataset": "iris", "features": 4, "k": k, "seed": 0,
                    "distance": "sampled", "shots": 256})
    for dataset in ("iris", "wdbc"):
        add("run", {"dataset": dataset, "model": "qnn", "features": 4, "seed": 0,
                    "qnn_epochs": QNN_EPOCHS})
    for kind in NoiseKind:
        for mitigation in ("none", "physical-code"):
            for map_setting in SWEEP_MAPS:
                add("sweep", {"dataset": "iris", "features": 4, "seed": 0, **map_setting},
                    noise_kind=kind.value, mitigation=mitigation)
    add("compare", {"dataset": "iris", "seed": 0, "qnn_epochs": QNN_EPOCHS})
    for dataset in ("iris", "wdbc"):
        for policy in ("topk=4", "alpha=0.05"):
            add("select", {"dataset": dataset}, policy=policy)
    return grid


def _run_outputs(report: dict) -> dict:
    return {
        "test_indices": report["split"]["test_indices"],
        "selected_columns": report["selection"]["selected_columns"],
        "predictions": report["predictions"],
        "metrics": report["metrics"],
        "scores": report["scores"],
    }


def compute(cell: dict) -> dict:
    """One cell's outputs, as plain JSON values."""
    config = BenchConfig(**cell["config"], data_dir=str(DATA_DIR))
    if cell["kind"] == "run":
        return _run_outputs(run_benchmark(config))
    if cell["kind"] == "compare":
        return {report["config"]["model"]: _run_outputs(report)
                for report in run_compare(config)}
    if cell["kind"] == "sweep":
        result = run_noise_sweep(
            config, SWEEP_LEVELS, SWEEP_TRIALS, cell["mitigation"],
            NoiseKind(cell["noise_kind"]),
        )
        return {"trial_accuracies": result.trial_accuracies.tolist()}
    dataset = load_benchmark_dataset(config.dataset, config.data_dir)
    result = chi_square_select(dataset, bins=config.bins, policy=cell["policy"])
    return {
        "kept_indices": list(result.kept_indices),
        "effective_bins": list(result.effective_bins),
        "chi2_scores": result.chi2_scores.tolist(),
        "p_values": result.p_values.tolist(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN, help="output JSON file")
    args = parser.parse_args(argv)
    grid = cells()
    # One cell per line, so a diff of the file names the cells that moved.
    lines = [
        f"{json.dumps(cell_id)}: "
        f"{json.dumps({'cell': cell, 'outputs': compute(cell)}, sort_keys=True)}"
        for cell_id, cell in grid.items()
    ]
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(grid)} cells -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
