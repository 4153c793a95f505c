"""Write ``reference.json``: every pooled job's output on the current code.

    python3 perfbench/make_reference.py

Run it only when the workload parameters change or a change is meant to
alter predictions; the benchmark checks every job against this file.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import workloads
from workloads import PARAMS, binomial_band, labels_string


def main() -> int:
    q = workloads.import_qknn()
    ref = {"params": PARAMS}

    exact = workloads.ExactSeeds(0, None)
    exact.setup(q)
    ref["exact-seeds"] = {}
    for index in range(exact.pool_size):
        quantum, classical = exact.run(index)
        ref["exact-seeds"][str(exact.inputs(index))] = {
            "qknn": labels_string(quantum["predictions"]),
            "cknn": labels_string(classical["predictions"]),
        }

    qnn = workloads.QnnTrain(0, None)
    qnn.setup(q)
    ref["qnn-train"] = {str(qnn.inputs(i)): labels_string(qnn.run(i)["predictions"])
                        for i in range(qnn.pool_size)}

    swap = workloads.SampledSwap(0, None)
    swap.setup(q)
    correct = []
    for index in range(swap.pool_size):
        label, _ = swap.run(index)
        row = swap.points[swap.inputs(index)].source_row % len(swap.true_labels)
        correct.append(label == swap.true_labels[row])
    ref["sampled-swap"] = {"accuracy": float(np.mean(correct)), "jobs": swap.pool_size}

    noise = workloads.NoiseSweep(0, None)
    noise.setup(q)
    levels = PARAMS["noise_levels"]
    trials: dict[float, dict] = {level: {} for level in levels}
    n_test = len(q.bench.prepare_experiment(noise.config(seed=0)).test.labels)
    for index in range(noise.pool_size * len(levels)):
        level, seed = noise.inputs(index)
        result = noise.run(index)
        trials[level][str(seed)] = result.mean_accuracy[0]
    ref["noise-sweep"] = {}
    for level in levels:
        accs = np.array(list(trials[level].values()))
        p_ref = float(accs.mean())
        band = binomial_band(p_ref, n_test, PARAMS["band_z"])
        worst = float(np.abs(accs - p_ref).max())
        print(f"noise {level}: reference {p_ref:.4f}, band +/-{band:.4f}, "
              f"worst pooled deviation {worst:.4f}", file=sys.stderr)
        if worst > band:
            raise SystemExit(f"pooled trials at level {level} fall outside the band")
        ref["noise-sweep"][str(level)] = {"accuracy": p_ref, "n_test": n_test,
                                          "trials": trials[level]}

    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
