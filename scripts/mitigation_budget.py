#!/usr/bin/env python3
"""Repeat-vote against plain sampling at an equal measurement budget.

Sweeps nearest-neighbour accuracy under mixed Pauli noise at p = 0, 0.1
and 0.2, over config seeds 0-19, in three modes that share each split and
each trial's noise draws:

* ``repeat-vote``: 1024 shots, each the majority of n = 3 ancilla
  measurements, so 3072 measurements per pair;
* ``none-1024`` and ``none-3072``: plain sampled swap tests at 1024 and
  at 3072 shots, from ``bench.run_noise_sweep`` with ``distance="sampled"``.

Repeat-vote is no longer a library mode, so the script draws it as the
library did: an ancilla bit reads 1 with the exact marginal
p = (1 - F)/2, a voted bit reads 1 with q = P(more than n/2 of n bits
read 1), and a pair's estimate is 1 - 2 Bin(shots, q)/shots, drawn in
training order from the test row's stream (trial seed, row + 1).

For each cell (dataset, features, p) it prints the mean accuracy of each
mode and the paired difference repeat-vote minus none-3072: the mean over
config seeds of each seed's trial-averaged difference, with its standard
error over seeds.  The last line says whether repeat-vote leads any cell
by more than 3 standard errors.

Usage (about an hour on two cores):

    python scripts/mitigation_budget.py --jobs 2
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

from qknn.bench import (  # noqa: E402
    BenchConfig,
    _qknn_config,
    _trial_seed,
    prepare_experiment,
    run_noise_sweep,
)
from qknn.classifier import _encode_rows, _fidelity_knn  # noqa: E402
from qknn.noise import NoiseKind, NoiseSpec  # noqa: E402

LEVELS = (0.0, 0.1, 0.2)
KIND = NoiseKind.MIXED_PAULI
SHOTS = 1024
REPEATS = 3
#: (dataset, features, trials per level), most expensive first.
CELLS = (("wdbc", 6, 1), ("wdbc", 4, 2), ("iris", 4, 2))
MODES = ("repeat-vote", "none-1024", "none-3072")


def _voted_accuracies(config: BenchConfig, trials: int) -> np.ndarray:
    """[level, trial] accuracies of repeat-vote with n = ``REPEATS``."""
    prepared = prepare_experiment(config)
    train, test = prepared.train, prepared.test
    base = _qknn_config(config)
    accuracies = np.zeros((len(LEVELS), trials))
    for i, p in enumerate(LEVELS):
        for t in range(trials):
            seed = _trial_seed(config.seed, i, t)
            cfg = replace(base, noise=NoiseSpec(KIND, p), seed=seed)
            # Training rows, then test rows, draw from one noise stream.
            rng = np.random.default_rng(seed)
            train_states = _encode_rows(train.features, cfg, rng)
            estimates = np.empty((test.n_instances, train.n_instances))
            for row, state in enumerate(_encode_rows(test.features, cfg, rng)):
                fids = np.abs(train_states @ state.conj()) ** 2
                ones = np.clip((1.0 - fids) / 2.0, 0.0, 1.0)
                q = sum(
                    math.comb(REPEATS, j) * ones**j * (1.0 - ones) ** (REPEATS - j)
                    for j in range(REPEATS // 2 + 1, REPEATS + 1)
                )
                stream = np.random.default_rng([seed, row + 1])
                voted = 1.0 - 2.0 * stream.binomial(config.shots, q) / config.shots
                estimates[row] = np.clip(voted, 0.0, 1.0)
            labels, _ = _fidelity_knn(estimates, train.labels, config.k, train.n_classes)
            accuracies[i, t] = np.count_nonzero(labels == test.labels) / test.n_instances
    return accuracies


def _run(task: tuple) -> tuple[tuple, np.ndarray]:
    """[level, trial] accuracies of one (cell, seed, mode)."""
    dataset, features, trials, seed, mode = task
    shots = SHOTS * REPEATS if mode == "none-3072" else SHOTS
    config = BenchConfig(
        dataset=dataset, features=features, seed=seed, distance="sampled", shots=shots,
        data_dir=str(CHECKOUT / "data"),
    )
    if mode == "repeat-vote":
        return task, _voted_accuracies(config, trials)
    result = run_noise_sweep(config, LEVELS, trials, "none", KIND)
    return task, result.trial_accuracies


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--seeds", type=int, default=20, help="config seeds 0..N-1")
    args = parser.parse_args(argv)

    tasks = [
        (dataset, features, trials, seed, mode)
        for dataset, features, trials in CELLS
        for seed in range(args.seeds)
        for mode in MODES
    ]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
        results = dict(pool.map(_run, tasks))

    print(
        f"mixed Pauli, config seeds 0-{args.seeds - 1}; repeat-vote is n = {REPEATS} "
        f"x {SHOTS} shots; diff is repeat-vote - none-3072 (SE over seeds)\n"
    )
    print("| dataset | features | trials | p | repeat-vote | none-1024 | none-3072 | diff (SE) |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    leads = []
    for dataset, features, trials in CELLS:
        # [mode, seed, level] accuracies, averaged over trials.
        acc = np.array(
            [
                [results[dataset, features, trials, seed, mode].mean(axis=1)
                 for seed in range(args.seeds)]
                for mode in MODES
            ]
        )
        diffs = acc[MODES.index("repeat-vote")] - acc[MODES.index("none-3072")]
        for i, p in enumerate(LEVELS):
            mean = diffs[:, i].mean()
            se = diffs[:, i].std(ddof=1) / math.sqrt(args.seeds)
            means = " | ".join(f"{acc[m, :, i].mean():.4f}" for m in range(len(MODES)))
            print(
                f"| {dataset} | {features} | {trials} | {p} | {means} | "
                f"{mean:+.4f} ({se:.4f}) |"
            )
            if mean > 3 * se:
                leads.append(f"{dataset} d={features} p={p}")
    print()
    if leads:
        print("repeat-vote leads plain sampling by > 3 SE at: " + ", ".join(leads))
    else:
        print("repeat-vote leads plain sampling by > 3 SE in no cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
