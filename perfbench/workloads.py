"""The benchmark's four workloads, each a set-up step plus a stream of jobs.

Every job calls the public qknn API.  Its inputs come from a fixed pool
(config seeds, test rows, noise levels) visited in an order drawn from
the run seed, so the same run seed gives the same jobs and every job has
a stored reference from ``reference.json``:

* exact-seeds  - wdbc, ``run_benchmark`` qknn (exact) + cknn on one
  config seed.  The only workload where ``data``, ``cknn`` and exact
  distances do real work, with a fresh split every job.
* sampled-swap - iris, one ``classifier.classify`` of a test row against
  the 120 fitted training points with 1024-shot swap tests.  The only
  workload that samples; ``sim`` runs 9-qubit registers.
* noise-sweep  - iris, one (level, trial) of ``run_noise_sweep`` with mixed
  Pauli noise and the physical repetition code, so ``noise`` and ``qec``
  do real work and ``sim`` runs many 4-qubit gates.
* qnn-train    - wdbc, ``run_benchmark`` qnn at ``qnn_epochs`` epochs.  The
  only workload in ``qnn``; it makes no ``sim.apply_gate`` call.

Correctness: exact-seeds and qnn-train predictions must equal the
reference.  sampled-swap and noise-sweep draw random numbers, and a
different but valid random stream may flip borderline rows, so their
accuracy must lie within ``binomial_band`` of the reference accuracy:
noise-sweep per job and, pooled over the run, per noise level;
sampled-swap pooled over the run.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracer import LAYERS

CHECKOUT = Path(__file__).resolve().parent.parent
SRC_DIR = CHECKOUT / "src"
DATA_DIR = CHECKOUT / "data"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Fixed inputs; ``reference.json`` records them and must match.
PARAMS = {
    "exact_seeds_pool": 64,
    "qnn_seeds_pool": 64,
    "qnn_epochs": 1,
    "sampled_split_seed": 21,
    "sampled_shots": 1024,
    "sampled_streams": 8,
    "noise_levels": [0.1, 0.2, 0.3],
    "noise_seeds_pool": 48,
    "band_z": 4.0,
}


def import_qknn() -> SimpleNamespace:
    """Import the qknn layer modules afresh from the checkout's ``src``.

    Earlier imports are dropped first, so each call pays the full import.
    """
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [n for n in sys.modules if n == "qknn" or n.startswith("qknn.")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module("qknn." + layer) for layer in LAYERS}
    origin = Path(modules["bench"].__file__).resolve()
    if SRC_DIR not in origin.parents:
        raise ImportError(f"qknn imported from {origin}, not from {SRC_DIR}")
    return SimpleNamespace(**modules)


def binomial_band(p_ref: float, n: int, z: float) -> float:
    """Half-width z * sqrt(p(1-p)/n) of an accuracy over n Bernoulli rows,
    with the Agresti-Coull p = (n p_ref + 2) / (n + 4) so the band stays
    open when p_ref is 0 or 1."""
    p = (n * p_ref + 2.0) / (n + 4.0)
    return z * math.sqrt(p * (1.0 - p) / n)


def labels_string(labels) -> str:
    return "".join(str(int(v)) for v in labels)


def order(pool_size: int, seed: int) -> list[int]:
    return [int(i) for i in np.random.default_rng(seed).permutation(pool_size)]


class Workload:
    """One workload: ``setup`` once, then ``run`` (timed) and ``check``
    (untimed) per job.  ``check`` returns (ok, accuracies, output text);
    the output text is what traced and untraced runs must agree on."""

    name = ""
    dataset = ""
    pool_size = 0

    def __init__(self, seed: int, reference: dict | None) -> None:
        self.seed = seed
        self.reference = reference

    def setup(self, q: SimpleNamespace) -> None:
        self.q = q
        q.bench.load_benchmark_dataset(self.dataset, DATA_DIR)
        self.order = order(self.pool_size, self.seed)

    def inputs(self, index: int) -> int:
        return self.order[index % self.pool_size]

    def config(self, **overrides):
        return self.q.bench.BenchConfig(dataset=self.dataset, data_dir=str(DATA_DIR),
                                        **overrides)

    def summary_check(self, accuracies: list[dict]) -> tuple[bool, str]:
        """Check over the whole run; per-job checks are in ``check``."""
        return True, ""


class ExactSeeds(Workload):
    name = "exact-seeds"
    dataset = "wdbc"
    pool_size = PARAMS["exact_seeds_pool"]

    def run(self, index: int):
        cfg = self.config(model="qknn", seed=self.inputs(index))
        bench = self.q.bench
        return bench.run_benchmark(cfg), bench.run_benchmark(replace(cfg, model="cknn"))

    def check(self, index: int, output) -> tuple[bool, dict, str]:
        quantum, classical = output
        ref = self.reference["exact-seeds"][str(self.inputs(index))]
        ok = (labels_string(quantum["predictions"]) == ref["qknn"]
              and labels_string(classical["predictions"]) == ref["cknn"])
        text = self.q.bench.report_to_json(quantum) + self.q.bench.report_to_json(classical)
        return ok, {"qknn": quantum["metrics"]["accuracy"],
                    "cknn": classical["metrics"]["accuracy"]}, text


class QnnTrain(Workload):
    name = "qnn-train"
    dataset = "wdbc"
    pool_size = PARAMS["qnn_seeds_pool"]

    def run(self, index: int):
        return self.q.bench.run_benchmark(self.config(
            model="qnn", seed=self.inputs(index), qnn_epochs=PARAMS["qnn_epochs"]))

    def check(self, index: int, output) -> tuple[bool, dict, str]:
        ok = labels_string(output["predictions"]) == \
            self.reference["qnn-train"][str(self.inputs(index))]
        return ok, {"qnn": output["metrics"]["accuracy"]}, self.q.bench.report_to_json(output)


class SampledSwap(Workload):
    """Set-up fits the training set once; a job classifies one test row.

    The pool is (stream, row): the same test state is classified under
    ``sampled_streams`` distinct ``source_row`` ids, which is what the
    classifier derives its per-pair shot seeds from.
    """

    name = "sampled-swap"
    dataset = "iris"

    def setup(self, q: SimpleNamespace) -> None:
        self.q = q
        cfg = self.config(seed=PARAMS["sampled_split_seed"], distance="sampled",
                          shots=PARAMS["sampled_shots"])
        prepared = q.bench.prepare_experiment(cfg)
        qcfg = q.classifier.QknnConfig(
            k=cfg.k,
            encoding=q.encoding.EncodingConfig(angle_scale=cfg.angle_scale,
                                               feature_map_angle=cfg.feature_map_angle),
            distance_mode="sampled", shots=cfg.shots, seed=cfg.seed,
        )
        self.model = q.classifier.fit(prepared.train, qcfg)
        self.true_labels = prepared.test.labels
        states = [q.encoding.apply_feature_map(
            q.encoding.encode_point(row, qcfg.encoding, source_row=i)).state
            for i, row in enumerate(prepared.test.features)]
        n = len(states)
        self.points = [
            q.encoding.EncodedPoint(state=states[row], source_row=stream * n + row,
                                    config=qcfg.encoding)
            for stream in range(PARAMS["sampled_streams"]) for row in range(n)
        ]
        self.pool_size = len(self.points)
        self.order = order(self.pool_size, self.seed)

    def run(self, index: int):
        return self.q.classifier.classify(self.model, self.points[self.inputs(index)])

    def check(self, index: int, output) -> tuple[bool, dict, str]:
        label, scores = output
        scores = np.asarray(scores, dtype=float)
        row = self.points[self.inputs(index)].source_row % len(self.true_labels)
        ok = (0 <= label < self.model.n_classes and scores.shape == (self.model.n_classes,)
              and bool(np.all(np.isfinite(scores))) and abs(scores.sum() - 1.0) < 1e-9)
        text = json.dumps([int(label), [float(s) for s in scores]])
        return ok, {"qknn": float(label == self.true_labels[row])}, text

    def summary_check(self, accuracies: list[dict]) -> tuple[bool, str]:
        p_ref = self.reference["sampled-swap"]["accuracy"]
        acc = float(np.mean([a["qknn"] for a in accuracies]))
        band = binomial_band(p_ref, len(accuracies), PARAMS["band_z"])
        return abs(acc - p_ref) <= band, (
            f"accuracy {acc:.4f} over {len(accuracies)} jobs, reference {p_ref:.4f} "
            f"+/- {band:.4f}")


class NoiseSweep(Workload):
    """A job is one (level, trial); levels rotate so every run mixes them
    equally, and the config seed (split and noise stream) comes from the pool."""

    name = "noise-sweep"
    dataset = "iris"
    pool_size = PARAMS["noise_seeds_pool"]

    def inputs(self, index: int) -> tuple[float, int]:
        levels = PARAMS["noise_levels"]
        return levels[index % len(levels)], super().inputs(index // len(levels))

    def run(self, index: int):
        level, seed = self.inputs(index)
        q = self.q
        return q.bench.run_noise_sweep(self.config(seed=seed), [level], 1,
                                       "physical-code", q.noise.NoiseKind.MIXED_PAULI)

    def check(self, index: int, output) -> tuple[bool, dict, str]:
        level, _ = self.inputs(index)
        acc = output.mean_accuracy[0]
        ref = self.reference["noise-sweep"][str(level)]
        ok = abs(acc - ref["accuracy"]) <= binomial_band(ref["accuracy"], ref["n_test"],
                                                          PARAMS["band_z"])
        text = json.dumps({"rows": output.rows(),
                           "trials": output.trial_accuracies.tolist()}, sort_keys=True)
        return ok, {f"qknn@{level}": acc}, text

    def summary_check(self, accuracies: list[dict]) -> tuple[bool, str]:
        """Pool the run's jobs at each level (n = n_test rows per job), so the
        band is narrow enough that losing the noise or the mitigation shows."""
        ok, parts = True, []
        for level in PARAMS["noise_levels"]:
            values = [a[f"qknn@{level}"] for a in accuracies if f"qknn@{level}" in a]
            if not values:
                continue
            ref = self.reference["noise-sweep"][str(level)]
            acc = float(np.mean(values))
            band = binomial_band(ref["accuracy"], ref["n_test"] * len(values),
                                 PARAMS["band_z"])
            ok = ok and abs(acc - ref["accuracy"]) <= band
            parts.append(f"level {level}: accuracy {acc:.4f} over {len(values)} jobs, "
                         f"reference {ref['accuracy']:.4f} +/- {band:.4f}")
        return ok, "; ".join(parts)


WORKLOADS = {w.name: w for w in (ExactSeeds, SampledSwap, NoiseSweep, QnnTrain)}


def load_reference() -> dict:
    reference = json.loads(REFERENCE_PATH.read_text())
    if reference["params"] != PARAMS:
        raise ValueError(f"{REFERENCE_PATH} was made with other parameters; "
                         "regenerate it with make_reference.py")
    return reference
