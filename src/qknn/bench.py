"""Experiment orchestration: seeded benchmark runs, noise sweeps, model
comparisons, and replayable JSON/CSV reports.

Every run records its full configuration, split indices, normalization
and selection artifacts alongside the metrics, and contains nothing
non-deterministic (no timestamps, no machine info), so rerunning
``run_benchmark`` on a recorded config reproduces the report bitwise.

Raise contract: ``BenchConfig`` checks what its fields and the dataset's
fixed shape determine, the qubit register of its run included, and
``noise_grid`` and ``run_noise_sweep`` a sweep's settings, each value's
type by ``data._check_type``.  They raise TypeError or ValueError
(ResourceLimitError for a register over the qubit limit) only then,
before loading any data; any later failure is a BenchStageError naming
its stage.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cknn, qnn
from .classifier import DEFAULT_SHOTS, QknnConfig, check_register, fit_predict
from .data import (
    _FORMATS,
    _check_type,
    DEFAULT_BINS,
    DEFAULT_TOP_K,
    Dataset,
    chi_square_select,
    load_dataset,
    min_max_normalize,
    split_test_count,
    stratified_indices,
)
from .encoding import DEFAULT_ANGLE_SCALE, DEFAULT_FEATURE_MAP_ANGLE, EncodingConfig
from .metrics import compute_metrics
from .noise import NoiseKind, NoiseSpec

MODELS = ("qknn", "cknn", "qnn")

#: The channel a noise sweep draws when none is named.
DEFAULT_NOISE_KIND = NoiseKind.BIT_FLIP

#: Most levels a noise grid may hold: a 0.001 step over [0, 1].
MAX_NOISE_LEVELS = 1001

#: Most (level, trial) runs one noise sweep may make.
MAX_SWEEP_RUNS = 100_000

#: Share of each class's rows that every run holds out for testing.
TEST_FRACTION = 0.2


class BenchStageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run, fully specified (mirrors the CLI flags).

    A setting that a library config or function also takes defaults to
    that owner's default (a dataclass's class attribute is its default).
    """

    dataset: str = "iris"
    model: str = "qknn"
    k: int = cknn.DEFAULT_K
    seed: int = 21
    features: int = DEFAULT_TOP_K
    bins: int = DEFAULT_BINS
    angle_scale: float = DEFAULT_ANGLE_SCALE
    feature_map_angle: float = DEFAULT_FEATURE_MAP_ANGLE
    use_feature_map: bool = QknnConfig.use_feature_map
    distance: str = QknnConfig.distance_mode
    shots: int = DEFAULT_SHOTS
    data_dir: str = "data"
    qnn_epochs: int = qnn.TrainConfig.epochs

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        if self.dataset not in _FORMATS:
            raise ValueError(
                f"dataset must be one of {sorted(_FORMATS)}, got {self.dataset!r}"
            )
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.features < 1:
            raise ValueError(f"feature count must be positive, got {self.features}")
        if self.bins < 2:
            raise ValueError(f"bins must be at least 2, got {self.bins}")
        # QknnConfig and qnn.TrainConfig own the other settings' rules;
        # building them rejects a bad value before any data is loaded.
        qknn_config = _qknn_config(self)
        qnn.TrainConfig(epochs=self.qnn_epochs)
        dataset = _FORMATS[self.dataset]
        n_train = sum(n - split_test_count(n, TEST_FRACTION) for n in dataset.class_rows)
        if self.k > n_train:
            raise ValueError(
                f"k must lie in [1, {n_train}] (the {self.dataset} training rows at "
                f"test fraction {TEST_FRACTION}), got {self.k}"
            )
        # The run's register: a qubit per selected feature, at most the columns.
        width = min(self.features, len(dataset.feature_names))
        if self.model == "qknn":
            check_register(qknn_config, width)
        elif self.model == "qnn":
            qnn.QnnArchitecture(len(dataset.class_rows), np.zeros((1, width)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


def load_benchmark_dataset(name: str, data_dir: str | Path) -> Dataset:
    """Load one of the three benchmark datasets from ``data_dir``."""
    if name not in _FORMATS:
        raise ValueError(f"unknown dataset {name!r}; expected {sorted(_FORMATS)}")
    path = Path(data_dir) / _FORMATS[name].file_name
    if not path.exists():
        raise FileNotFoundError(
            f"dataset file {path} not found; see scripts/fetch_data.py for "
            "how to obtain it"
        )
    return load_dataset(path, name)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BenchStageError:
        raise
    except Exception as exc:
        raise BenchStageError(f"stage '{name}' failed: {exc}") from exc


@dataclass
class PreparedExperiment:
    """Split, normalized, feature-selected data ready for any model."""

    train: Dataset
    test: Dataset
    artifacts: dict


def prepare_experiment(config: BenchConfig) -> PreparedExperiment:
    """Load -> split -> normalize (train-fitted) -> chi-square select."""
    dataset = _stage(
        "load", load_benchmark_dataset, config.dataset, config.data_dir
    )
    train_idx, test_idx = _stage(
        "split", stratified_indices, dataset.labels, TEST_FRACTION, config.seed
    )
    normalized, normalization = _stage(
        "normalize", min_max_normalize, dataset, train_idx
    )
    train_view = normalized.subset_rows(train_idx)
    selection = _stage(
        "select", chi_square_select, train_view, config.bins, f"topk={config.features}"
    )
    # Keep selected columns in ascending original order so qubit i always
    # carries the same feature regardless of its chi-square rank.
    columns = sorted(selection.kept_indices)
    train = train_view.subset_features(columns)
    test = normalized.subset_rows(test_idx).subset_features(columns)
    artifacts = {
        "dataset": {
            "name": dataset.name,
            "n_instances": dataset.n_instances,
            "n_features": dataset.n_features,
            "n_classes": dataset.n_classes,
            "class_names": list(dataset.class_names),
        },
        "split": {
            "train_indices": [int(i) for i in train_idx],
            "test_indices": [int(i) for i in test_idx],
        },
        "normalization": normalization,
        "selection": {
            "kept_indices": [int(i) for i in selection.kept_indices],
            "chi2_scores": [float(v) for v in selection.chi2_scores],
            "p_values": [float(v) for v in selection.p_values],
            "effective_bins": list(selection.effective_bins),
            "policy": selection.policy,
            "selected_columns": [int(c) for c in columns],
            "selected_names": list(train.feature_names),
        },
    }
    return PreparedExperiment(train=train, test=test, artifacts=artifacts)


def _qknn_config(config: BenchConfig) -> QknnConfig:
    return QknnConfig(
        k=config.k,
        encoding=EncodingConfig(
            angle_scale=config.angle_scale,
            feature_map_angle=config.feature_map_angle,
        ),
        use_feature_map=config.use_feature_map,
        distance_mode=config.distance,
        shots=config.shots,
        seed=config.seed,
    )


def _run_model(config: BenchConfig,
               prepared: PreparedExperiment) -> tuple[np.ndarray, np.ndarray]:
    train, test = prepared.train, prepared.test
    if config.model == "qknn":
        return fit_predict(train, test, _qknn_config(config))
    if config.model == "cknn":
        return cknn.fit_predict(train, test, k=config.k)
    arch = qnn.init_architecture(
        train.n_features, qnn.BENCH_LAYERS, train.n_classes, seed=config.seed
    )
    train_cfg = qnn.TrainConfig(epochs=config.qnn_epochs)
    # The angle embedding wants features in [0, pi]: full RY range, no wrap.
    trained, _ = qnn.train(arch, train.features * math.pi, train.labels, train_cfg)
    proba = qnn.predict_proba(trained, test.features * math.pi)
    return np.argmax(proba, axis=1), proba


def run_benchmark(config: BenchConfig) -> dict:
    """One full seeded run; the returned report replays bitwise.

    The report carries config, split indices, normalization/selection
    artifacts, per-row predictions and scores, and the metric bundle.
    """
    prepared = prepare_experiment(config)
    predictions, scores = _stage("model", _run_model, config, prepared)
    metrics = _stage(
        "metrics", compute_metrics, prepared.test.labels, predictions, scores
    )
    return {
        "config": config.to_dict(),
        **prepared.artifacts,
        "predictions": [int(v) for v in predictions],
        "true_labels": [int(v) for v in prepared.test.labels],
        "scores": [[float(v) for v in row] for row in scores],
        "metrics": metrics,
    }


def report_to_json(report: dict) -> str:
    """Canonical JSON encoding (sorted keys) so replays compare bitwise."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(report_to_json(report))


@dataclass
class SweepResult:
    """Noise-sweep summary: accuracy statistics per noise level."""

    noise_levels: list[float]
    mean_accuracy: list[float]
    std_accuracy: list[float]
    trials: int
    mitigation_mode: str
    noise_kind: str
    trial_accuracies: np.ndarray = field(repr=False)

    def rows(self) -> list[dict]:
        return [
            {
                "p": self.noise_levels[i],
                "mean_accuracy": self.mean_accuracy[i],
                "std_accuracy": self.std_accuracy[i],
                "trials": self.trials,
                "mitigation": self.mitigation_mode,
                "noise_kind": self.noise_kind,
            }
            for i in range(len(self.noise_levels))
        ]


def noise_grid(p_start: float, p_stop: float, p_step: float) -> list[float]:
    """Inclusive arithmetic grid of noise levels in [p_start, p_stop],
    rounded to 10 decimals to avoid drift, of at most ``MAX_NOISE_LEVELS``."""
    for name, value in (("p_start", p_start), ("p_stop", p_stop), ("p_step", p_step)):
        _check_type(name, value, "float")
    if p_step <= 0.0:
        raise ValueError(f"step must be positive, got {p_step}")
    if not 0.0 <= p_start <= p_stop <= 1.0:
        raise ValueError(
            f"noise range must satisfy 0 <= start <= stop <= 1, "
            f"got [{p_start}, {p_stop}]"
        )
    # Whole steps that fit in the range, with a slack of a billionth of a
    # step for rounding; inf when a tiny step overflows.
    steps = (p_stop - p_start) / p_step + 1e-9
    if steps >= MAX_NOISE_LEVELS:
        raise ValueError(
            f"step {p_step} over [{p_start}, {p_stop}] gives more than "
            f"{MAX_NOISE_LEVELS} noise levels"
        )
    # Rounding moves a level by up to 5e-11, so only levels at least 2e-10
    # apart are sure to stay distinct.
    if p_step < 2e-10:
        raise ValueError(
            f"step {p_step} is finer than noise levels rounded to 10 decimals allow: "
            f"use a step of at least 2e-10"
        )
    return [min(max(float(round(p_start + i * p_step, 10)), p_start), p_stop)
            for i in range(int(steps) + 1)]


def _trial_seed(base_seed: int, level_index: int, trial: int) -> int:
    ss = np.random.SeedSequence([base_seed, level_index, trial])
    return int(ss.generate_state(1, np.uint64)[0])


def run_noise_sweep(
    config: BenchConfig,
    p_values: Sequence[float],
    trials: int,
    mitigation: str = QknnConfig.mitigation,
    noise_kind: NoiseKind = DEFAULT_NOISE_KIND,
) -> SweepResult:
    """Nearest-neighbour accuracy vs noise level, averaged over trials.

    Each (level, trial) pair gets its own derived seed and one noise
    trajectory per encoded state.  p = 0 applies no errors, so its
    accuracy equals the noiseless run exactly (in the same distance mode).
    """
    if config.model != "qknn":
        raise ValueError(
            f"noise sweeps are defined for the qknn model, got {config.model!r}"
        )
    _check_type("trials", trials, "int")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if len(p_values) == 0:
        raise ValueError("need at least one noise level")
    if len(p_values) * trials > MAX_SWEEP_RUNS:
        raise ValueError(
            f"{len(p_values)} noise levels x {trials} trials is more than "
            f"{MAX_SWEEP_RUNS} sweep runs"
        )
    # Building the levels' NoiseSpecs and the trials' QknnConfig, owners of
    # the kind, [0, 1] and mitigation rules, checks them before loading.
    specs = [NoiseSpec(noise_kind, p) for p in p_values]
    base = replace(_qknn_config(config), mitigation=mitigation)
    prepared = prepare_experiment(config)
    train, test = prepared.train, prepared.test
    accuracies = np.zeros((len(specs), trials))
    for i, spec in enumerate(specs):
        for t in range(trials):
            predictions, _ = _stage(
                "model", fit_predict, train, test,
                replace(base, noise=spec, seed=_trial_seed(config.seed, i, t)),
            )
            accuracies[i, t] = float(np.mean(predictions == test.labels))
    return SweepResult(
        noise_levels=[float(p) for p in p_values],
        mean_accuracy=[float(v) for v in accuracies.mean(axis=1)],
        std_accuracy=[float(v) for v in accuracies.std(axis=1)],
        trials=trials,
        mitigation_mode=mitigation,
        noise_kind=noise_kind.value,
        trial_accuracies=accuracies,
    )


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    rows = result.rows()
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def run_compare(config: BenchConfig) -> list[dict]:
    """Run all three models on the identical split/seed; one report each."""
    # Building every leg checks it before any runs, so a bad leg loads nothing.
    configs = [replace(config, model=model) for model in MODELS]
    return [run_benchmark(c) for c in configs]


def write_compare_csv(reports: list[dict], path: str | Path) -> None:
    metrics = ["accuracy", "macro_precision", "macro_recall", "macro_f1", "auc"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "model", *metrics])
        for report in reports:
            writer.writerow([report["config"]["dataset"], report["config"]["model"],
                             *(repr(report["metrics"][m]) for m in metrics)])
