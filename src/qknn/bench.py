"""Experiment orchestration: seeded benchmark runs, noise sweeps, model
comparisons, and replayable JSON/CSV reports.

Every run records its full configuration, split indices, normalization
and selection artifacts alongside the metrics, and contains nothing
non-deterministic (no timestamps, no machine info), so rerunning
``run_benchmark`` on a recorded config reproduces the report bitwise.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cknn, qnn
from .classifier import QknnConfig, check_register, fit_predict
from .data import (
    Dataset,
    chi_square_select,
    load_dataset,
    min_max_normalize,
    split_test_count,
    stratified_indices,
)
from .encoding import EncodingConfig
from .metrics import EvalReport, compute_metrics
from .noise import NoiseKind, NoiseSpec

MODELS = ("qknn", "cknn", "qnn")

#: Dataset name -> (file name, loader format).
DATASET_FILES = {
    "iris": ("iris.data", "iris"),
    "wdbc": ("wdbc.data", "wdbc"),
    "banknote": ("data_banknote_authentication.txt", "banknote"),
}

#: Dataset name -> (feature columns, rows per class).  These fix the qnn
#: register (one qubit per selected feature, one class per output) and the
#: training-set size that bounds k before any data is loaded.
DATASET_SHAPES = {
    "iris": (4, (50, 50, 50)),
    "wdbc": (30, (357, 212)),
    "banknote": (4, (762, 610)),
}


class BenchStageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


#: Accepted value types per field annotation; an int is a valid float.
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


def _check_type(name: str, type_name: str, value) -> None:
    """Raise TypeError unless ``value`` is a ``type_name`` ("int", "float", ...)."""
    # bool subclasses int, but True is not a count or a seed.
    if (isinstance(value, bool) and type_name != "bool") or not isinstance(
        value, _FIELD_TYPES[type_name]
    ):
        raise TypeError(f"{name} must be {type_name}, got {value!r}")


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run, fully specified (mirrors the CLI flags)."""

    dataset: str = "iris"
    model: str = "qknn"
    k: int = 3
    seed: int = 21
    features: int = 4
    bins: int = 10
    angle_scale: float = 2.0 * math.pi
    feature_map_angle: float = math.pi / 2.0
    use_feature_map: bool = True
    distance: str = "exact"
    shots: int = 4096
    test_fraction: float = 0.2
    data_dir: str = "data"
    qnn_layers: int = 4
    qnn_epochs: int = 100
    qnn_learning_rate: float = 0.3
    qnn_init_scale: float = 0.01

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_type(f.name, f.type, getattr(self, f.name))
        if self.dataset not in DATASET_FILES:
            raise ValueError(
                f"dataset must be one of {sorted(DATASET_FILES)}, got {self.dataset!r}"
            )
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.features < 1:
            raise ValueError(f"feature count must be positive, got {self.features}")
        if self.bins < 2:
            raise ValueError(f"bins must be at least 2, got {self.bins}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(
                f"test fraction must lie in (0, 1), got {self.test_fraction}"
            )
        # The model configs own the rules for their settings; building them
        # rejects a bad value before any data is loaded.
        qknn_config = _qknn_config(self)
        columns, class_rows = DATASET_SHAPES[self.dataset]
        if self.model == "qknn":
            check_register(qknn_config, min(self.features, columns))
        n_train = sum(n - split_test_count(n, self.test_fraction) for n in class_rows)
        if self.k > n_train:
            raise ValueError(
                f"k must lie in [1, {n_train}] (the {self.dataset} training rows at "
                f"test fraction {self.test_fraction}), got {self.k}"
            )
        n_qubits, n_classes = 1, 2
        if self.model == "qnn":
            n_qubits, n_classes = min(self.features, columns), len(class_rows)
        _qnn_setup(self, n_qubits=n_qubits, n_classes=n_classes)

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
    if name not in DATASET_FILES:
        raise ValueError(f"unknown dataset {name!r}; expected {sorted(DATASET_FILES)}")
    file_name, fmt = DATASET_FILES[name]
    path = Path(data_dir) / file_name
    if not path.exists():
        raise FileNotFoundError(
            f"dataset file {path} not found; see scripts/fetch_data.py for "
            "how to obtain it"
        )
    return load_dataset(path, fmt)


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
        "split", stratified_indices, dataset.labels, config.test_fraction, config.seed
    )
    normalized, norm_params = _stage(
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
        "normalization": norm_params.to_dict(),
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


def _qknn_config(config: BenchConfig, noise: NoiseSpec | None = None,
                 mitigation: str = "none", seed: int | None = None) -> QknnConfig:
    distance = config.distance
    if mitigation == "repeat-vote":
        distance = "sampled"
    return QknnConfig(
        k=config.k,
        encoding=EncodingConfig(
            angle_scale=config.angle_scale,
            feature_map_angle=config.feature_map_angle,
        ),
        use_feature_map=config.use_feature_map,
        distance_mode=distance,
        shots=config.shots,
        seed=config.seed if seed is None else seed,
        noise=noise,
        mitigation=mitigation,
    )


def _qnn_setup(
    config: BenchConfig, n_qubits: int, n_classes: int
) -> tuple[qnn.QnnArchitecture, qnn.TrainConfig]:
    arch = qnn.init_architecture(
        n_qubits=n_qubits,
        n_layers=config.qnn_layers,
        n_classes=n_classes,
        seed=config.seed,
        init_scale=config.qnn_init_scale,
    )
    train_cfg = qnn.TrainConfig(
        learning_rate=config.qnn_learning_rate, epochs=config.qnn_epochs
    )
    return arch, train_cfg


def _run_model(
    config: BenchConfig, prepared: PreparedExperiment,
    noise: NoiseSpec | None = None, mitigation: str = "none",
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    train, test = prepared.train, prepared.test
    if config.model == "qknn":
        return fit_predict(train, test, _qknn_config(config, noise, mitigation, seed))
    if config.model == "cknn":
        return cknn.fit_predict(train, test, k=config.k)
    arch, train_cfg = _qnn_setup(config, train.n_features, train.n_classes)
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
    report: EvalReport = _stage(
        "metrics", compute_metrics, prepared.test.labels, predictions, scores
    )
    return {
        "config": config.to_dict(),
        **prepared.artifacts,
        "predictions": [int(v) for v in predictions],
        "true_labels": [int(v) for v in prepared.test.labels],
        "scores": [[float(v) for v in row] for row in scores],
        "metrics": report.to_dict(),
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
    trial_accuracies: np.ndarray | None = field(repr=False, default=None)

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
    """Inclusive arithmetic grid of noise levels, rounded to avoid drift."""
    if p_step <= 0:
        raise ValueError(f"step must be positive, got {p_step}")
    if p_start < 0 or p_stop > 1 or p_start > p_stop:
        raise ValueError(
            f"noise range must satisfy 0 <= start <= stop <= 1, "
            f"got [{p_start}, {p_stop}]"
        )
    levels = []
    i = 0
    while True:
        p = round(p_start + i * p_step, 10)
        if p > p_stop + 1e-9:
            break
        levels.append(min(p, 1.0))
        i += 1
    return levels


def _trial_seed(base_seed: int, level_index: int, trial: int) -> int:
    ss = np.random.SeedSequence([base_seed, level_index, trial])
    return int(ss.generate_state(1, np.uint64)[0])


def run_noise_sweep(
    config: BenchConfig,
    p_values: list[float],
    trials: int,
    mitigation: str = "none",
    noise_kind: NoiseKind = NoiseKind.BIT_FLIP,
) -> SweepResult:
    """Nearest-neighbour accuracy vs noise level, averaged over trials.

    Each (level, trial) pair gets its own derived seed and one noise
    trajectory per encoded state.  p = 0 applies no errors, so its
    accuracy equals the noiseless run exactly (in the same distance mode).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not p_values:
        raise ValueError("need at least one noise level")
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"noise level must lie in [0, 1], got {p}")
    if config.model != "qknn":
        raise ValueError("noise sweeps are defined for the qknn model")
    prepared = prepare_experiment(config)
    y_test = prepared.test.labels
    accuracies = np.zeros((len(p_values), trials))
    for i, p in enumerate(p_values):
        for t in range(trials):
            noise = NoiseSpec(noise_kind, p) if p > 0 else None
            predictions, _ = _run_model(
                config,
                prepared,
                noise=noise,
                mitigation=mitigation,
                seed=_trial_seed(config.seed, i, t),
            )
            accuracies[i, t] = float(np.mean(predictions == y_test))
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
    # Each replace() validates its leg, so a bad leg fails before any runs.
    configs = [replace(config, model=model) for model in MODELS]
    return [run_benchmark(c) for c in configs]


def write_compare_csv(reports: list[dict], path: str | Path) -> None:
    columns = [
        "dataset", "model", "accuracy", "macro_precision",
        "macro_recall", "macro_f1", "auc",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for report in reports:
            metrics = report["metrics"]
            writer.writerow(
                {
                    "dataset": report["config"]["dataset"],
                    "model": report["config"]["model"],
                    "accuracy": repr(metrics["accuracy"]),
                    "macro_precision": repr(metrics["macro_precision"]),
                    "macro_recall": repr(metrics["macro_recall"]),
                    "macro_f1": repr(metrics["macro_f1"]),
                    "auc": repr(metrics["auc"]),
                }
            )
