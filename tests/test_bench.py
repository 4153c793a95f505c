"""Benchmark harness tests: config handling, pipeline artifacts,
replayability, sweeps, and CSV/JSON writers."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qknn import qnn
from qknn.bench import (
    DATASET_FILES,
    DATASET_SHAPES,
    BenchConfig,
    BenchStageError,
    _qknn_config,
    load_benchmark_dataset,
    noise_grid,
    prepare_experiment,
    report_to_json,
    run_benchmark,
    run_compare,
    run_noise_sweep,
    write_compare_csv,
    write_report,
    write_sweep_csv,
)
from qknn.classifier import classify, fit
from qknn.data import stratified_indices
from qknn.encoding import apply_feature_map, encode_point
from qknn.noise import NoiseKind
from qknn.sim import ResourceLimitError

from conftest import BANKNOTE_PATH, DATA_DIR, REPO_ROOT


def iris_config(**kwargs):
    defaults = dict(dataset="iris", data_dir="data")
    defaults.update(kwargs)
    return BenchConfig(**defaults)


class TestConfig:
    def test_defaults(self):
        cfg = BenchConfig()
        assert cfg.dataset == "iris"
        assert cfg.model == "qknn"
        assert cfg.k == 3
        assert cfg.distance == "exact"
        assert cfg.angle_scale == pytest.approx(2 * math.pi)

    def test_dict_round_trip(self):
        cfg = iris_config(model="cknn", k=5, features=3)
        back = BenchConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys.*nonsense"):
            BenchConfig.from_dict({"nonsense": 1})

    def test_validation(self):
        with pytest.raises(ValueError, match="dataset"):
            BenchConfig(dataset="mnist")
        with pytest.raises(ValueError, match="model"):
            BenchConfig(model="svm")
        with pytest.raises(ValueError, match="k must"):
            BenchConfig(k=0)
        with pytest.raises(ValueError, match="seed"):
            BenchConfig(seed=-1)
        with pytest.raises(ValueError, match="feature count"):
            BenchConfig(features=0)
        with pytest.raises(ValueError, match="bins"):
            BenchConfig(bins=1)
        with pytest.raises(ValueError, match="angle_scale"):
            BenchConfig(angle_scale=float("nan"))
        with pytest.raises(ValueError, match="distance"):
            BenchConfig(distance="guessed")
        with pytest.raises(ValueError, match="shots"):
            BenchConfig(shots=0)
        with pytest.raises(ValueError, match="test fraction"):
            BenchConfig(test_fraction=1.5)

    def test_field_types(self):
        with pytest.raises(TypeError, match="k must be int"):
            BenchConfig(k=True)
        with pytest.raises(TypeError, match="use_feature_map must be bool"):
            BenchConfig(use_feature_map=1)
        assert BenchConfig(angle_scale=3).angle_scale == 3

    def test_qnn_register_checked_against_the_dataset_shape(self):
        # One qubit per selected feature, at most the dataset's columns.
        with pytest.raises(ResourceLimitError, match="20 qubits"):
            BenchConfig(dataset="wdbc", model="qnn", features=20)
        with pytest.raises(ValueError, match="3 classes need 3 readout qubits"):
            BenchConfig(dataset="iris", model="qnn", features=2)
        assert BenchConfig(dataset="iris", model="qnn", features=20).features == 20
        # cknn never builds a register.
        assert BenchConfig(dataset="wdbc", model="cknn", features=20).features == 20

    def test_swap_register_checked_against_the_dataset_shape(self):
        # A sampled swap test holds an ancilla and two d-qubit states, with
        # d = min(features, columns).
        with pytest.raises(ResourceLimitError, match="register of 15 qubits"):
            BenchConfig(dataset="wdbc", distance="sampled", features=7)
        assert BenchConfig(dataset="wdbc", distance="sampled", features=6).features == 6
        assert BenchConfig(dataset="iris", distance="sampled", features=20).features == 20
        # Exact distances and other models never build that register, but
        # exact distances encode d features on d qubits.
        assert BenchConfig(dataset="wdbc", features=14).features == 14
        with pytest.raises(ResourceLimitError, match="15 qubits exceeds the limit of 14"):
            BenchConfig(dataset="wdbc", features=15)
        assert BenchConfig(dataset="wdbc", model="cknn", distance="sampled",
                           features=7).features == 7

    @pytest.mark.parametrize("name", sorted(DATASET_FILES))
    def test_dataset_shapes_match_the_files(self, name):
        if name == "banknote" and not BANKNOTE_PATH.exists():
            pytest.skip("banknote dataset file not present")
        dataset = load_benchmark_dataset(name, DATA_DIR)
        columns, class_rows = DATASET_SHAPES[name]
        assert columns == dataset.n_features
        assert class_rows == tuple(np.bincount(dataset.labels).tolist())

    @pytest.mark.parametrize("name", sorted(DATASET_FILES))
    @pytest.mark.parametrize("fraction", [0.2, 0.35])
    def test_k_is_bounded_by_the_training_set_before_loading(self, name, fraction):
        # The bound equals the training rows the split really yields.
        labels = np.repeat(np.arange(len(DATASET_SHAPES[name][1])), DATASET_SHAPES[name][1])
        n_train = stratified_indices(labels, fraction, seed=0)[0].size
        cfg = BenchConfig(dataset=name, k=n_train, test_fraction=fraction)
        assert cfg.k == n_train
        with pytest.raises(ValueError, match=rf"k must lie in \[1, {n_train}\]"):
            BenchConfig(dataset=name, k=n_train + 1, test_fraction=fraction)


class TestLoading:
    def test_missing_file_names_the_fetch_script(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="fetch_data"):
            load_benchmark_dataset("iris", tmp_path)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            load_benchmark_dataset("digits", "data")

    def test_stage_error_names_the_stage(self, tmp_path):
        cfg = iris_config(data_dir=str(tmp_path))
        with pytest.raises(BenchStageError, match="stage 'load'"):
            prepare_experiment(cfg)


class TestPrepare:
    def test_artifacts_describe_the_pipeline(self):
        prepared = prepare_experiment(iris_config(features=2))
        art = prepared.artifacts
        assert art["dataset"]["name"] == "iris"
        assert art["dataset"]["n_instances"] == 150
        assert len(art["split"]["test_indices"]) == 30
        assert len(art["selection"]["selected_columns"]) == 2
        assert prepared.train.n_features == 2
        assert prepared.test.n_features == 2
        assert prepared.train.n_instances == 120

    def test_selected_columns_ascend_for_stable_qubit_mapping(self):
        prepared = prepare_experiment(iris_config(features=3))
        cols = prepared.artifacts["selection"]["selected_columns"]
        assert cols == sorted(cols)
        kept = prepared.artifacts["selection"]["kept_indices"]
        assert sorted(kept) == cols

    def test_split_is_disjoint(self):
        prepared = prepare_experiment(iris_config())
        train_idx = set(prepared.artifacts["split"]["train_indices"])
        test_idx = set(prepared.artifacts["split"]["test_indices"])
        assert not train_idx & test_idx
        assert len(train_idx | test_idx) == 150

    def test_features_lie_in_unit_interval(self):
        prepared = prepare_experiment(iris_config())
        for ds in (prepared.train, prepared.test):
            assert ds.features.min() >= 0.0
            assert ds.features.max() <= 1.0


class TestRunBenchmark:
    def test_report_structure(self):
        report = run_benchmark(iris_config(model="cknn"))
        for key in (
            "config",
            "dataset",
            "split",
            "normalization",
            "selection",
            "predictions",
            "true_labels",
            "scores",
            "metrics",
        ):
            assert key in report
        assert len(report["predictions"]) == 30
        assert len(report["scores"][0]) == 3
        assert 0.0 <= report["metrics"]["accuracy"] <= 1.0

    def test_replay_is_bitwise_identical(self):
        cfg = iris_config()
        first = report_to_json(run_benchmark(cfg))
        replayed = report_to_json(run_benchmark(BenchConfig.from_dict(json.loads(first)["config"])))
        assert first == replayed

    def test_sampled_replay_is_bitwise_identical(self):
        cfg = iris_config(distance="sampled", shots=256)
        first = report_to_json(run_benchmark(cfg))
        replayed = report_to_json(run_benchmark(BenchConfig.from_dict(json.loads(first)["config"])))
        assert first == replayed

    def test_sampled_rows_classify_the_same_in_reverse_order(self):
        # Each test row draws its shots from its own stream, seeded by the
        # config seed and the row, so no row depends on the rows before it.
        cfg = iris_config(distance="sampled", shots=256)
        report = run_benchmark(cfg)
        prepared = prepare_experiment(cfg)
        qcfg = _qknn_config(cfg)
        assert qcfg.use_feature_map
        model = fit(prepared.train, qcfg)
        for i in reversed(range(prepared.test.n_instances)):
            row = encode_point(prepared.test.features[i], qcfg.encoding, source_row=i)
            label, scores = classify(model, apply_feature_map(row))
            assert label == report["predictions"][i]
            assert [float(s) for s in scores] == report["scores"][i]

    def test_qknn_and_cknn_share_the_split(self):
        q = run_benchmark(iris_config(model="qknn"))
        c = run_benchmark(iris_config(model="cknn"))
        assert q["split"] == c["split"]
        assert q["true_labels"] == c["true_labels"]

    def test_qnn_leg_runs_end_to_end(self):
        # tiny settings keep this fast; accuracy itself is not the point here
        cfg = iris_config(model="qnn", qnn_layers=1, qnn_epochs=2)
        report = run_benchmark(cfg)
        assert len(report["predictions"]) == 30
        np.testing.assert_allclose(np.sum(report["scores"], axis=1), 1.0, atol=1e-9)

    def test_qnn_test_set_runs_one_forward(self, monkeypatch):
        # With no epochs, training runs no forward: the one left is the
        # test set's, shared by the labels and the scores.
        calls = []
        forward = qnn._forward_batch

        def counting(arch, X):
            calls.append(np.shape(X))
            return forward(arch, X)

        monkeypatch.setattr(qnn, "_forward_batch", counting)
        report = run_benchmark(iris_config(model="qnn", qnn_layers=1, qnn_epochs=0))
        assert calls == [(30, 4)]
        assert report["predictions"] == np.argmax(report["scores"], axis=1).tolist()

    def test_write_report_round_trips(self, tmp_path):
        report = run_benchmark(iris_config(model="cknn"))
        out = tmp_path / "report.json"
        write_report(report, out)
        text = out.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == report


class TestNoiseGrid:
    def test_inclusive_grid(self):
        assert noise_grid(0.0, 0.6, 0.1) == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        )
        assert noise_grid(0.2, 0.2, 0.1) == [0.2]

    def test_no_floating_point_drift(self):
        grid = noise_grid(0.0, 0.3, 0.1)
        assert grid == [0.0, 0.1, 0.2, 0.3]

    def test_validation(self):
        with pytest.raises(ValueError, match="step"):
            noise_grid(0.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="range"):
            noise_grid(0.4, 0.2, 0.1)
        with pytest.raises(ValueError, match="range"):
            noise_grid(0.0, 1.5, 0.5)


SMALL_SWEEP = dict(features=2, test_fraction=0.15)


class TestNoiseSweep:
    def test_zero_level_equals_the_noiseless_run(self):
        cfg = iris_config(**SMALL_SWEEP)
        sweep = run_noise_sweep(cfg, [0.0], trials=3)
        clean = run_benchmark(cfg)
        for trial in range(3):
            assert sweep.trial_accuracies[0, trial] == pytest.approx(
                clean["metrics"]["accuracy"], abs=1e-12
            )
        assert sweep.std_accuracy[0] == pytest.approx(0.0, abs=1e-12)

    def test_levels_and_shapes(self):
        cfg = iris_config(**SMALL_SWEEP)
        sweep = run_noise_sweep(
            cfg, [0.0, 0.3], trials=2, noise_kind=NoiseKind.PHASE_FLIP
        )
        assert sweep.noise_levels == [0.0, 0.3]
        assert sweep.trial_accuracies.shape == (2, 2)
        assert sweep.noise_kind == "phase_flip"
        assert len(sweep.rows()) == 2

    def test_deterministic(self):
        cfg = iris_config(**SMALL_SWEEP)
        a = run_noise_sweep(cfg, [0.2], trials=2)
        b = run_noise_sweep(cfg, [0.2], trials=2)
        np.testing.assert_array_equal(a.trial_accuracies, b.trial_accuracies)

    def test_validation(self):
        cfg = iris_config(**SMALL_SWEEP)
        with pytest.raises(ValueError, match="trials"):
            run_noise_sweep(cfg, [0.1], trials=0)
        with pytest.raises(ValueError, match="noise level"):
            run_noise_sweep(cfg, [1.2], trials=1)
        with pytest.raises(ValueError, match="qknn"):
            run_noise_sweep(iris_config(model="cknn", **SMALL_SWEEP), [0.1], trials=1)

    def test_empty_level_list_is_rejected_before_loading(self, tmp_path):
        # The data directory does not exist, so reaching the loader would
        # fail with a load error instead.
        cfg = iris_config(data_dir=str(tmp_path / "missing"), **SMALL_SWEEP)
        with pytest.raises(ValueError, match="at least one noise level"):
            run_noise_sweep(cfg, [], trials=3)

    def test_sweep_csv(self, tmp_path):
        cfg = iris_config(**SMALL_SWEEP)
        sweep = run_noise_sweep(cfg, [0.0, 0.1], trials=2, mitigation="physical-code")
        out = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["p"] == "0.0"
        assert rows[0]["mitigation"] == "physical-code"
        assert float(rows[1]["mean_accuracy"]) == pytest.approx(sweep.mean_accuracy[1])


class TestCompare:
    def test_all_three_models_reported(self, tmp_path):
        # three readout qubits are needed for the three iris classes
        cfg = iris_config(features=3, qnn_layers=1, qnn_epochs=2)
        reports = run_compare(cfg)
        assert [r["config"]["model"] for r in reports] == ["qknn", "cknn", "qnn"]
        # identical split for a fair comparison
        splits = {json.dumps(r["split"], sort_keys=True) for r in reports}
        assert len(splits) == 1
        out = tmp_path / "compare.csv"
        write_compare_csv(reports, out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["model"] for row in rows] == ["qknn", "cknn", "qnn"]
        assert rows[0]["dataset"] == "iris"
        for row in rows:
            assert 0.0 <= float(row["accuracy"]) <= 1.0
            assert set(row) == {
                "dataset",
                "model",
                "accuracy",
                "macro_precision",
                "macro_recall",
                "macro_f1",
                "auc",
            }

    def test_every_leg_is_validated_before_any_runs(self, tmp_path):
        # The qknn leg is valid on 2 features, the qnn leg is not.  The data
        # directory is empty, so running a leg first would fail to load.
        cfg = BenchConfig(dataset="iris", features=2, data_dir=str(tmp_path))
        with pytest.raises(ValueError, match="3 classes need 3 readout qubits"):
            run_compare(cfg)


def test_benchmark_runs_never_import_numpy_ma():
    # numpy.ma costs about a megabyte of resident memory per process.
    code = (
        "import sys\n"
        "from qknn.bench import BenchConfig, run_benchmark\n"
        "for model in ('qknn', 'cknn', 'qnn'):\n"
        f"    run_benchmark(BenchConfig(dataset='iris', model=model, qnn_epochs=1, "
        f"data_dir={str(DATA_DIR)!r}))\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
