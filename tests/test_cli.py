"""CLI tests driven through main(argv): exit codes, config-file merging,
and output files."""

import csv
import json
from dataclasses import replace

import pytest

from qknn.bench import BenchConfig, run_noise_sweep
from qknn.cli import build_parser, main
from qknn.noise import NoiseKind

from conftest import DATA_DIR


def run_cli(*argv):
    return main(list(argv))


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["run", "--dataset", "iris"],
            ["sweep", "--p-start", "0.0"],
            ["compare", "--k", "3"],
            ["select", "--bins", "8"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_choice_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--model", "svm"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestRun:
    def test_writes_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            "run",
            "--dataset", "iris",
            "--model", "cknn",
            "--k", "3",
            "--seed", "21",
            "--features", "4",
            "--data-dir", str(DATA_DIR),
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["model"] == "cknn"
        assert report["config"]["seed"] == 21
        assert "accuracy=" in capsys.readouterr().out

    def test_full_flag_set_accepted(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run_cli(
            "run",
            "--dataset", "iris",
            "--model", "qknn",
            "--k", "3",
            "--seed", "7",
            "--features", "2",
            "--angle-scale", "3.14159",
            "--distance", "sampled",
            "--shots", "64",
            "--data-dir", str(DATA_DIR),
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["distance"] == "sampled"
        assert report["config"]["shots"] == 64
        capsys.readouterr()

    def test_missing_out_is_an_argument_error(self, capsys):
        code = run_cli("run", "--dataset", "iris", "--data-dir", str(DATA_DIR))
        assert code == 2
        assert "argument error" in capsys.readouterr().err

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        code = run_cli(
            "run",
            "--dataset", "iris",
            "--data-dir", str(tmp_path),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "stage 'load'" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": "iris",
            "model": "cknn",
            "k": 1,
            "data_dir": str(DATA_DIR),
        }))
        out = tmp_path / "r.json"
        code = run_cli("run", "--config", str(cfg), "--k", "5", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["k"] == 5  # flag beat the file
        assert report["config"]["model"] == "cknn"  # file beat the default
        capsys.readouterr()

    def test_out_can_come_from_the_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": "iris",
            "model": "cknn",
            "data_dir": str(DATA_DIR),
            "out": str(out),
        }))
        assert run_cli("run", "--config", str(cfg)) == 0
        assert out.exists()
        capsys.readouterr()

    def test_unknown_keys_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"turbo": True}))
        code = run_cli("run", "--config", str(cfg), "--out", "x.json")
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = run_cli("run", "--config", str(cfg), "--out", "x.json")
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = run_cli(
            "run", "--config", str(tmp_path / "nope.json"), "--out", "x.json"
        )
        assert code == 2
        capsys.readouterr()

    def test_bad_config_value_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": "mnist"}))
        code = run_cli("run", "--config", str(cfg), "--out", "x.json")
        assert code == 2
        capsys.readouterr()

    def test_out_of_domain_flag_value_exits_two(self, tmp_path, capsys):
        # --k 0 parses as an int but can never be valid, so it is an
        # argument error, not a pipeline failure.
        code = run_cli(
            "run", "--dataset", "iris", "--k", "0",
            "--data-dir", str(DATA_DIR), "--out", str(tmp_path / "x.json"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "k must be at least 1" in err

    @pytest.mark.parametrize(
        "doc,message",
        [
            # The qnn circuit and its training are fixed; their old keys
            # are unknown.
            ({"qnn_learning_rate": -1}, "unknown keys: ['qnn_learning_rate']"),
            ({"qnn_rotation_axis": "Y"}, "unknown keys: ['qnn_rotation_axis']"),
            ({"qnn_layers": 0}, "unknown keys: ['qnn_layers']"),
            ({"qnn_init_scale": 0}, "unknown keys: ['qnn_init_scale']"),
            ({"feature_map_angle": float("nan")}, "feature_map_angle must be finite"),
            ({"use_feature_map": "no"}, "use_feature_map must be bool"),
            ({"k": "3"}, "k must be int"),
        ],
        ids=[
            "learning-rate", "rotation-axis", "layers", "init-scale", "nan-angle",
            "bool", "int",
        ],
    )
    def test_bad_value_rejected_before_data_loads(self, tmp_path, capsys, doc, message):
        # The data directory is empty, so any work past the config
        # boundary would fail at the load stage with exit code 1.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": "iris", "data_dir": str(tmp_path), **doc}))
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
        err = capsys.readouterr().err
        assert code == 2
        assert message in err


class TestQnnRegister:
    """The qnn register is sized from the dataset's fixed shape, so a
    feature count it cannot hold is an argument error (exit 2)."""

    @pytest.mark.parametrize(
        "command,dataset,features,message",
        [
            ("run", "wdbc", 20, "20 qubits exceeds the limit of 14"),
            ("run", "iris", 2, "3 classes need 3 readout qubits"),
            ("compare", "wdbc", 20, "20 qubits exceeds the limit of 14"),
            ("compare", "iris", 2, "3 classes need 3 readout qubits"),
        ],
        ids=["run-wdbc-20", "run-iris-2", "compare-wdbc-20", "compare-iris-2"],
    )
    def test_rejected_before_data_loads(self, tmp_path, capsys, command, dataset,
                                        features, message):
        # The data directory is empty, so getting past the config
        # boundary would fail at the load stage with exit code 1.
        argv = [command, "--dataset", dataset, "--features", str(features),
                "--data-dir", str(tmp_path), "--out", str(tmp_path / "out")]
        if command == "run":
            argv += ["--model", "qnn"]
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert message in err

    def test_iris_with_more_features_than_columns_runs_on_four_qubits(
        self, tmp_path, capsys
    ):
        out = tmp_path / "r.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"qnn_epochs": 1}))
        code = run_cli(
            "run", "--config", str(cfg), "--dataset", "iris", "--model", "qnn",
            "--features", "20", "--data-dir", str(DATA_DIR), "--out", str(out),
        )
        assert code == 0
        capsys.readouterr()
        assert len(json.loads(out.read_text())["selection"]["selected_columns"]) == 4


class TestSwapRegister:
    """Sampled distances run a swap test on 2*d+1 qubits, with d known from
    the dataset's fixed shape, so a d the simulator cannot hold is an
    argument error (exit 2) wherever sampled distances will run."""

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("run", {"distance": "sampled"}),
            # compare runs the qknn leg whichever model the config names
            ("compare", {"distance": "sampled", "model": "cknn"}),
            ("sweep", {"distance": "sampled", "mitigate": "physical-code"}),
        ],
        ids=["run-sampled", "compare-sampled", "sweep-physical-code-sampled"],
    )
    def test_wdbc_with_seven_features_exits_two_before_loading(
        self, tmp_path, capsys, command, doc
    ):
        # The data directory is empty, so getting past the config
        # boundary would fail at the load stage with exit code 1.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"features": 7, **doc}))
        code = run_cli(command, "--config", str(cfg), "--dataset", "wdbc",
                       "--data-dir", str(tmp_path), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert "swap-test register of 15 qubits, over the limit of 14" in err
        assert "max_qubits" not in err

    def test_sampled_sweep_flag_checks_the_register(self, tmp_path, capsys):
        code = run_cli("sweep", "--dataset", "wdbc", "--features", "7",
                       "--distance", "sampled", "--data-dir", str(tmp_path),
                       "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "swap-test register of 15 qubits" in capsys.readouterr().err

    def test_sampled_sweep_flag_with_six_features_reaches_the_load_stage(
        self, tmp_path, capsys
    ):
        code = run_cli("sweep", "--dataset", "wdbc", "--features", "6",
                       "--distance", "sampled", "--data-dir", str(tmp_path),
                       "--out", str(tmp_path / "s.csv"))
        assert code == 1
        assert "stage 'load' failed" in capsys.readouterr().err

    def test_wdbc_with_six_features_passes_the_config(self, tmp_path, capsys):
        code = run_cli("run", "--dataset", "wdbc", "--features", "6",
                       "--distance", "sampled", "--data-dir", str(tmp_path),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        assert "stage 'load' failed" in capsys.readouterr().err

    def test_iris_with_more_features_than_columns_runs_on_nine_qubits(
        self, tmp_path, capsys
    ):
        out = tmp_path / "r.json"
        code = run_cli("run", "--dataset", "iris", "--features", "20",
                       "--distance", "sampled", "--shots", "16",
                       "--data-dir", str(DATA_DIR), "--out", str(out))
        assert code == 0
        capsys.readouterr()
        assert len(json.loads(out.read_text())["selection"]["selected_columns"]) == 4


class TestEncodingRegister:
    """Exact distances encode d features on d qubits, so only d above the
    limit is an argument error."""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_wdbc_with_fifteen_features_exits_two_before_loading(
        self, tmp_path, capsys, command
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"features": 15}))
        code = run_cli(command, "--config", str(cfg), "--dataset", "wdbc",
                       "--data-dir", str(tmp_path), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert "15 qubits exceeds the limit of 14 (2**15 amplitudes)" in err
        assert "max_qubits" not in err

    def test_sweep_features_flag_checks_the_register(self, tmp_path, capsys):
        code = run_cli("sweep", "--dataset", "wdbc", "--features", "15",
                       "--data-dir", str(tmp_path), "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "15 qubits exceeds the limit of 14" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("run", {"features": 14}),
            ("sweep", {"features": 14}),
            # the repetition code repeats each encoding, not its qubits
            ("sweep", {"features": 7, "mitigate": "physical-code"}),
        ],
        ids=["run-14", "sweep-14", "sweep-physical-code-7"],
    )
    def test_wdbc_config_passes_to_the_load_stage(self, tmp_path, capsys, command, doc):
        # The data directory is empty, so a config that passes fails to load.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run_cli(command, "--config", str(cfg), "--dataset", "wdbc",
                       "--data-dir", str(tmp_path), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "stage 'load' failed" in capsys.readouterr().err


class TestNeighbourCount:
    """k is bounded by the training rows the split will give, known from the
    dataset's fixed class sizes before any data loads."""

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    def test_k_above_the_training_set_exits_two_before_loading(
        self, tmp_path, capsys, command
    ):
        code = run_cli(command, "--dataset", "wdbc", "--k", "500",
                       "--data-dir", str(tmp_path), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "k must lie in [1, 456]" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["qknn", "cknn"])
    def test_k_equal_to_the_training_set_runs(self, tmp_path, capsys, model):
        out = tmp_path / "r.json"
        code = run_cli("run", "--dataset", "iris", "--model", model, "--k", "120",
                       "--data-dir", str(DATA_DIR), "--out", str(out))
        assert code == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert len(report["split"]["train_indices"]) == 120


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_missing_out_directory_exits_two_before_any_work(tmp_path, capsys, command):
    out = tmp_path / "missing" / "result"
    code = run_cli(command, "--dataset", "iris", "--data-dir", str(tmp_path), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert "output directory" in err


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
@pytest.mark.parametrize("out", [5, True, ["r.json"], {"path": "r.json"}, ""])
def test_out_that_is_not_a_path_string_exits_two_before_loading(
    tmp_path, capsys, command, out
):
    # The data directory is empty, so a load would exit 1 instead.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": "iris", "data_dir": str(tmp_path), "out": out}))
    code = run_cli(command, "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 2
    assert f"argument error: out must be a non-empty path string, got {out!r}" in err


class TestSweep:
    def test_tiny_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep",
            "--dataset", "iris",
            "--p-start", "0.0",
            "--p-stop", "0.2",
            "--p-step", "0.2",
            "--trials", "2",
            "--mitigate", "none",
            "--seed", "3",
            "--data-dir", str(DATA_DIR),
            "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["p"] for row in rows] == ["0.0", "0.2"]
        assert all(row["trials"] == "2" for row in rows)
        assert "p=0.00" in capsys.readouterr().out

    def test_bad_noise_range_exits_two(self, capsys):
        code = run_cli(
            "sweep",
            "--dataset", "iris",
            "--p-start", "0.5",
            "--p-stop", "0.1",
            "--data-dir", str(DATA_DIR),
            "--out", "x.csv",
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"trials": 1.9}, "trials must be int"),
            ({"trials": True}, "trials must be int"),
            ({"p_step": "0.1"}, "p_step must be float"),
        ],
    )
    def test_mistyped_option_exits_two_before_loading(
        self, tmp_path, capsys, option, message
    ):
        # The data dir is empty: reaching the load stage would exit 1.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": "iris", "data_dir": str(tmp_path), **option}))
        code = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["qnn", "cknn"])
    def test_non_qknn_model_exits_two_before_loading(self, tmp_path, capsys, model):
        # The data dir is empty: reaching the load stage would exit 1.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": "iris", "data_dir": str(tmp_path), "model": model}))
        code = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert f"noise sweeps are defined for the qknn model, got '{model}'" in (
            capsys.readouterr().err
        )

    def test_oversized_noise_grid_exits_two_before_loading(self, tmp_path, capsys):
        # The data dir is empty: reaching the load stage would exit 1.
        code = run_cli(
            "sweep",
            "--dataset", "iris",
            "--p-stop", "1.0",
            "--p-step", "1e-6",
            "--data-dir", str(tmp_path),
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "more than 1001 noise levels" in capsys.readouterr().err

    def test_oversized_sweep_exits_two_before_loading(self, tmp_path, capsys):
        # tmp_path holds no data files: reaching the loader would exit 1.
        code = run_cli(
            "sweep",
            "--dataset", "iris",
            "--trials", "1000000000",
            "--data-dir", str(tmp_path),
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "more than 100000 sweep runs" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_zero_trials_exits_two_before_loading(self, tmp_path, capsys):
        code = run_cli(
            "sweep",
            "--dataset", "iris",
            "--trials", "0",
            "--data-dir", str(tmp_path),
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "trials must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"mitigate": "bogus"}, "mitigation must be one of"),
            (
                {"mitigate": "repeat-vote"},
                "mitigation must be one of ('none', 'physical-code'), got 'repeat-vote'",
            ),
            ({"noise_kind": "bogus"}, "'bogus' is not a valid NoiseKind"),
        ],
        ids=["mitigation", "repeat-vote", "noise-kind"],
    )
    def test_unknown_mode_in_the_config_file_exits_two_before_loading(
        self, tmp_path, capsys, option, message
    ):
        # The data dir is empty: reaching the load stage would exit 1.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": "iris", "data_dir": str(tmp_path), **option}))
        code = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert message in capsys.readouterr().err

    def test_nan_step_exits_two(self, tmp_path, capsys):
        code = run_cli("sweep", "--dataset", "iris", "--p-step", "nan",
                       "--data-dir", str(tmp_path), "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "step must be positive and finite" in capsys.readouterr().err

    def test_integer_noise_levels_are_valid_floats(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": "iris",
            "data_dir": str(DATA_DIR),
            "p_start": 0,
            "p_stop": 0,
            "p_step": 1,
            "trials": 1,
        }))
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        with open(out) as fh:
            assert [row["p"] for row in csv.DictReader(fh)] == ["0.0"]
        capsys.readouterr()

    def test_repeat_vote_flag_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--dataset", "iris", "--mitigate", "repeat-vote",
                    "--data-dir", str(tmp_path), "--out", str(tmp_path / "s.csv"))
        assert exc.value.code == 2
        assert "invalid choice: 'repeat-vote'" in capsys.readouterr().err

    def test_sampled_distance_flag_reaches_the_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep",
            "--dataset", "iris",
            "--distance", "sampled",
            "--shots", "64",
            "--seed", "5",
            "--trials", "1",
            "--p-start", "0.1",
            "--p-stop", "0.1",
            "--p-step", "0.1",
            "--data-dir", str(DATA_DIR),
            "--out", str(out),
        )
        assert code == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        config = BenchConfig(distance="sampled", shots=64, seed=5, data_dir=str(DATA_DIR))
        sampled = run_noise_sweep(config, [0.1], 1, "none", NoiseKind.BIT_FLIP)
        exact = run_noise_sweep(replace(config, distance="exact"), [0.1], 1, "none",
                                NoiseKind.BIT_FLIP)
        assert [row["mean_accuracy"] for row in rows] == [repr(sampled.mean_accuracy[0])]
        # At this seed 64 shots per pair move the accuracy off the exact one.
        assert sampled.mean_accuracy != exact.mean_accuracy


class TestCompare:
    def test_compare_writes_three_rows(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": "iris",
            "features": 3,
            "qnn_epochs": 2,
            "data_dir": str(DATA_DIR),
        }))
        code = run_cli("compare", "--config", str(cfg), "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["model"] for row in rows] == ["qknn", "cknn", "qnn"]
        assert capsys.readouterr().out.count("accuracy=") == 3


class TestSelect:
    def test_prints_ranking(self, capsys):
        code = run_cli(
            "select",
            "--dataset", "iris",
            "--bins", "8",
            "--policy", "topk=2",
            "--data-dir", str(DATA_DIR),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy: topk=2" in out
        assert out.count("[kept]") == 2
        assert out.count("[dropped]") == 2
        assert "petal_length" in out

    def test_alpha_policy(self, capsys):
        code = run_cli(
            "select",
            "--dataset", "iris",
            "--policy", "alpha=0.05",
            "--data-dir", str(DATA_DIR),
        )
        assert code == 0
        assert "policy: alpha=0.05" in capsys.readouterr().out

    def test_bad_policy_exits_two(self, capsys):
        code = run_cli(
            "select", "--dataset", "iris", "--policy", "best=3",
            "--data-dir", str(DATA_DIR),
        )
        assert code == 2
        assert "argument error" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["topk=abc", "topk=2.5", "topk=", "alpha=x"])
    def test_unparsable_policy_value_exits_two_with_the_policy_form(self, capsys, policy):
        code = run_cli(
            "select", "--dataset", "iris", "--policy", policy,
            "--data-dir", str(DATA_DIR),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"policy must look like 'topk=4' or 'alpha=0.05', got {policy!r}" in err

    def test_non_string_config_policy_exits_two(self, tmp_path, capsys):
        # str() of the list used to read back as the kind "['topk".
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": ["topk=2"]}))
        code = run_cli("select", "--config", str(cfg), "--dataset", "iris",
                       "--data-dir", str(DATA_DIR))
        err = capsys.readouterr().err
        assert code == 2
        assert "policy must be a string, got ['topk=2']" in err

    def test_bad_bins_exits_two(self, capsys):
        code = run_cli(
            "select", "--dataset", "iris", "--bins", "1",
            "--data-dir", str(DATA_DIR),
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "doc", [{"features": 15}, {"model": "qnn", "features": 20}],
        ids=["qknn-15", "qnn-20"],
    )
    def test_register_too_wide_to_run_still_ranks(self, tmp_path, capsys, doc):
        # select builds no register, so a config that run would refuse for
        # its qubit count still prints the ranking.
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps(doc))
        code = run_cli("select", "--config", str(cfg), "--dataset", "wdbc",
                       "--data-dir", str(DATA_DIR))
        assert code == 0
        out = capsys.readouterr().out
        assert "dataset=wdbc (569 rows)" in out
        assert out.count("[kept]") == 4

    def test_missing_data_exits_one(self, tmp_path, capsys):
        code = run_cli("select", "--dataset", "iris", "--data-dir", str(tmp_path))
        assert code == 1
        capsys.readouterr()
