"""Acceptance suite: one test per published criterion, each printing a
single [PASS]/[FAIL] line with the measured values at pinned tolerances.

The lines are written through pytest's terminal reporter so they appear in
the run log even while output capture is active.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qknn.bench import BenchConfig, report_to_json, run_benchmark, run_noise_sweep
from qknn.data import chi_square_select, chi_square_sf
from qknn.encoding import EncodingConfig, encode_point
from qknn.noise import NoiseKind, NoiseSpec
from qknn.qec import code_corrected_flip
from qknn.qnn import TrainConfig, batch_loss, gradient, init_architecture, predict_proba, train
from qknn.sim import (
    Gate,
    GateOp,
    GATE_ARITY,
    PARAMETRIC_GATES,
    StateVector,
    apply_gate,
    gate_matrix,
)

from conftest import BANKNOTE_PATH, BANKNOTE_REASON, DATA_DIR
from oracles import (
    apply_dense,
    chi2_bruteforce,
    correct,
    encode_logical,
    expected_density_effect,
    finite_difference_gradient,
    majority_decode,
    measure_syndrome,
    quantum_distance,
    random_state,
    readout_bits,
    run_trajectory_batch,
)


_reporter = None


@pytest.fixture(autouse=True, scope="module")
def _capture_reporter(request):
    # Terminal reporter bypasses output capture so the criterion lines land
    # in the log of a plain ``pytest`` run, not only under ``-s``.
    global _reporter
    _reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    yield
    _reporter = None


def _emit(line: str) -> None:
    print(line)
    if _reporter is not None:
        _reporter.write_line(line)


def _criterion(name: str, ok: bool, detail: str) -> None:
    _emit(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def bench(dataset: str, model: str, **kwargs) -> dict:
    cfg = BenchConfig(dataset=dataset, model=model, data_dir=str(DATA_DIR), **kwargs)
    return run_benchmark(cfg)


class TestAcceptance:
    def test_c01_iris_qknn_accuracy(self):
        start = time.perf_counter()
        report = bench("iris", "qknn")
        elapsed = time.perf_counter() - start
        accuracy = report["metrics"]["accuracy"]
        _criterion(
            "C01 iris qknn accuracy >= 0.95 within 10 s",
            accuracy >= 0.95 and elapsed < 10.0,
            f"accuracy={accuracy:.4f}, runtime={elapsed:.2f}s",
        )

    def test_c02_iris_cknn_accuracy(self):
        report = bench("iris", "cknn")
        accuracy = report["metrics"]["accuracy"]
        _criterion(
            "C02 iris cknn accuracy >= 0.93",
            accuracy >= 0.93,
            f"accuracy={accuracy:.4f}",
        )

    def test_c03_banknote_accuracy(self):
        if not BANKNOTE_PATH.exists():
            _emit(f"[SKIP] C03 banknote accuracy: {BANKNOTE_REASON}")
            pytest.skip(BANKNOTE_REASON)
        start = time.perf_counter()
        q = bench("banknote", "qknn")["metrics"]["accuracy"]
        c = bench("banknote", "cknn")["metrics"]["accuracy"]
        elapsed = time.perf_counter() - start
        _criterion(
            "C03 banknote qknn and cknn accuracy >= 0.95 within 120 s",
            q >= 0.95 and c >= 0.95 and elapsed < 120.0,
            f"qknn={q:.4f}, cknn={c:.4f}, runtime={elapsed:.1f}s",
        )

    def test_c04_wdbc_qknn_accuracy(self):
        report = bench("wdbc", "qknn")
        accuracy = report["metrics"]["accuracy"]
        _criterion(
            "C04 wdbc qknn accuracy >= 0.90",
            accuracy >= 0.90,
            f"accuracy={accuracy:.4f}",
        )

    def test_c05_noise_sweep_monotone_degradation(self):
        start = time.perf_counter()
        cfg = BenchConfig(dataset="iris", model="qknn", data_dir=str(DATA_DIR))
        levels = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        sweep = run_noise_sweep(cfg, levels, trials=20)
        elapsed = time.perf_counter() - start
        means = dict(zip(sweep.noise_levels, sweep.mean_accuracy))
        ordered = means[0.1] > means[0.3] > means[0.6]
        _criterion(
            "C05 mean accuracy degrades across p=0.1 > 0.3 > 0.6 (20 trials, < 15 min)",
            ordered and elapsed < 900.0,
            f"mean(0.1)={means[0.1]:.4f}, mean(0.3)={means[0.3]:.4f}, "
            f"mean(0.6)={means[0.6]:.4f}, runtime={elapsed:.1f}s",
        )

    def test_c06_gate_unitarity(self):
        rng = np.random.default_rng(606)
        worst = 0.0
        checked = 0
        for kind in Gate:
            angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=100) if kind in PARAMETRIC_GATES else [None]
            for angle in angles:
                matrix = gate_matrix(kind, angle)
                identity = np.eye(matrix.shape[0])
                worst = max(worst, float(np.max(np.abs(matrix.conj().T @ matrix - identity))))
                checked += 1
        _criterion(
            "C06 every gate matrix unitary within 1e-10 (100 random angles each)",
            worst < 1e-10,
            f"gates checked={checked}, worst |U+U - I|={worst:.2e}",
        )

    def test_c07_long_circuit_norm_and_dense_oracle(self):
        rng = np.random.default_rng(707)
        n = 4
        state = StateVector(n, random_state(n, rng))
        dense = state.amplitudes.copy()
        kinds = [g for g in Gate if GATE_ARITY[g] <= n]
        for _ in range(1000):
            kind = kinds[rng.integers(len(kinds))]
            targets = tuple(rng.choice(n, size=GATE_ARITY[kind], replace=False))
            angle = float(rng.uniform(-math.pi, math.pi)) if kind in PARAMETRIC_GATES else None
            op = GateOp(kind, targets, angle)
            state = apply_gate(state, op)
            dense = apply_dense(dense, gate_matrix(kind, angle), targets, n)
        norm_drift = abs(np.linalg.norm(state.amplitudes) - 1.0)
        oracle_gap = float(np.max(np.abs(state.amplitudes - dense)))
        _criterion(
            "C07 1000-gate circuit: norm preserved and matches dense oracle within 1e-10",
            norm_drift < 1e-10 and oracle_gap < 1e-10,
            f"norm drift={norm_drift:.2e}, max amplitude gap={oracle_gap:.2e}",
        )

    def test_c08_sampled_swap_test_converges(self):
        rng = np.random.default_rng(808)
        config = EncodingConfig(angle_scale=math.pi)
        worst = 0.0
        for pair in range(50):
            xa, xb = rng.uniform(0, 1, size=(2, 2))
            a = encode_point(xa, config, source_row=pair)
            b = encode_point(xb, config, source_row=pair + 50)
            exact = quantum_distance(a, b, mode="exact")
            sampled = quantum_distance(a, b, mode="sampled", shots=100_000, seed=pair)
            worst = max(worst, abs(exact - sampled))
        _criterion(
            "C08 sampled swap-test distance within 0.005 of exact (50 pairs, 1e5 shots)",
            worst < 0.005,
            f"worst |exact - sampled|={worst:.5f}",
        )

    def test_c09_feature_map_invariance(self):
        datasets = ["iris", "wdbc"]
        notes = []
        identical = True
        for name in datasets:
            with_map = bench(name, "qknn", use_feature_map=True)
            without = bench(name, "qknn", use_feature_map=False)
            same = with_map["predictions"] == without["predictions"]
            identical = identical and same
            notes.append(f"{name}={'identical' if same else 'DIFFER'}")
        if BANKNOTE_PATH.exists():
            with_map = bench("banknote", "qknn", use_feature_map=True)
            without = bench("banknote", "qknn", use_feature_map=False)
            same = with_map["predictions"] == without["predictions"]
            identical = identical and same
            notes.append(f"banknote={'identical' if same else 'DIFFER'}")
        else:
            notes.append("banknote=unavailable (skipped)")
        _criterion(
            "C09 exact-mode predictions unchanged by the entangling feature map",
            identical,
            ", ".join(notes),
        )

    def test_c10_trajectory_average_matches_channel(self):
        rng = np.random.default_rng(1010)
        state = StateVector(1, random_state(1, rng))
        worst = 0.0
        for kind in NoiseKind:
            for p in (0.1, 0.3, 0.6):
                spec = NoiseSpec(kind, p)
                avg_rho = run_trajectory_batch(state, spec, [0], 100_000, seed=17)
                exact = expected_density_effect(spec, state)
                worst = max(worst, float(np.max(np.abs(avg_rho - exact))))
        _criterion(
            "C10 trajectory-averaged density within 0.01 of the exact channel "
            "(4 kinds x p in {0.1, 0.3, 0.6}, 1e5 shots)",
            worst < 0.01,
            f"worst elementwise gap={worst:.4f}",
        )

    def test_c11_repetition_code_correction(self):
        n = 3
        singles_ok = 0
        for bit in (0, 1):
            for q in range(3):
                state = apply_gate(encode_logical(bit, n), GateOp(Gate.X, (q,)))
                state = correct(state, measure_syndrome(state, n), n)
                if majority_decode(readout_bits(state, n)) == bit:
                    singles_ok += 1
        doubles_flip = all(
            code_corrected_flip([1 if q in pair else 0 for q in range(3)]) == 1
            for pair in itertools.combinations(range(3), 2)
        )
        _criterion(
            "C11 repetition code corrects all 6 single flips; double flips "
            "deterministically invert the logical bit",
            singles_ok == 6 and doubles_flip,
            f"single flips corrected={singles_ok}/6, "
            f"double-flip logical error={'always' if doubles_flip else 'NOT always'}",
        )

    def test_c12_parameter_shift_gradients_and_training(self):
        rng = np.random.default_rng(1212)
        worst = 0.0
        for case in range(50):
            n_qubits = int(rng.integers(1, 5))
            n_layers = int(rng.integers(1, 3))
            n_classes = 2 if n_qubits < 3 else int(rng.choice([2, 3]))
            arch = init_architecture(
                n_qubits, n_layers, n_classes, seed=case, init_scale=1.0
            )
            X = rng.uniform(0, math.pi, size=(4, n_qubits))
            y = rng.integers(0, n_classes, size=4)
            y[:n_classes] = np.arange(n_classes)
            analytic = gradient(arch, X, y)
            numeric = finite_difference_gradient(
                lambda p: batch_loss(arch.with_params(p), X, y), arch.params
            )
            worst = max(worst, float(np.max(np.abs(analytic - numeric))))
        # end-to-end: separable blobs train to high accuracy
        blob_rng = np.random.default_rng(77)
        Xa = blob_rng.normal([0.6, 0.6], 0.25, size=(12, 2))
        Xb = blob_rng.normal([2.4, 2.4], 0.25, size=(12, 2))
        X = np.clip(np.vstack([Xa, Xb]), 0, math.pi)
        y = np.array([0] * 12 + [1] * 12)
        arch = init_architecture(2, 2, 2, seed=0, init_scale=0.01)
        trained, _ = train(arch, X, y, TrainConfig(learning_rate=0.5, epochs=60))
        accuracy = float(np.mean(np.argmax(predict_proba(trained, X), axis=1) == y))
        _criterion(
            "C12 parameter-shift gradient within 1e-4 of finite differences "
            "(50 architectures) and blob training reaches 0.9",
            worst < 1e-4 and accuracy >= 0.9,
            f"worst gradient gap={worst:.2e}, training accuracy={accuracy:.3f}",
        )

    def test_c13_chi_square_statistics(self):
        rng = np.random.default_rng(1313)
        import qknn.data as data_mod

        features = rng.normal(size=(80, 4))
        labels = rng.integers(0, 3, size=80)
        labels[:3] = [0, 1, 2]
        d = data_mod.Dataset(
            name="toy",
            features=features,
            labels=labels,
            feature_names=tuple(f"f{i}" for i in range(4)),
            class_names=("a", "b", "c"),
        )
        result = chi_square_select(d, bins=6, policy="topk=4")
        worst = 0.0
        for f in range(4):
            stat, _ = chi2_bruteforce(features[:, f], labels, 3, 6)
            worst = max(worst, abs(result.chi2_scores[f] - stat))
        critical_gap = abs(chi_square_sf(3.841, 1) - 0.05)
        _criterion(
            "C13 chi-square statistics match a brute-force oracle within 1e-9 "
            "and sf(3.841, df=1) = 0.05 within 1e-3",
            worst < 1e-9 and critical_gap < 1e-3,
            f"worst statistic gap={worst:.2e}, |sf(3.841,1) - 0.05|={critical_gap:.2e}",
        )

    def test_c14_reports_replay_bitwise(self):
        identical = True
        details = []
        for model in ("qknn", "cknn"):
            cfg = BenchConfig(
                dataset="iris", model=model, data_dir=str(DATA_DIR), seed=5
            )
            first = report_to_json(run_benchmark(cfg))
            second = report_to_json(run_benchmark(BenchConfig.from_dict(cfg.to_dict())))
            same = first == second
            identical = identical and same
            details.append(f"{model}={'bitwise-equal' if same else 'DIFFER'} ({len(first)} bytes)")
        _criterion(
            "C14 rerunning a recorded config reproduces the JSON report bitwise",
            identical,
            ", ".join(details),
        )
