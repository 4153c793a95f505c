"""Tests of the benchmark's own code: closed-form call counts, zero-count
bypasses, traced/untraced agreement, wrapper restoration and the CLI.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracer import Tracer, public_functions, qknn_modules

PERFBENCH = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = PERFBENCH.parent / "BENCHMARK.json"


def make(name: str, seed: int = 5):
    workload = workloads.WORKLOADS[name](seed, workloads.load_reference())
    q = workloads.import_qknn()
    workload.setup(q)
    return workload, q


def traced_job(workload, q, index: int = 0):
    """Run one job under a fresh tracer; return (metrics, check result)."""
    tracer = Tracer()
    tracer.install(vars(q))
    try:
        tracer.job = 0
        output = workload.run(index)
    finally:
        tracer.uninstall()
    return tracer.layer_metrics([0]), workload.check(index, output)


def test_exact_qknn_run_closed_form_counts():
    workload, q = make("exact-seeds")
    cfg = workload.config(model="qknn", seed=workload.inputs(0))
    tracer = Tracer()
    tracer.install(vars(q))
    try:
        tracer.job = 0
        q.bench.run_benchmark(cfg)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics([0])
    d, rows = cfg.features, 569
    # Per row: H and RZ per qubit, then IsingXY and CNOT per chain pair.
    assert metrics["sim.gate_calls"] == rows * (2 * d + 2 * (d - 1)) == 7966
    assert metrics["encoding.encode_calls"] == rows
    assert metrics["encoding.feature_map_calls"] == rows
    assert metrics["sim.gate_amplitudes"] == 7966 * 2**d


def test_sampled_swap_job_closed_form_counts():
    workload, q = make("sampled-swap")
    metrics, (ok, _, _) = traced_job(workload, q)
    assert ok
    train, shots = 120, workloads.PARAMS["sampled_shots"]
    assert metrics["classifier.swap_tests"] == train
    assert metrics["classifier.pairs"] == train
    # H, three gates per controlled SWAP on 4 qubit pairs, H.
    assert metrics["sim.gate_calls"] == train * 14
    assert metrics["sim.sample_calls"] == train
    assert metrics["sim.shots"] == train * shots
    assert metrics["classifier.classify_calls"] == 1


@pytest.mark.parametrize("name", ["exact-seeds", "sampled-swap"])
def test_noiseless_workloads_bypass_noise_and_qec(name):
    metrics, (ok, _, _) = traced_job(*make(name))
    assert ok
    assert metrics["noise.draws"] == 0
    assert metrics["qec.decodes"] == 0


def test_qnn_train_bypasses_gate_simulation():
    metrics, (ok, _, _) = traced_job(*make("qnn-train"))
    assert ok
    assert metrics["sim.gate_calls"] == 0
    assert metrics["qnn.epochs"] == workloads.PARAMS["qnn_epochs"]
    assert metrics["qnn.epoch_p50_ms"] > 0


def test_noise_sweep_exercises_noise_and_qec():
    metrics, (ok, _, _) = traced_job(*make("noise-sweep"))
    assert ok
    # Physical code: 3 draws per qubit (4 qubits) for 150 encoded rows.
    assert metrics["noise.draws"] == 150 * 4 * 3
    assert metrics["qec.decodes"] > 0
    assert 0 <= metrics["qec.logical_flips"] <= metrics["qec.decodes"]


def test_noise_sweep_pooled_band_rejects_lost_noise_or_mitigation():
    workload = workloads.NoiseSweep(1, workloads.load_reference())
    levels = workloads.PARAMS["noise_levels"]
    ref = {level: workload.reference["noise-sweep"][str(level)]["accuracy"] for level in levels}

    def run_of(accuracy):  # 20 jobs per level, as in a 30-second run
        return [{f"qknn@{level}": accuracy(level)} for level in levels for _ in range(20)]

    assert workload.summary_check(run_of(lambda level: ref[level]))[0]
    # Accuracies of iris with no noise injected, and with no mitigation.
    assert not workload.summary_check(run_of(lambda level: 0.948))[0]
    without_code = {0.1: 0.788, 0.2: 0.688, 0.3: 0.597}
    assert not workload.summary_check(run_of(without_code.get))[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(name):
    workload, q = make(name)
    ok, _, plain = workload.check(0, workload.run(0))
    _, (traced_ok, _, traced) = traced_job(workload, q)
    assert ok and traced_ok
    assert traced == plain


def test_every_lookup_site_is_wrapped_and_restored():
    workload, q = make("noise-sweep")
    before = {(m.__name__, k): v for m in qknn_modules() for k, v in vars(m).items()}
    tracer = Tracer()
    tracer.install(vars(q))
    try:
        for layer in ("classifier", "encoding", "noise", "qec"):
            assert getattr(q, layer).apply_gate.__wrapped__ is q.sim.apply_gate.__wrapped__
        assert q.qnn.gate_matrix.__wrapped__ is before[("qknn.sim", "gate_matrix")]
        assert q.bench.fit_predict.__wrapped__ is before[("qknn.classifier", "fit_predict")]
        for name in ("load_dataset", "stratified_indices", "min_max_normalize",
                     "chi_square_select"):
            assert getattr(q.bench, name).__wrapped__ is before[("qknn.data", name)]
        assert q.bench.cknn.fit_predict.__wrapped__ is before[("qknn.cknn", "fit_predict")]
        for name, layer in (("draw_pauli", "noise"), ("sample_basis", "sim"),
                            ("code_corrected_flip", "qec")):
            assert getattr(q.classifier, name).__wrapped__ is before[(f"qknn.{layer}", name)]
        for layer in vars(q).values():
            for name in public_functions(layer):
                assert hasattr(getattr(layer, name), "__wrapped__"), (layer, name)
        tracer.job = 0
        workload.run(0)
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in qknn_modules() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_declared_metric(trace, section):
    proc = run_cli(PERFBENCH.parent, "--workload", "noise-sweep", "--seed", "7",
                   "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    declared = json.loads(BENCHMARK_JSON.read_text())[section]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = run_cli(tmp_path, "--workload", "exact-seeds", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
