"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload exact-seeds --seed 1 --seconds 30 --trace 0

Workloads: exact-seeds, sampled-swap, noise-sweep, qnn-train (see
``workloads.py``).  The qknn package is imported from the checkout's
``src`` and the datasets are read from its ``data`` directory.

``--trace 0`` times set-up and jobs with tracing off and reports the
end-to-end metrics:

* setup_s     - median of SETUPS set-ups spread over the run, each a
                fresh ``import qknn.*`` (NumPy is imported once
                beforehand), the dataset load and any fitting the
                workload does once;
* job_tail_s  - highest job time with at least 10 jobs above it;
* peak_rss_mb - peak resident memory of this process.

The median job time ``job_s`` is printed but not reported as a metric.

``--trace 1`` runs each job twice, untraced and with every qknn public
function wrapped (``tracer.py``), in alternating order, checks that both
give byte-identical outputs, writes the spans to
``perfbench/out/trace-<workload>-<seed>.jsonl`` and reports the per-layer
metrics, per traced job.

Every job is checked against ``reference.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics,
with each metric's unit as ``BENCHMARK.json`` declares it.
"""

from __future__ import annotations

import os

# One single-threaded process per workload: pin the BLAS/OpenMP pools
# before NumPy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import SETUP_JOB, Tracer, tail_index  # noqa: E402

SETUPS = 30
MIN_JOBS = 20
OUT_DIR = Path(__file__).resolve().parent / "out"
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass
class Job:
    index: int
    seconds: float | None  # None when the job raised
    ok: bool
    accuracy: dict
    text: str


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def declared_units() -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_job(workload, index: int, tracer: Tracer | None = None) -> Job:
    """Run (timed) and check (untimed) one job; a raising job counts as failed."""
    if tracer is not None:
        tracer.job = index
    try:
        t0 = time.perf_counter()
        output = workload.run(index)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.job = "check"
        ok, accuracy, text = workload.check(index, output)
    except Exception:  # a failed job is counted, and the run goes on
        traceback.print_exc()
        return Job(index, None, False, {}, "")
    accs = " ".join(f"{k}={v:.4f}" for k, v in accuracy.items())
    print(f"job {index}{' traced' if tracer else ''} input {workload.inputs(index)} "
          f"{elapsed:.4f} s {'ok' if ok else 'FAILED'} accuracy {accs}")
    return Job(index, elapsed, ok, accuracy, text)


def repeat(seconds: float, step) -> None:
    """Call step(0), step(1), ... until ``seconds`` have passed and MIN_JOBS are done."""
    start = time.perf_counter()
    index = 0
    while index < MIN_JOBS or time.perf_counter() - start < seconds:
        step(index)
        index += 1


def job_times(jobs: list[Job]) -> list[float]:
    return sorted(j.seconds for j in jobs if j.seconds is not None)


def accuracy_summary(accuracies: list[dict]) -> None:
    """Accuracy spread over the run's jobs; printed, not gated."""
    for model in sorted({k for acc in accuracies for k in acc}):
        values = [acc[model] for acc in accuracies if model in acc]
        print(f"accuracy {model}: mean {np.mean(values):.4f} min {min(values):.4f} "
              f"max {max(values):.4f} over {len(values)} jobs")


def end_to_end(workload, seconds: float) -> tuple[list[Job], dict]:
    """Set-ups are spread evenly over the run, so that they meet the same
    machine load as the jobs between them."""
    start = time.perf_counter()
    setup_times: list[float] = []
    jobs: list[Job] = []

    def step(index: int) -> None:
        due = len(setup_times) * seconds / SETUPS
        if len(setup_times) < SETUPS and time.perf_counter() - start >= due:
            gc.collect()  # leave no collection of earlier set-ups to this one
            t0 = time.perf_counter()
            workload.setup(workloads.import_qknn())
            setup_times.append(time.perf_counter() - t0)
        jobs.append(run_job(workload, index))

    repeat(seconds, step)
    times = job_times(jobs)
    tail = tail_index(len(times))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_tail_s": times[tail],
        "peak_rss_mb": rss_mb,
    }
    print(f"setup_s {metrics['setup_s']:.6f} s (median of {len(setup_times)} set-ups)")
    # Reported, not gated: on a shared machine the run median moves with the
    # neighbours' load far more than the tail does (see README.md).
    print(f"job_s {statistics.median(times):.6f} s (median of {len(times)} jobs)")
    print(f"job_tail_s {metrics['job_tail_s']:.6f} s (p{100.0 * (tail + 1) / len(times):.1f},"
          f" sample {tail + 1} of {len(times)}, 10 above)")
    print(f"peak_rss_mb {rss_mb:.3f} MB")
    return jobs, metrics


def traced(workload, seconds: float, units: dict[str, str]) -> tuple[list[Job], dict]:
    """Each job runs untraced and traced, back to back, so both see the same
    machine state; which runs first alternates, so neither side always gets
    the other's warm caches.  The tracer is installed only around traced work."""
    q = workloads.import_qknn()
    tracer = Tracer()
    tracer.install(vars(q))
    try:
        tracer.job = SETUP_JOB
        workload.setup(q)
    finally:
        tracer.uninstall()
    pairs: list[tuple[Job, Job]] = []

    def run_traced(index: int) -> Job:
        tracer.install(vars(q))
        try:
            return run_job(workload, index, tracer)
        finally:
            tracer.uninstall()

    def step(index: int) -> None:
        if index % 2:
            traced_job = run_traced(index)
            plain = run_job(workload, index)
        else:
            plain = run_job(workload, index)
            traced_job = run_traced(index)
        if plain.text != traced_job.text:
            print(f"job {index}: traced output differs from untraced output")
            traced_job.ok = False
        pairs.append((plain, traced_job))

    repeat(seconds, step)
    metrics = tracer.layer_metrics([b.index for _, b in pairs])
    metrics["trace.overhead_ratio"] = statistics.median(
        b.seconds / a.seconds for a, b in pairs if a.seconds and b.seconds)
    path = OUT_DIR / f"trace-{workload.name}-{workload.seed}.jsonl"
    tracer.write(path)
    print(f"{len(tracer.spans)} spans over {len(pairs)} traced jobs written to {path}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    return [job for pair in pairs for job in pair], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_units()
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    if args.trace:
        jobs, metrics = traced(workload, args.seconds, units)
    else:
        jobs, metrics = end_to_end(workload, args.seconds)
    print("env " + json.dumps(environment(), sort_keys=True))
    # A traced run holds each job twice; count its accuracy once.
    accuracies = list({j.index: j.accuracy for j in jobs if j.accuracy}.values())
    accuracy_summary(accuracies)
    summary_ok, summary = workload.summary_check(accuracies)
    if summary:
        print(f"band check {'ok' if summary_ok else 'FAILED'}: {summary}")
    failed = sum(1 for j in jobs if not j.ok)
    print(f"failed {failed} of {len(jobs)} jobs ({100.0 * failed / len(jobs):.1f}%)")
    print(json.dumps({
        "correct": failed == 0 and summary_ok,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
