"""Run the benchmark repeatedly and summarise each metric over the runs.

    python3 perfbench/collect.py --sets 1-10 11-20 --trace-seed 1 --out perfbench/baseline.json
    python3 perfbench/collect.py --workloads noise-sweep --sets 1-5

Runs ``run.py`` once per (set, workload, seed), one process at a time,
the sets one after another, and reports for every metric of every set the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median.  For each gated metric it then compares the
spreads with the metric's bound in ``BENCHMARK.json`` and how much worse
each later set's median is than the first set's.  ``--trace-seed`` adds
one traced run per workload.  With ``--out`` it also writes every run's
result and the environment block to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((workloads.CHECKOUT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]
END_TO_END = SPEC["end_to_end"]


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values), "values": values}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    # The median job time is printed, not gated; keep it for the record.
    for line in lines:
        if line.startswith("job_s "):
            result["metrics"]["job_s"] = {"value": float(line.split()[1]), "unit": "s"}
    return env, result


def run_set(names: list[str], seeds: list[int], seconds: float, report: dict) -> dict:
    """Ten-run style set: every seed on every workload, one process at a time."""
    result_set = {}
    for name in names:
        runs = []
        for seed in seeds:
            env, result = run_once(name, seed, seconds, 0)
            report["environment"] = env
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {}
        for metric, entry in runs[0]["metrics"].items():
            metrics[metric] = {"unit": entry["unit"],
                               **summarise([r["metrics"][metric]["value"] for r in runs])}
        result_set[name] = {"runs": runs, "metrics": metrics}
        for metric, s in metrics.items():
            print(f"  {name:13s} {metric:30s} median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}", flush=True)
    return result_set


def agreement(sets: list[dict]) -> dict:
    """Each gated metric's spread per set against its bound, and the change of
    every later set's median from the first set's, in the worse direction."""
    out = {}
    for name in sets[0]["workloads"]:
        out[name] = {}
        for metric in END_TO_END:
            bound, lower = metric["bound"], metric["better"] == "lower"
            stats = [s["workloads"][name]["metrics"][metric["name"]] for s in sets]
            spreads = [st["spread"] for st in stats]
            first = stats[0]["median"]
            worse = [((st["median"] - first) if lower else (first - st["median"])) / first
                     for st in stats[1:]]
            out[name][metric["name"]] = {
                "bound": bound, "spreads": spreads, "medians": [st["median"] for st in stats],
                "worse_than_first": worse,
                "spread_within_bound": all(x <= bound for x in spreads),
                "spread_within_third": all(x <= bound / 3 for x in spreads),
                "medians_agree": all(x <= bound for x in worse),
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--sets", nargs="+", default=["1-10"],
                        help="seed sets, run one after another, e.g. 1-10 11-20")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace-seed", type=int, help="also make one traced run")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    names = args.workloads.split(",")
    report = {"seconds": args.seconds, "sets": []}
    for seeds in args.sets:
        print(f"set {seeds}", flush=True)
        report["sets"].append({"seeds": seeds,
                               "workloads": run_set(names, seed_list(seeds), args.seconds,
                                                    report)})
    report["agreement"] = agreement(report["sets"])
    for name, metrics in report["agreement"].items():
        for metric, a in metrics.items():
            print(f"{name:13s} {metric:12s} bound {a['bound']:.2f} spreads "
                  + " ".join(f"{x:.4f}" for x in a["spreads"]) + " worse-than-first "
                  + " ".join(f"{x:+.4f}" for x in a["worse_than_first"])
                  + f" within-bound={a['spread_within_bound']} "
                  f"within-third={a['spread_within_third']} agree={a['medians_agree']}")
    if args.trace_seed is not None:
        report["traced"] = {}
        for name in names:
            _, result = run_once(name, args.trace_seed, args.seconds, 1)
            report["traced"][name] = {"seed": args.trace_seed, **result}
            print(f"{name} traced seed {args.trace_seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} overhead "
                  f"{result['metrics']['trace.overhead_ratio']['value']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
