"""Command-line benchmark driver (installed as ``bench``).

Subcommands: run (one seeded benchmark -> JSON report), sweep (noise
level sweep -> CSV), compare (all three models on a shared split ->
CSV), select (print the chi-square feature ranking).

Every flag can also be given through a JSON config file (--config);
explicit flags override file values.  Exit codes: 0 success, 1 stage
error (bad data, failed pipeline), 2 invalid arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (
    DEFAULT_NOISE_KIND,
    MODELS,
    BenchConfig,
    BenchStageError,
    load_benchmark_dataset,
    noise_grid,
    run_benchmark,
    run_compare,
    run_noise_sweep,
    write_compare_csv,
    write_report,
    write_sweep_csv,
)
from .classifier import DISTANCE_MODES, MITIGATION_MODES, QknnConfig
from .data import _FORMATS, DEFAULT_TOP_K, chi_square_select, parse_selection_policy
from .noise import NoiseKind

_CONFIG_KEYS = {f.name for f in fields(BenchConfig)}

_SWEEP_DEFAULTS = {
    "p_start": 0.0,
    "p_stop": 0.6,
    "p_step": 0.1,
    "trials": 20,
    "mitigate": QknnConfig.mitigation,
    "noise_kind": DEFAULT_NOISE_KIND.value,
}

_SELECT_DEFAULTS = {"policy": f"topk={DEFAULT_TOP_K}"}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file of flag values (flags override)")
    sub.add_argument("--dataset", choices=sorted(_FORMATS))
    sub.add_argument("--data-dir", dest="data_dir", help="directory of dataset files")
    sub.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Quantum nearest-neighbour benchmark suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one seeded benchmark run -> JSON report")
    _add_common(run)
    run.add_argument("--model", choices=MODELS)
    run.add_argument("--k", type=int)
    run.add_argument("--features", type=int, help="how many top chi-square features to keep")
    run.add_argument("--angle-scale", dest="angle_scale", type=float)
    run.add_argument("--distance", choices=DISTANCE_MODES)
    run.add_argument("--shots", type=int)
    run.add_argument("--out", help="JSON report path")

    sweep = sub.add_parser("sweep", help="noise sweep -> CSV")
    _add_common(sweep)
    sweep.add_argument("--p-start", dest="p_start", type=float)
    sweep.add_argument("--p-stop", dest="p_stop", type=float)
    sweep.add_argument("--p-step", dest="p_step", type=float)
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--mitigate", choices=MITIGATION_MODES)
    sweep.add_argument(
        "--noise-kind",
        dest="noise_kind",
        choices=[k.value for k in NoiseKind],
    )
    sweep.add_argument("--k", type=int)
    sweep.add_argument("--features", type=int)
    sweep.add_argument("--distance", choices=DISTANCE_MODES)
    sweep.add_argument("--shots", type=int)
    sweep.add_argument("--out", help="CSV path")

    compare = sub.add_parser(
        "compare", help="qknn vs cknn vs qnn on a shared split -> CSV"
    )
    _add_common(compare)
    compare.add_argument("--k", type=int)
    compare.add_argument("--features", type=int)
    compare.add_argument("--out", help="CSV path")

    select = sub.add_parser("select", help="print the chi-square feature ranking")
    _add_common(select)
    select.add_argument("--bins", type=int)
    select.add_argument("--policy", help="topk=K or alpha=F")

    return parser


def _read_config_file(path: str, allowed: set[str]) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise _ArgumentProblem(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _ArgumentProblem(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise _ArgumentProblem(f"config file {path} must hold a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise _ArgumentProblem(
            f"config file {path} has unknown keys: {sorted(unknown)}"
        )
    return doc


class _ArgumentProblem(Exception):
    """Bad arguments discovered after parsing (exit code 2)."""


def _merge(args: argparse.Namespace, extra_defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    allowed = _CONFIG_KEYS | set(extra_defaults) | {"out"}
    merged = dict(extra_defaults)
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config, allowed))
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    return merged


def _checked(fn, *args):
    """Call ``fn``; a TypeError or ValueError it raises is an argument error.
    The bench entry points raise those only before they load any data."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        raise _ArgumentProblem(str(exc)) from exc


def _build_bench_config(merged: dict) -> BenchConfig:
    doc = {k: v for k, v in merged.items() if k in _CONFIG_KEYS}
    return _checked(BenchConfig.from_dict, doc)


def _require_out(merged: dict) -> str:
    out = merged.get("out")
    if out is None:
        raise _ArgumentProblem("--out is required (or give 'out' in the config file)")
    # A config file can give any JSON value; only a path string names a file.
    if not isinstance(out, str) or not out:
        raise _ArgumentProblem(f"out must be a non-empty path string, got {out!r}")
    parent = Path(out).parent
    if not parent.is_dir():
        raise _ArgumentProblem(f"output directory {parent} does not exist")
    return str(out)


def _cmd_run(args: argparse.Namespace) -> int:
    merged = _merge(args, {})
    out = _require_out(merged)
    config = _build_bench_config(merged)
    report = _checked(run_benchmark, config)
    write_report(report, out)
    metrics = report["metrics"]
    print(
        f"dataset={config.dataset} model={config.model} "
        f"accuracy={metrics['accuracy']:.4f} auc={metrics['auc']:.4f} -> {out}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    merged = _merge(args, _SWEEP_DEFAULTS)
    out = _require_out(merged)
    config = _build_bench_config(merged)
    levels = _checked(noise_grid, merged["p_start"], merged["p_stop"], merged["p_step"])
    kind = _checked(NoiseKind, merged["noise_kind"])
    result = _checked(
        run_noise_sweep, config, levels, merged["trials"], merged["mitigate"], kind
    )
    write_sweep_csv(result, out)
    for row in result.rows():
        print(
            f"p={row['p']:.2f} mean_accuracy={row['mean_accuracy']:.4f} "
            f"std={row['std_accuracy']:.4f}"
        )
    print(f"-> {out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    merged = _merge(args, {})
    out = _require_out(merged)
    reports = _checked(run_compare, _build_bench_config(merged))
    write_compare_csv(reports, out)
    for report in reports:
        print(
            f"dataset={report['config']['dataset']} "
            f"model={report['config']['model']} "
            f"accuracy={report['metrics']['accuracy']:.4f}"
        )
    print(f"-> {out}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    merged = _merge(args, _SELECT_DEFAULTS)
    config = _build_bench_config(merged)
    policy = merged["policy"]
    _checked(parse_selection_policy, policy)
    dataset = load_benchmark_dataset(config.dataset, config.data_dir)
    result = chi_square_select(dataset, bins=config.bins, policy=policy)
    print(f"dataset={config.dataset} ({dataset.n_instances} rows)")
    for line in result.summary_lines(dataset.feature_names):
        print(line)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "select": _cmd_select,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _ArgumentProblem as exc:
        print(f"bench: argument error: {exc}", file=sys.stderr)
        return 2
    except BenchStageError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
