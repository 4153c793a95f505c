"""Call tracing for the benchmark's traced run.

``Tracer.install`` wraps every public function of the qknn layer modules
at every place the function object is bound: its own module and each
qknn module that imported the name (``from .sim import apply_gate``
binds ``apply_gate`` separately in classifier, encoding, noise, qec and
qnn).  ``Tracer.uninstall`` puts every original back.

Most calls become one span each: name, start, end, parent span, job id
and self time (duration minus the time its direct children cover).  The
functions listed in ``AGGREGATED`` run tens of thousands of times per run
(``sim.apply_gate`` about 50k), so they are recorded as count plus total
and self time per (job, parent span, name) instead, which keeps the
tracing overhead small.

Everything is kept in memory; ``write`` dumps it as JSON lines at the end
of the run, and ``layer_metrics`` turns it into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "data", "encoding", "sim", "classifier", "cknn",
    "qnn", "noise", "qec", "metrics", "bench",
)

#: layer -> function names recorded as per-parent aggregates ("*" = all):
#: those called per row, per pair, per gate or per noise draw.
AGGREGATED = {
    "sim": "*",
    "qec": "*",
    "encoding": "*",
    "noise": {"draw_pauli", "sample_errors", "apply_pauli_errors"},
    "cknn": {"euclidean_distance", "find_neighbors", "classify"},
    "classifier": {"state_fidelity", "swap_test_state", "ancilla_zero_probability",
                   "quantum_distance", "find_neighbors"},
}

#: Job id of the traced set-up phase.
SETUP_JOB = "setup"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters taken from a call's arguments or result: function -> (counter, fn).
_COUNTERS = {
    "sim.apply_gate": ("sim.gate_amplitudes",
                       lambda a, k, r: _arg(a, k, 0, "state").amplitudes.size),
    "sim.sample_basis": ("sim.shots", lambda a, k, r: _arg(a, k, 1, "shots")),
    "noise.apply_pauli_errors": ("noise.injected",
                                 lambda a, k, r: len(_arg(a, k, 1, "errors"))),
    "qec.code_corrected_flip": ("qec.logical_flips", lambda a, k, r: int(r)),
    "classifier.find_neighbors": ("classifier.pairs",
                                  lambda a, k, r: len(_arg(a, k, 0, "model").labels)),
}


def public_functions(module) -> dict:
    """Public plain functions defined in ``module`` (generators excluded:
    their work runs on iteration, after the call returns)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
        and not inspect.isgeneratorfunction(obj)
    }


def qknn_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qknn" or n.startswith("qknn."))]


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest sample with >= 10 above it."""
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return n - 11


class Tracer:
    def __init__(self) -> None:
        self.job = SETUP_JOB
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[tuple, float] = defaultdict(float)
        self.busy: dict[tuple, float] = defaultdict(float)
        self._next_id = 0
        self._span_stack: list[int] = []
        self._child_time: list[float] = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (layer -> module)."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, module in modules.items():
            hot = AGGREGATED.get(layer, ())
            for name, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(layer, name, fn, hot == "*" or name in hot)
        for module in qknn_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((namespace, attr, value))
                    namespace[attr] = wrappers[value]

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn, aggregated: bool):
        full = f"{layer}.{name}"
        counter = _COUNTERS.get(full)
        clock = time.perf_counter
        depth = self._depth
        child_time = self._child_time
        span_stack = self._span_stack

        def finish(t0: float, outer: bool) -> tuple[float, float]:
            dur = clock() - t0
            self_s = dur - child_time.pop()
            if child_time:
                child_time[-1] += dur
            if outer:
                depth[layer] = 0
                self.busy[(self.job, layer)] += dur
            else:
                depth[layer] -= 1
            return dur, self_s

        if aggregated:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                outer = depth[layer] == 0
                depth[layer] += 1
                child_time.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur, self_s = finish(t0, outer)
                    parent = span_stack[-1] if span_stack else None
                    entry = self.aggregates[(self.job, parent, full)]
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += self_s
                if counter is not None:
                    self.counters[(self.job, counter[0])] += counter[1](args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_id = self._next_id
                self._next_id += 1
                parent = span_stack[-1] if span_stack else None
                span_stack.append(span_id)
                outer = depth[layer] == 0
                depth[layer] += 1
                child_time.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur, self_s = finish(t0, outer)
                    span_stack.pop()
                    self.spans.append((span_id, parent, self.job, full, t0, t0 + dur, self_s))
                if counter is not None:
                    self.counters[(self.job, counter[0])] += counter[1](args, kwargs, result)
                return result

        return wrapper

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Dump spans and aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, job, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"span": sid, "parent": parent, "job": job,
                                     "name": name, "start": start, "end": end,
                                     "self_s": self_s}, separators=(",", ":")) + "\n")
            for (job, parent, name), (count, total, self_s) in self.aggregates.items():
                fh.write(json.dumps({"aggregate": name, "parent": parent, "job": job,
                                     "count": count, "total_s": total,
                                     "self_s": self_s}, separators=(",", ":")) + "\n")

    def function_totals(self, jobs) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over ``jobs``."""
        jobs = set(jobs)
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, job, name, start, end, self_s in self.spans:
            if job in jobs:
                entry = totals[name]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += self_s
        for (job, _, name), (count, total, self_s) in self.aggregates.items():
            if job in jobs:
                entry = totals[name]
                entry[0] += count
                entry[1] += total
                entry[2] += self_s
        return totals

    def layer_metrics(self, jobs: list) -> dict:
        """Per-layer metrics: means per traced job, except ``classifier.fit_s``
        and ``setup.*``, which come from the traced set-up phase."""
        n = len(jobs)
        if n == 0:
            raise ValueError("no traced jobs")
        totals = self.function_totals(jobs)
        setup = self.function_totals([SETUP_JOB])
        job_set = set(jobs)

        def calls(name):
            return totals[name][0] / n

        def secs(*names):
            return sum(totals[x][1] for x in names) / n

        def count(counter):
            return sum(v for (job, c), v in self.counters.items()
                       if c == counter and job in job_set) / n

        def layer_self(layer):
            prefix = layer + "."
            return sum(v[2] for k, v in totals.items() if k.startswith(prefix)) / n

        def layer_busy(layer):
            return sum(v for (job, lay), v in self.busy.items()
                       if lay == layer and job in job_set) / n

        spans = [s for s in self.spans if s[2] in job_set]
        name_of = {s[0]: s[3] for s in spans}
        children = defaultdict(list)
        for span in spans:
            children[span[1]].append(span)
        classify_ms = sorted((s[5] - s[4]) * 1e3 for s in spans
                             if s[3] == "classifier.classify")
        predict_s = sum(s[5] - s[4] for s in spans
                        if s[3] in ("qnn.predict", "qnn.predict_proba")
                        and name_of.get(s[1]) != "qnn.predict")
        # One epoch of qnn.train is a gradient span plus the batch_loss after it.
        epochs_ms = []
        for train in (s for s in spans if s[3] == "qnn.train"):
            grad_start = None
            for child in sorted(children[train[0]], key=lambda s: s[4]):
                if child[3] == "qnn.gradient":
                    grad_start = child[4]
                elif child[3] == "qnn.batch_loss" and grad_start is not None:
                    epochs_ms.append((child[5] - grad_start) * 1e3)

        decodes = calls("qec.code_corrected_flip")
        flips = count("qec.logical_flips")
        amplitudes = count("sim.gate_amplitudes")
        out = {
            "sim.gate_calls": calls("sim.apply_gate"),
            "sim.gate_s": secs("sim.apply_gate"),
            "sim.gate_amplitudes": amplitudes,
            # complex128 read and written once per amplitude; computed, not measured.
            "sim.gate_bytes_computed": amplitudes * 32,
            "sim.sample_calls": calls("sim.sample_basis"),
            "sim.sample_s": secs("sim.sample_basis"),
            "sim.shots": count("sim.shots"),
            "encoding.encode_calls": calls("encoding.encode_point"),
            "encoding.encode_s": secs("encoding.encode_point"),
            "encoding.feature_map_calls": calls("encoding.apply_feature_map"),
            "encoding.feature_map_s": secs("encoding.apply_feature_map"),
            "classifier.fit_s": setup["classifier.fit"][1],
            "classifier.classify_calls": calls("classifier.classify"),
            "classifier.classify_p50_ms": statistics.median(classify_ms) if classify_ms else 0.0,
            "classifier.classify_tail_ms": (classify_ms[tail_index(len(classify_ms))]
                                            if len(classify_ms) > 10 else 0.0),
            "classifier.swap_tests": calls("classifier.swap_test_state"),
            "classifier.swap_test_s": secs("classifier.swap_test_state"),
            "classifier.pairs": count("classifier.pairs"),
            "noise.draws": calls("noise.draw_pauli"),
            "noise.injected": count("noise.injected"),
            "noise.apply_s": secs("noise.apply_pauli_errors"),
            "qec.decodes": decodes,
            "qec.logical_flips": flips,
            "qec.corrected_ratio": 1.0 - flips / decodes if decodes else 1.0,
            "qec.decode_s": secs("qec.code_corrected_flip"),
            "qnn.epochs": calls("qnn.gradient"),
            "qnn.epoch_p50_ms": statistics.median(epochs_ms) if epochs_ms else 0.0,
            "qnn.gradient_s": secs("qnn.gradient"),
            "qnn.loss_s": secs("qnn.batch_loss"),
            "qnn.predict_s": predict_s / n,
            "cknn.fit_predict_s": secs("cknn.fit_predict"),
            "cknn.queries": calls("cknn.classify"),
            "data.load_s": secs("data.load_dataset"),
            "data.split_s": secs("data.stratified_indices", "data.stratified_split"),
            "data.normalize_s": secs("data.min_max_normalize"),
            "data.select_s": secs("data.chi_square_select"),
            "metrics.compute_s": secs("metrics.compute_metrics"),
            "bench.prepare_s": secs("bench.prepare_experiment"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self(layer)
            out[f"{layer}.busy_s"] = layer_busy(layer)
        out["setup.data_busy_s"] = self.busy.get((SETUP_JOB, "data"), 0.0)
        out["setup.encoding_busy_s"] = self.busy.get((SETUP_JOB, "encoding"), 0.0)
        return out
