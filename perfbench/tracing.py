"""In-memory spans around the public functions of each qfall layer.

The tracer wraps, from outside, every function a layer lists in
``__all__`` plus ``ExperimentReport.write``. ``cli``, ``experiments`` and
``validate`` import functions by name and ``cli._COMMANDS`` holds the
experiment runners in a dict, so each wrapper is installed under every
name in every ``qfall`` module (and every module-level dict) that refers
to the original function; patching only the defining module would leave
those spans at zero. ``run_mass_sweep`` runs its points on a pool thread,
so the current span travels in a context variable that the patched pool
copies into each submitted task.

Counts are computed after each op, outside its timer, from the captured
arguments and results of the wrapped calls; nothing reads solver
internals. Byte counts are computed from array sizes, not measured: the
largest field of any workload is 8,192 points x 16 B = 128 KiB, which
fits in the 2 MiB per-core L2 of the reference machine, so no workload
measures DRAM bandwidth.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("cli", "config", "experiments", "prepare", "states", "evolve", "tof")

# Self-time metric of every wrapped function not named in _BUCKETS.
_LAYER_BUCKET = {
    "cli": "cli.self_s",
    "config": "config.parse_s",
    "experiments": "experiments.self_s",
    "prepare": "prepare.match_s",
    "states": "states.moments_s",
    "evolve": "evolve.closed_form_s",
    "tof": "tof.closed_form_s",
}
_BUCKETS = {
    "experiments.plan_domain": "experiments.plan_domain_s",
    "experiments.ExperimentReport.write": "experiments.write_s",
    "states.build_wavefunction": "states.build_s",
    "evolve.split_step_evolve": "evolve.split_step_s",
    "tof.current_tof_distribution": "tof.distribution_s",
    "tof.distribution_from_current": "tof.distribution_s",
    "tof.mean_crossing_time": "tof.distribution_s",
    "tof.distribution_distance": "tof.distance_s",
}
# Calls whose arguments and result feed the computed counts.
_CAPTURED = ("evolve.split_step_evolve", "tof.distribution_from_current",
             "experiments.ExperimentReport.write")
TIME_METRICS = sorted(set(_LAYER_BUCKET.values()) | set(_BUCKETS.values()))

_current = contextvars.ContextVar("qfall_bench_span", default=None)


class _ContextPool(ThreadPoolExecutor):
    """Thread pool that runs each task in a copy of the submitter's context,
    so spans opened on a worker thread name the submitter's span as parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn,
                              *args, **kwargs)


def _covered(intervals, start, end) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Span recorder; `install` wraps the layers and `uninstall` undoes it.

    A span is (id, parent id, op id, function name, bucket, start, end,
    thread id). Spans stay in memory until `write`.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.errors: Counter = Counter()
        self.op = -1
        self._op_first_span = 0
        self._ids = itertools.count(1)
        self._captured: list[tuple] = []
        self._errors_lock = threading.Lock()
        self._undo: list = []
        self._signatures: dict[str, inspect.Signature] = {}
        self.totals: Counter = Counter()
        self.grid_points_max = 0
        self.field_bytes_max = 0
        self.ops = 0

    # -- installation -------------------------------------------------

    def _wrapper(self, layer: str, name: str, fn):
        bucket = _BUCKETS.get(name, _LAYER_BUCKET[layer])
        capture = name in _CAPTURED
        spans, ids, captured = self.spans, self._ids, self._captured
        self._signatures[name] = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            token = _current.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                with self._errors_lock:
                    self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                _current.reset(token)
                spans.append((sid, _current.get(), self.op, name, bucket,
                              start, end, threading.get_ident()))
            if capture:
                captured.append((name, args, kwargs, result))
            return result

        return traced

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"qfall.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrapper(
                        layer, f"{layer}.{attr}", obj))
        experiments = sys.modules["qfall.experiments"]
        report_cls = experiments.ExperimentReport
        self._set(report_cls, "write", self._wrapper(
            "experiments", "experiments.ExperimentReport.write",
            report_cls.write))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qfall" and not mod_name.startswith("qfall."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(module, attr, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if (id(item) in wrappers
                                and wrappers[id(item)][0] is item):
                            self._set(value, key, wrappers[id(item)][1])
        self._set(experiments, "ThreadPoolExecutor", _ContextPool)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- per op -------------------------------------------------------

    def begin_op(self, op: int):
        """Open the op's root span; returns the token for `end_op`."""
        self.op = op
        self._op_first_span = len(self.spans)
        sid = next(self._ids)
        return sid, _current.set(sid), time.perf_counter()

    def end_op(self, handle):
        sid, token, start = handle
        end = time.perf_counter()
        _current.reset(token)
        self.spans.append((sid, None, self.op, "op", "op", start, end,
                           threading.get_ident()))

    def count_op(self):
        """Fold the captured calls of the finished op into the counts.

        A solve is distinct when its (m_i, force, grid, dt, n_steps,
        initial amplitudes) was not seen earlier in the same op.
        """
        seen = set()
        for name, args, kwargs, result in self._captured:
            bound = self._signatures[name].bind(*args, **kwargs).arguments
            if name == "evolve.split_step_evolve":
                initial, params = bound["initial"], bound["params"]
                grid, n_steps = initial.grid, bound["n_steps"]
                key = (params.mass.m_inertial, params.force, grid.z_min,
                       grid.z_max, grid.n_points, bound["dt"], n_steps,
                       hashlib.sha1(initial.amplitudes.tobytes()).digest())
                seen.add(key)
                self.totals["evolve.split_step_calls"] += 1
                self.totals["evolve.steps"] += n_steps
                self.totals["evolve.point_steps"] += grid.n_points * n_steps
                self.totals["evolve.records"] += len(result.times)
                self.grid_points_max = max(self.grid_points_max, grid.n_points)
                self.field_bytes_max = max(self.field_bytes_max,
                                           initial.amplitudes.nbytes)
            elif name == "tof.distribution_from_current":
                self.totals["tof.samples"] += len(result.times)
            else:
                self.totals["experiments.bytes_written"] += sum(
                    path.stat().st_size for path in result)
        self._captured.clear()
        op_spans = self.spans[self._op_first_span:]
        layer_of_span = {span[0]: span[3].split(".", 1)[0] for span in op_spans}
        self.totals["experiments.solves"] += sum(
            1 for span in op_spans if span[3] == "evolve.split_step_evolve"
            and layer_of_span.get(span[1]) == "experiments")
        self.totals["experiments.distinct_solves"] += len(seen)
        self.ops += 1

    # -- results ------------------------------------------------------

    def self_times(self) -> Counter:
        """Summed self time per bucket: span duration minus the part of its
        interval that child spans (on any thread) cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append((span[5], span[6]))
        out = Counter()
        for sid, _, _, _, bucket, start, end, _ in self.spans:
            out[bucket] += (end - start) - _covered(children.get(sid, ()),
                                                    start, end)
        return out

    def metrics(self) -> dict:
        """Per-op layer metrics; name -> (value, unit)."""
        ops = max(self.ops, 1)
        selfs = self.self_times()
        totals = self.totals
        out = {name: (selfs[name] / ops, "s/op") for name in TIME_METRICS}
        for name in ("evolve.split_step_calls", "evolve.steps",
                     "evolve.point_steps", "evolve.records",
                     "experiments.solves", "tof.samples"):
            out[name] = (totals[name] / ops, "count/op")
        out["experiments.bytes_written"] = (
            totals["experiments.bytes_written"] / ops, "B/op")
        out["evolve.ns_per_point_step"] = (
            1e9 * selfs["evolve.split_step_s"] / totals["evolve.point_steps"]
            if totals["evolve.point_steps"] else 0.0, "ns")
        out["evolve.grid_points_max"] = (self.grid_points_max, "points")
        out["evolve.field_bytes_computed"] = (self.field_bytes_max, "B")
        out["evolve.record_ratio"] = (
            totals["evolve.records"] / totals["evolve.steps"]
            if totals["evolve.steps"] else 0.0, "ratio")
        out["experiments.distinct_solve_ratio"] = (
            totals["experiments.distinct_solves"] / totals["experiments.solves"]
            if totals["experiments.solves"] else 0.0, "ratio")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        out["trace.spans"] = (sum(1 for s in self.spans if s[3] != "op") / ops,
                              "count/op")
        return out

    def layer_shares(self) -> dict:
        """Share of traced op time spent in each layer's own code."""
        selfs = self.self_times()
        op_time = sum(s[6] - s[5] for s in self.spans if s[3] == "op")
        shares = Counter()
        for bucket, seconds in selfs.items():
            shares[bucket.split(".", 1)[0]] += seconds / op_time
        shares["harness"] = shares.pop("op", 0.0)
        return dict(shares)

    def write(self, path):
        """Write the spans, one JSON object per line."""
        with open(path, "w") as fh:
            for sid, parent, op, name, _, start, end, thread in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end, "thread": thread}) + "\n")
