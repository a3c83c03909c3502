"""Runtime span tracing of the library's public entry points.

The traced benchmark run wraps each entry point named in :data:`METHODS`
and :data:`FUNCTIONS` at run time, from the benchmark's own files: the
library is not edited.  A wrapped call records one span (name, start, end,
parent span, operation id) in memory; :meth:`Tracer.write` writes them out
when the run ends.  A layer's self time is its spans' durations minus the
time their direct child spans cover.

Counts come from the always-live ``repro.obs`` counters, plus three
tallies taken at the wrapped boundaries: max-min round counts (the
library's round histogram only records while ``repro.obs`` is enabled,
which would also switch the packet simulator to its sampling event loop), the
adversary search's warm/cold evaluations, and allocation successes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs

__all__ = ["Tracer", "PER_LAYER", "per_layer_metrics"]

#: (span name, module, class, method) of every wrapped method
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("exp.run", "repro.exp.runner", "Runner", "run"),
    ("exp.cache_get", "repro.exp.cache", "ResultCache", "get"),
    ("exp.cache_put", "repro.exp.cache", "ResultCache", "put"),
    ("routing.pair_arrays", "repro.sim.routing", "RouteTable", "pair_arrays"),
    ("routing.paths", "repro.sim.routing", "RouteTable", "paths"),
    ("routing.pair_path_lists", "repro.sim.routing", "RouteTable", "pair_path_lists"),
    ("flowsim.assign", "repro.sim.flowsim", "FlowSimulator", "assign"),
    ("flowsim.maxmin_rates", "repro.sim.flowsim", "FlowSimulator", "maxmin_rates"),
    ("flowsim.maxmin_rates_batch", "repro.sim.flowsim", "FlowSimulator", "maxmin_rates_batch"),
    ("flowsim.maxmin_warm_state", "repro.sim.flowsim", "FlowSimulator", "maxmin_warm_state"),
    ("flowsim.maxmin_rates_delta", "repro.sim.flowsim", "FlowSimulator", "maxmin_rates_delta"),
    (
        "flowsim.maxmin_rates_delta_batch", "repro.sim.flowsim", "FlowSimulator",
        "maxmin_rates_delta_batch",
    ),
    ("packet.send_flows", "repro.sim.network", "PacketNetwork", "send_flows"),
    ("packet.run", "repro.sim.network", "PacketNetwork", "run"),
    ("faults.apply", "repro.sim.faults", "FaultEventSolver", "apply"),
    ("allocation.allocate", "repro.allocation.greedy", "GreedyAllocator", "allocate"),
    ("cluster.run", "repro.cluster.simulator", "ClusterSimulator", "run"),
)

#: (span name, module, function) of every wrapped module-level function;
#: every loaded ``repro`` module that imported the function by name is
#: rebound too, so calls through those names are traced
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("search.anneal", "repro.sim.search", "anneal_adversary"),
    ("topology.build", "repro.topology.fattree", "build_fat_tree"),
    ("topology.build", "repro.topology.dragonfly", "build_dragonfly"),
    ("topology.build", "repro.topology.hyperx", "build_hyperx2d"),
    ("topology.build", "repro.topology.torus", "build_torus2d"),
    ("topology.build", "repro.core.hammingmesh", "build_hammingmesh"),
    ("topology.build", "repro.core.hammingmesh", "build_hammingmesh_params"),
)

#: per-layer metric -> unit, in report order.  ``ms/op`` metrics are self
#: times per operation over the whole timed phase; ``count`` metrics and
#: ratios cover the first operations of the run, which every run at one
#: seed executes identically, so they repeat exactly.
PER_LAYER: Dict[str, str] = {
    "exp.run_self_ms": "ms/op",
    "exp.cache_get_ms": "ms/op",
    "exp.cache_put_ms": "ms/op",
    "exp.cache_hit_ratio": "ratio",
    "topology.build_ms": "ms/op",
    "routing.enumerate_ms": "ms/op",
    "routing.pair_misses": "count",
    "routing.pair_hit_ratio": "ratio",
    "routing.csr_mb": "MiB",
    "flowsim.assign_ms": "ms/op",
    "flowsim.maxmin_ms": "ms/op",
    "flowsim.maxmin_rounds": "count",
    "flowsim.delta_batch_ms": "ms/op",
    "flowsim.delta_ms": "ms/op",
    "flowsim.delta_warm_ratio": "ratio",
    "flowsim.delta_fallbacks": "count",
    "search.self_ms": "ms/op",
    "search.warm_eval_ratio": "ratio",
    "search.accept_ratio": "ratio",
    "packet.send_ms": "ms/op",
    "packet.run_ms": "ms/op",
    "packet.events": "count",
    "packet.events_per_s": "1/s",
    "packet.retried": "count",
    "faults.apply_ms": "ms/op",
    "faults.delta_ratio": "ratio",
    "faults.tables_degraded": "count",
    "cluster.self_ms": "ms/op",
    "allocation.allocate_ms": "ms/op",
    "allocation.success_ratio": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.spans_per_op": "count",
}

#: self-time metric -> the span names whose self time it sums
_SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "exp.run_self_ms": ("exp.run",),
    "exp.cache_get_ms": ("exp.cache_get",),
    "exp.cache_put_ms": ("exp.cache_put",),
    "topology.build_ms": ("topology.build",),
    "routing.enumerate_ms": ("routing.pair_arrays", "routing.paths", "routing.pair_path_lists"),
    "flowsim.assign_ms": ("flowsim.assign",),
    "flowsim.maxmin_ms": (
        "flowsim.maxmin_rates", "flowsim.maxmin_rates_batch", "flowsim.maxmin_warm_state",
    ),
    "flowsim.delta_batch_ms": ("flowsim.maxmin_rates_delta_batch",),
    "flowsim.delta_ms": ("flowsim.maxmin_rates_delta",),
    "search.self_ms": ("search.anneal",),
    "packet.send_ms": ("packet.send_flows",),
    "packet.run_ms": ("packet.run",),
    "faults.apply_ms": ("faults.apply",),
    "cluster.self_ms": ("cluster.run",),
    "allocation.allocate_ms": ("allocation.allocate",),
}

#: obs counters read as deltas over the operation window
COUNTERS: Tuple[str, ...] = (
    "exp.cells_cached", "exp.cells_live",
    "routing.pair_hits", "routing.pair_misses",
    "flowsim.delta_solves", "flowsim.delta_warm_hits", "flowsim.delta_fallbacks",
    "search.steps", "search.accepts",
    "packet.events", "faults.packets_retried",
    "faults.events", "faults.delta_resolves", "faults.tables_degraded",
)


def counter_values() -> Dict[str, int]:
    counters = obs.REGISTRY.counters
    return {name: counters[name].value for name in COUNTERS}


def csr_bytes() -> float:
    return float(obs.REGISTRY.gauges["routing.csr_mem_bytes"].value)


class _RoundTally:
    """Stand-in for the max-min round histogram that always records."""

    def __init__(self, tally: Counter) -> None:
        self._tally = tally

    def observe(self, value: float) -> None:
        self._tally["flowsim.maxmin_rounds"] += int(value)


class Tracer:
    """In-memory span recorder plus the runtime patches that feed it."""

    ROOT = "bench.op"

    def __init__(self) -> None:
        self.op_id = -1
        self.tally: Counter = Counter()
        self._names: List[str] = []
        self._start: List[float] = []
        self._end: List[float] = []
        self._parent: List[int] = []
        self._op: List[int] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- recording
    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        names, start, end = self._names, self._start, self._end
        parent, op, stack = self._parent, self._op, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_allocation(self, placed: Any) -> None:
        self.tally["allocation.calls"] += 1
        self.tally["allocation.placed"] += placed is not None

    def _count_search(self, result: Any) -> None:
        self.tally["search.warm_evals"] += result.warm_evals
        self.tally["search.cold_evals"] += result.cold_evals

    def install(self, prefixes: Tuple[str, ...] = ("repro",)) -> None:
        """Wrap every entry point; functions are rebound in every loaded
        module whose name starts with one of ``prefixes``."""
        hooks = {
            "allocation.allocate": self._count_allocation,
            "search.anneal": self._count_search,
        }
        for name, module, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._set(cls, method, self.wrap(name, cls.__dict__[method], hooks.get(name)))
        for name, module, fn_name in FUNCTIONS:
            original = getattr(importlib.import_module(module), fn_name)
            traced = self.wrap(name, original, hooks.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith(prefixes):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, traced)
        flowsim = importlib.import_module("repro.sim.flowsim")
        self._set(flowsim, "_MAXMIN_ROUNDS", _RoundTally(self.tally))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- reporting
    def self_times(self) -> Dict[str, float]:
        """Summed self time (seconds) per span name, over operations only
        (spans recorded outside any operation carry op id -1)."""
        start = np.asarray(self._start)
        dur = np.asarray(self._end) - start
        parent = np.asarray(self._parent, dtype=np.int64)
        covered = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        totals: Dict[str, float] = {}
        for name, op, value in zip(self._names, self._op, own.tolist()):
            if op >= 0:
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def total_time(self, name: str) -> float:
        return sum(
            e - s
            for n, op, s, e in zip(self._names, self._op, self._start, self._end)
            if n == name and op >= 0
        )

    @property
    def num_spans(self) -> int:
        """Spans recorded inside operations."""
        return sum(op >= 0 for op in self._op)

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, name in enumerate(self._names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self._start[i], "end": self._end[i],
                    "parent": self._parent[i], "op": self._op[i],
                }))
                fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    *,
    ops: int,
    ops_seconds: float,
    window: Dict[str, int],
    window_tally: Dict[str, int],
    csr_peak_bytes: float,
    events_total: int,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``ops`` operations took ``ops_seconds`` reference seconds in all
    (see ``run.py``).  ``window``/``window_tally`` are the counter and tally
    deltas over the first operations of the run (the exact-count window);
    ``events_total`` is the packet event count over the whole timed phase.
    """
    own = tracer.self_times()
    out: Dict[str, float] = {
        metric: 1e3 * sum(own.get(n, 0.0) for n in names) / ops
        for metric, names in _SELF_TIME.items()
    }
    out["exp.cache_hit_ratio"] = _ratio(
        window["exp.cells_cached"], window["exp.cells_cached"] + window["exp.cells_live"]
    )
    out["routing.pair_misses"] = window["routing.pair_misses"]
    out["routing.pair_hit_ratio"] = _ratio(
        window["routing.pair_hits"], window["routing.pair_hits"] + window["routing.pair_misses"]
    )
    out["routing.csr_mb"] = csr_peak_bytes / 2**20
    out["flowsim.maxmin_rounds"] = window_tally.get("flowsim.maxmin_rounds", 0)
    out["flowsim.delta_warm_ratio"] = _ratio(
        window["flowsim.delta_warm_hits"], window["flowsim.delta_solves"]
    )
    out["flowsim.delta_fallbacks"] = window["flowsim.delta_fallbacks"]
    warm = window_tally.get("search.warm_evals", 0)
    out["search.warm_eval_ratio"] = _ratio(warm, warm + window_tally.get("search.cold_evals", 0))
    out["search.accept_ratio"] = _ratio(window["search.accepts"], window["search.steps"])
    out["packet.events"] = window["packet.events"]
    out["packet.events_per_s"] = _ratio(events_total, tracer.total_time("packet.run"))
    out["packet.retried"] = window["faults.packets_retried"]
    out["faults.delta_ratio"] = _ratio(window["faults.delta_resolves"], window["faults.events"])
    out["faults.tables_degraded"] = window["faults.tables_degraded"]
    out["allocation.success_ratio"] = _ratio(
        window_tally.get("allocation.placed", 0), window_tally.get("allocation.calls", 0)
    )
    out["trace.ops_per_s"] = ops / ops_seconds
    out["trace.spans_per_op"] = tracer.num_spans / ops
    return {name: out[name] for name in PER_LAYER}
