"""Span tracing around the program's public layer boundaries.

The benchmark never edits ``src/``: a traced run installs wrappers over the
public functions and methods each layer exposes, records one span per call
(name, start, end, parent), and restores the originals afterwards.  A
layer's *self* time is the duration of its spans minus the time their child
spans cover, so the per-layer seconds partition the traced time without
double counting nested calls (a kernel called from the aggregate stage is
charged to ``aggregators``, not to ``engine.aggregate``).

Counts are taken at the same boundaries.  A call counts once per layer
entry: a wrapped call made from inside another span of the same layer
(``make_topology`` calling ``ring_topology``, ``sample_network_run`` calling
each condition's ``sample_run``) is nested work, not a second call.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

MB = 1024.0 * 1024.0

#: Per-layer metric name -> (unit, better), in report order.  Every traced
#: run reports all of them; a layer a workload does not reach reads 0.
PER_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "import.s": ("s", "lower"),
    "topology.build_s": ("s", "lower"),
    "topology.connectivity_s": ("s", "lower"),
    "topology.connectivity_calls": ("count", "lower"),
    "topology.adjacency_mb": ("MB", "lower"),
    "faults.presample_s": ("s", "lower"),
    "faults.presample_calls": ("count", "lower"),
    "faults.presample_mb": ("MB", "lower"),
    "engine.runs": ("count", "lower"),
    "engine.steps": ("count", "lower"),
    "engine.observe_s": ("s", "lower"),
    "engine.fabricate_s": ("s", "lower"),
    "engine.aggregate_s": ("s", "lower"),
    "engine.project_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "aggregators.kernel_calls": ("count", "lower"),
    "aggregators.kernel_s": ("s", "lower"),
    "backend.xp_calls": ("count", "lower"),
    "backend.xp_calls_per_step": ("count", "lower"),
    "health.screen_s": ("s", "lower"),
    "trace.diagnostics_s": ("s", "lower"),
    "trace.history_mb": ("MB", "lower"),
    "orchestrator.cells": ("count", "lower"),
    "orchestrator.cells_cached": ("count", "higher"),
    "orchestrator.self_s": ("s", "lower"),
    "checkpoint.writes": ("count", "lower"),
    "checkpoint.write_s": ("s", "lower"),
    "checkpoint.bytes_written": ("bytes", "lower"),
    "checkpoint.reads": ("count", "lower"),
    "checkpoint.read_s": ("s", "lower"),
    "report.render_s": ("s", "lower"),
    "tracing.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._restore: List[Callable[[], None]] = []
        self.reset()

    # -- per-pass accumulators ----------------------------------------------
    def reset(self) -> None:
        """Start a new pass: zero every accumulator (spans are kept)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # id -> (object, bytes): holding the object until the next reset
        # keeps its id from being reused by a later object of the pass.
        self._topologies: Dict[int, Tuple[object, int]] = {}
        self._histories: Dict[int, Tuple[object, int]] = {}

    def call(self, layer, name, fn, args, kwargs, after):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_id, layer, 0.0]
        self._next_id += 1
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
            self.spans.append(
                (
                    frame[0],
                    None if parent is None else parent[0],
                    name,
                    start - self.origin,
                    end - self.origin,
                )
            )
        outermost = parent is None or parent[1] != layer
        if outermost:
            self.calls[layer] += 1
        if after is not None:
            after(self, args, result, outermost)
        return result

    # -- installation -------------------------------------------------------
    def _wrapper(self, layer, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, name, fn, args, kwargs, after)

        return traced

    def wrap_method(self, cls, attr, layer, after=None) -> None:
        """Wrap ``cls.attr`` if ``cls`` defines it itself (not inherited)."""
        original = cls.__dict__.get(attr)
        if original is None or not inspect.isfunction(original):
            return
        setattr(
            cls,
            attr,
            self._wrapper(layer, f"{cls.__name__}.{attr}", original, after),
        )
        self._restore.append(lambda: setattr(cls, attr, original))

    def wrap_function(self, fn, layer, after=None) -> None:
        """Wrap a module-level function under every name ``repro`` binds it.

        Engines import helpers by name (``from .faults import
        sample_network_run``), so the wrapper replaces each module
        attribute that is the original function object.
        """
        traced = self._wrapper(layer, fn.__name__, fn, after)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._restore.append(
                        functools.partial(setattr, module, attr, fn)
                    )

    def count_xp_lookups(self, proxy_cls) -> None:
        """Count every attribute lookup on the array-backend proxy."""
        original = proxy_cls.__dict__["__getattr__"]
        counts = self.counts

        def __getattr__(proxy, item):
            counts["backend.xp_calls"] += 1
            return original(proxy, item)

        proxy_cls.__getattr__ = __getattr__
        self._restore.append(
            lambda: setattr(proxy_cls, "__getattr__", original)
        )

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._restore:
            self._restore.pop()()

    # -- the per-layer table ------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """This pass's per-layer metrics, plus the agent-rounds counted at
        ``step`` (``import.s`` and the tracing overhead are filled in by
        the caller)."""
        s, c, k = self.self_s, self.calls, self.counts
        steps = k["engine.steps"]
        return {
            "topology.build_s": s["topology.build"],
            "topology.connectivity_s": s["topology.connectivity"],
            "topology.connectivity_calls": c["topology.connectivity"],
            "topology.adjacency_mb": _total(self._topologies) / MB,
            "faults.presample_s": s["faults"],
            "faults.presample_calls": c["faults"],
            "faults.presample_mb": k["faults.bytes"] / MB,
            "engine.runs": k["engine.runs"],
            "engine.steps": steps,
            "engine.observe_s": s["engine.observe"],
            "engine.fabricate_s": s["engine.fabricate"],
            "engine.aggregate_s": s["engine.aggregate"],
            "engine.project_s": s["engine.project"],
            "engine.self_s": s["engine"],
            "aggregators.kernel_calls": c["aggregators"],
            "aggregators.kernel_s": s["aggregators"],
            "backend.xp_calls": k["backend.xp_calls"],
            "backend.xp_calls_per_step": (
                k["backend.xp_calls"] / steps if steps else 0.0
            ),
            "health.screen_s": s["health"],
            "trace.diagnostics_s": s["trace"],
            "trace.history_mb": _total(self._histories) / MB,
            "orchestrator.cells": k["orchestrator.cells"],
            "orchestrator.cells_cached": k["orchestrator.cells_cached"],
            "orchestrator.self_s": s["orchestrator"],
            "checkpoint.writes": c["checkpoint.write"],
            "checkpoint.write_s": s["checkpoint.write"],
            "checkpoint.bytes_written": k["checkpoint.bytes"],
            "checkpoint.reads": c["checkpoint.read"],
            "checkpoint.read_s": s["checkpoint.read"],
            "report.render_s": s["report"],
            "engine.agent_rounds": k["engine.agent_rounds"],
        }

    def write_spans(self, path) -> None:
        """Write every recorded span, gzipped, one JSON array per line:
        ``[id, parent id or null, name, start s, end s]``."""
        with gzip.open(path, "wt") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    f'[{span_id}, {"null" if parent is None else parent}, '
                    f'"{name}", {start:.9f}, {end:.9f}]\n'
                )


def _total(held: Dict[int, Tuple[object, int]]) -> int:
    return sum(size for _, size in held.values())


# -- after-call hooks: the counts each boundary records ---------------------

def _note_topology(tracer, args, result, outermost) -> None:
    if outermost:
        tracer._topologies[id(result)] = (
            result,
            int(result.adjacency.nbytes),
        )


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    return 0


def _note_presample(tracer, args, result, outermost) -> None:
    if outermost:
        tracer.counts["faults.bytes"] += _array_bytes(result)


def _note_step(tracer, args, result, outermost) -> None:
    engine = args[0]
    tracer.counts["engine.steps"] += 1
    trials = getattr(engine, "trials", None)
    tracer.counts["engine.agent_rounds"] += int(engine.n) * (
        len(trials) if trials is not None else 1
    )


def _note_run(tracer, args, result, outermost) -> None:
    """Count an engine run and the history it holds afterwards.

    History is every distinct float array the returned trace holds, plus
    every float array the engine holds whose leading axis spans the
    horizon (trajectory and gradient histories); the largest figure per
    engine is kept, so chunked (checkpointed) runs count once.
    """
    if not outermost:
        return
    tracer.counts["engine.runs"] += 1
    engine = args[0]
    horizon = int(getattr(engine, "iteration", 0) or 0)
    held = list(getattr(result, "__dict__", {}).values()) + [
        value
        for value in vars(engine).values()
        if isinstance(value, np.ndarray)
        and value.ndim
        and value.shape[0] >= horizon > 0
    ]
    arrays = {}
    for value in held:
        if isinstance(value, np.ndarray) and value.dtype.kind == "f":
            owner = value.base if isinstance(value.base, np.ndarray) else value
            arrays[id(owner)] = int(owner.nbytes)
    _, before = tracer._histories.get(id(engine), (engine, 0))
    tracer._histories[id(engine)] = (
        engine,
        max(before, sum(arrays.values())),
    )


def _note_sweep(tracer, args, result, outermost) -> None:
    if outermost:
        cells = args[1] if len(args) > 1 else ()
        tracer.counts["orchestrator.cells"] += len(cells)
        tracer.counts["orchestrator.cells_cached"] += len(result.cached)


def _note_write(tracer, args, result, outermost) -> None:
    tracer.counts["checkpoint.bytes"] += os.path.getsize(result)


def _subclasses(cls):
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return [cls] + found


def install(tracer: Tracer) -> None:
    """Wrap every public layer boundary the per-layer table reads."""
    from workloads import program

    masked = program("aggregators.masked")
    trimmed_mean = program("aggregators.trimmed_mean")
    backend = program("backend")
    distsys = program("distsys")
    faults = program("distsys.faults")
    topology = program("distsys.topology")
    asynchronous = program("experiments.asynchronous")
    checkpoint = program("experiments.checkpoint")
    decentralized = program("experiments.decentralized")
    decentralized_delay = program("experiments.decentralized_delay")
    orchestrator = program("experiments.orchestrator")
    table1 = program("experiments.table1")
    health = program("health")
    GradientAggregator = program("aggregators.base").GradientAggregator
    ProtocolEngine = program("distsys.engine").ProtocolEngine

    for name in (
        "complete_topology",
        "ring_topology",
        "torus_topology",
        "random_regular_topology",
        "erdos_renyi_topology",
        "make_topology",
    ):
        tracer.wrap_function(
            getattr(topology, name), "topology.build", _note_topology
        )
    tracer.wrap_method(
        topology.CommunicationTopology, "is_connected", "topology.connectivity"
    )

    tracer.wrap_function(faults.sample_network_run, "faults", _note_presample)
    tracer.wrap_method(
        faults.FaultSchedule, "sample_run", "faults", _note_presample
    )
    for cls in _subclasses(faults.NetworkCondition):
        tracer.wrap_method(cls, "sample_run", "faults")

    engines = _subclasses(ProtocolEngine)
    tracer.wrap_method(ProtocolEngine, "step", "engine", _note_step)
    for cls in engines:
        tracer.wrap_method(cls, "run", "engine", _note_run)
        for stage in ("observe", "fabricate", "aggregate", "project"):
            tracer.wrap_method(cls, stage, f"engine.{stage}")

    for cls in _subclasses(GradientAggregator):
        tracer.wrap_method(cls, "aggregate_batch", "aggregators")
        tracer.wrap_method(cls, "aggregate", "aggregators")
    for fn in (
        masked.masked_mean_batch,
        masked.masked_trimmed_mean_batch,
        masked.masked_median_batch,
        masked.masked_cge_batch,
        masked.aggregate_batch_masked,
        trimmed_mean.trimmed_mean_batch,
    ):
        tracer.wrap_function(fn, "aggregators")

    tracer.count_xp_lookups(type(backend.xp))

    tracer.wrap_method(health.TrialGuard, "screen", "health")
    tracer.wrap_method(health.RunGuard, "screen", "health")

    for name in dir(distsys):
        cls = getattr(distsys, name)
        if not (inspect.isclass(cls) and cls.__name__.endswith("Trace")):
            continue
        for attr, value in list(vars(cls).items()):
            if inspect.isfunction(value) and not attr.startswith("_"):
                tracer.wrap_method(cls, attr, "trace")

    tracer.wrap_function(
        orchestrator.run_sweep_cells, "orchestrator", _note_sweep
    )
    tracer.wrap_method(
        checkpoint.CheckpointStore, "put", "checkpoint.write", _note_write
    )
    tracer.wrap_method(checkpoint.CheckpointStore, "get", "checkpoint.read")

    for fn in (
        table1.render_table1,
        asynchronous.render_asynchronous_report,
        decentralized.render_decentralized_report,
        decentralized_delay.render_decentralized_delay_report,
    ):
        tracer.wrap_function(fn, "report")
