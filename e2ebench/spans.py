"""In-memory spans around the public calls into each layer of ``repro``.

The benchmark measures a workload twice: once untouched (the end-to-end
numbers) and once with every layer boundary below wrapped in a span
(the per-layer numbers).  A span records its name, start, end and the
span that was open when it began; a layer's *self time* is its spans'
durations minus the time their child spans cover.  Nothing here is
imported by ``repro`` itself: the wrappers are installed from outside
and removed again when the traced pass ends.

A module-level function is patched in every loaded ``repro`` module that
binds it, so a caller that did ``from repro.fleet.node import
simulate_node`` sees the wrapper too.  A method is patched on its class
and on every loaded subclass that overrides it.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call at a layer boundary."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`SpanRecorder.spans`, -1 for a root.
    parent: int
    #: Work done inside the span, in the probe's own unit (events, bytes, ...).
    size: int = 0
    #: Identity of the work (e.g. a trace key), for useful-work ratios.
    key: Optional[Hashable] = None


class SpanRecorder:
    """Collects nested spans from one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             measure: Optional[Callable[..., Tuple[int, Any]]] = None,
             **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if measure is not None:
            span.size, span.key = measure(args, kwargs, result)
        return result


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def _trace_events_and_key(args, kwargs, trace):
    model = args[0]
    return len(trace), (model.profile, model.seed, _arg(args, kwargs, 1, "index"))


def _trace_len(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "trace")), None


def _cache_hit(args, kwargs, result):
    return int(result[0]), None


def _cache_bytes(args, kwargs, stored):
    cache, key = args[0], _arg(args, kwargs, 1, "key")
    return (os.path.getsize(cache.path_for(key)) if stored else 0), None


def _invocations(args, kwargs, stats):
    return stats.invocations, None


@dataclass(frozen=True)
class Probe:
    """One wrapped layer boundary: ``module:qualname`` traced as ``span``."""

    span: str
    module: str
    qualname: str
    measure: Optional[Callable[..., Tuple[int, Any]]] = None


#: Every layer boundary the traced pass wraps, innermost layers first.
PROBES = (
    Probe("workloads.model_build", "repro.workloads.function",
          "FunctionModel.__init__"),
    Probe("workloads.tracegen", "repro.workloads.function",
          "FunctionModel.invocation_trace", _trace_events_and_key),
    Probe("ir.compile", "repro.workloads.trace", "ColumnarTrace.from_trace",
          _trace_len),
    Probe("sim.run", "repro.sim.core", "Simulator.run", _trace_len),
    Probe("sim.flush", "repro.sim.core", "Simulator.flush_microarch_state"),
    Probe("core.jukebox_replay", "repro.core.jukebox",
          "Jukebox.begin_invocation"),
    Probe("core.jukebox_record", "repro.core.jukebox",
          "Jukebox.end_invocation"),
    Probe("core.snapshot", "repro.coldstart.model",
          "SnapshotState.restore_jukebox"),
    Probe("core.snapshot", "repro.coldstart.model",
          "SnapshotState.capture_metadata"),
    Probe("coldstart.charge", "repro.coldstart.model",
          "ColdStartModel.cold_start"),
    Probe("engine.key", "repro.engine.job", "Job.key"),
    Probe("engine.cache_get", "repro.engine.cache", "ResultCache.get",
          _cache_hit),
    Probe("engine.cache_put", "repro.engine.cache", "ResultCache.put",
          _cache_bytes),
    Probe("engine.execute", "repro.engine.executors", "execute_job"),
    Probe("engine.sweep", "repro.engine.sweep", "sweep"),
    Probe("fleet.plan", "repro.fleet.plan", "plan_region"),
    Probe("fleet.node", "repro.fleet.node", "simulate_node"),
    Probe("server.run", "repro.server.server", "ServerSimulator.run",
          _invocations),
    Probe("fleet.aggregate", "repro.fleet.result", "aggregate_nodes"),
)

#: The experiment's own ``run()``, wrapped by the benchmark as the root span.
ROOT_SPAN = "experiments.run"

#: Span name -> the per-layer metric that holds its self time.
SELF_TIME_METRIC = {
    ROOT_SPAN: "experiments.aggregate_s",
    "engine.execute": "experiments.cell_s",
    "workloads.model_build": "workloads.model_build_s",
    "workloads.tracegen": "workloads.tracegen_s",
    "ir.compile": "ir.compile_s",
    "sim.run": "sim.simulate_s",
    "sim.flush": "sim.flush_s",
    "core.jukebox_replay": "core.jukebox_replay_s",
    "core.jukebox_record": "core.jukebox_record_s",
    "core.snapshot": "core.snapshot_s",
    "coldstart.charge": "coldstart.charge_s",
    "engine.key": "engine.key_s",
    "engine.cache_get": "engine.cache_get_s",
    "engine.cache_put": "engine.cache_put_s",
    "engine.sweep": "engine.overhead_s",
    "fleet.plan": "fleet.plan_s",
    "fleet.node": "fleet.node_build_s",
    "server.run": "server.run_s",
    "fleet.aggregate": "fleet.aggregate_s",
}


def _wrap_function(fn: Callable[..., Any], name: str, recorder: SpanRecorder,
                   measure) -> Callable[..., Any]:
    def spanned(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(name, fn, *args, measure=measure, **kwargs)
    spanned.__wrapped__ = fn  # type: ignore[attr-defined]
    return spanned


def _wrap_attribute(raw: Any, name: str, recorder: SpanRecorder,
                    measure) -> Any:
    """Wrap a raw class-dict entry, keeping classmethod/staticmethod."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap_function(raw.__func__, name, recorder, measure))
    return _wrap_function(raw, name, recorder, measure)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Patches:
    """Installed wrappers, restored in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, name: str,
                      wrap: Callable[[Any], Any]) -> int:
        """Replace ``module.name`` in every loaded ``repro`` module that
        binds the same object; returns how many bindings were patched."""
        target = getattr(importlib.import_module(module), name)
        wrapped = wrap(target)
        owners = [mod for mod_name, mod in sorted(sys.modules.items())
                  if mod_name.split(".")[0] == "repro"
                  and getattr(mod, name, None) is target]
        for owner in owners:
            self.set(owner, name, wrapped)
        return len(owners)

    def wrap_method(self, module: str, qualname: str,
                    wrap: Callable[[Any], Any]) -> int:
        """Replace a method on its class and on every overriding subclass."""
        cls_name, attr = qualname.split(".")
        base = getattr(importlib.import_module(module), cls_name)
        patched = 0
        for cls in _subclasses(base):
            if attr in vars(cls) and not getattr(vars(cls)[attr],
                                                 "__isabstractmethod__", False):
                self.set(cls, attr, wrap(vars(cls)[attr]))
                patched += 1
        return patched

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every :data:`PROBES` boundary in spans for the ``with`` block."""
    patches = Patches()
    try:
        for probe in PROBES:
            def wrap(raw, probe=probe):
                return _wrap_attribute(raw, probe.span, recorder, probe.measure)
            if "." in probe.qualname:
                count = patches.wrap_method(probe.module, probe.qualname, wrap)
            else:
                count = patches.wrap_function(probe.module, probe.qualname,
                                              wrap)
            if not count:
                raise LookupError(f"probe {probe.module}:{probe.qualname} "
                                  f"patched nothing")
        yield
    finally:
        patches.undo()


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per span name: total duration minus the duration of child spans."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent].name
            totals[parent] -= span.end - span.start
    return totals


def layer_metrics(spans: List[Span], run_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass that took ``run_s``."""
    selfs = self_times(spans)
    count: Dict[str, int] = {}
    size: Dict[str, int] = {}
    keys: Dict[str, set] = {}
    for span in spans:
        count[span.name] = count.get(span.name, 0) + 1
        size[span.name] = size.get(span.name, 0) + span.size
        if span.key is not None:
            keys.setdefault(span.name, set()).add(span.key)

    def per(numerator: float, denominator: int, scale: float) -> float:
        return numerator / denominator * scale if denominator else 0.0

    m: Dict[str, float] = {metric: selfs.get(name, 0.0)
                           for name, metric in SELF_TIME_METRIC.items()}
    traces = count.get("workloads.tracegen", 0)
    events = size.get("workloads.tracegen", 0)
    gets = count.get("engine.cache_get", 0)
    invocations = size.get("server.run", 0)
    m.update({
        "workloads.traces_built": traces,
        "workloads.trace_events": events,
        "workloads.tracegen_us_per_event": per(m["workloads.tracegen_s"],
                                               events, 1e6),
        "workloads.trace_unique_ratio": per(
            len(keys.get("workloads.tracegen", ())), traces, 1.0),
        "ir.compiles": count.get("ir.compile", 0),
        "ir.us_per_event": per(m["ir.compile_s"],
                               size.get("ir.compile", 0), 1e6),
        "sim.runs": count.get("sim.run", 0),
        "sim.ns_per_event": per(m["sim.simulate_s"],
                                size.get("sim.run", 0), 1e9),
        "core.jukebox_calls": (count.get("core.jukebox_replay", 0)
                               + count.get("core.jukebox_record", 0)),
        "coldstart.charges": count.get("coldstart.charge", 0),
        "engine.cache_puts": count.get("engine.cache_put", 0),
        "engine.cache_put_bytes": size.get("engine.cache_put", 0),
        "engine.cache_hit_ratio": per(size.get("engine.cache_get", 0),
                                      gets, 1.0),
        "server.invocations": invocations,
        "server.us_per_invocation": per(m["server.run_s"], invocations, 1e6),
        "traced_run_s": run_s,
        "unattributed_s": run_s - sum(selfs.values()),
    })
    return m
