"""Per-layer host-time split of one operation, measured from outside.

The package itself carries no benchmark instrumentation.  For a traced
operation :class:`LayerTrace` replaces the package's public entry points
listed in :data:`SPANS` with timing wrappers, and restores them on exit.
Each wrapper records one span: its inclusive time, and its self time,
which is the inclusive time minus the time of the spans it called.  The
self times of all spans plus the ``other`` bucket (operation time no
span covers) sum to the operation's wall time.

Alongside the spans it collects:

* the kernel's per-callback dispatch stats
  (:meth:`Simulator.enable_dispatch_stats`) of every simulator built
  during the operation, with each callback label mapped to a layer by
  :data:`DISPATCH_LAYERS`.  A label no rule maps fails the operation,
  so a new callback cannot drop out of the split unnoticed;
* LSM store counters and flush/compaction output sizes;
* the summaries produced, the trace-event count, and the number of
  ``ast.parse`` calls and ``ast.walk`` steps of the static analysis.
"""

from __future__ import annotations

import ast
import functools
import importlib
import re
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(layer, module, attribute)`` of every timed entry point.  An
#: attribute ``Class.method`` is patched on the class; a module-level
#: function is patched in every loaded module that bound it by name.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("scenarios", "repro.scenarios.run", "build_scenario_job"),
    ("scenarios", "repro.scenarios.run", "execute_scenario"),
    ("stream.engine", "repro.stream.engine", "StreamJob.run"),
    ("stream.engine", "repro.stream.engine", "StreamJob.start_run"),
    ("stream.engine", "repro.stream.engine", "StreamJob.advance_to"),
    ("stream.engine", "repro.stream.engine", "StreamJob.finish_run"),
    ("sim.kernel", "repro.sim.kernel", "Simulator.run"),
    ("sim.resource", "repro.sim.resource", "ProcessorSharingResource.reallocate"),
    ("sim.resource", "repro.sim.resource", "ProcessorSharingResource.submit"),
    ("sim.fluid", "repro.sim.fluid", "FluidFlow.apply_allocation"),
    ("sim.fluid", "repro.sim.fluid", "FluidFlow.sync"),
    ("sim.fluid", "repro.sim.fluid", "FluidFlow.set_arrival_rate"),
    ("sim.fluid", "repro.sim.fluid", "FluidFlow.set_blocked_fraction"),
    ("sim.threadpool", "repro.sim.threadpool", "SimThreadPool.submit"),
    ("lsm", "repro.lsm.store", "LSMStore.put"),
    ("lsm", "repro.lsm.store", "LSMStore.begin_flush"),
    ("lsm", "repro.lsm.store", "LSMStore.finish_flush"),
    ("lsm", "repro.lsm.store", "LSMStore.pick_compaction"),
    ("lsm", "repro.lsm.store", "LSMStore.finish_compaction"),
    ("stream.checkpoint", "repro.stream.checkpoint", "CheckpointCoordinator.trigger"),
    ("stream.state_backend", "repro.stream.state_backend", "LSMStateBackend.flush_instance"),
    ("stream.state_backend", "repro.stream.state_backend",
     "LSMStateBackend.schedule_due_compactions"),
    ("experiments.summary", "repro.experiments.summary", "summarize_run"),
    ("experiments.parallel", "repro.experiments.parallel", "run_grid"),
    ("experiments.parallel", "repro.experiments.parallel", "execute_spec"),
    ("experiments.parallel", "repro.experiments.parallel", "cache_load"),
    ("experiments.parallel", "repro.experiments.parallel", "cache_store"),
    ("trace", "repro.trace", "Tracer.complete"),
    ("trace", "repro.trace", "Tracer.instant"),
    ("trace", "repro.trace", "Tracer.counter"),
    ("trace", "repro.trace", "Tracer.extend"),
    ("trace", "repro.trace", "TraceEvent.to_dict"),
    ("trace", "repro.trace", "TraceEvent.from_dict"),
    ("analysis", "repro.sanitize.syncgraph.audit", "analyze_sync"),
    ("analysis", "repro.sanitize.syncgraph.waitgraph", "extract_wait_graph"),
    ("analysis", "repro.sanitize.syncgraph.waitgraph", "diff_against_catalog"),
    ("analysis", "repro.sanitize.syncgraph.waitgraph", "sync_windows"),
    ("analysis", "repro.sanitize.syncgraph.waitgraph", "attribute_spikes"),
    ("analysis", "repro.analysis.millibottleneck", "analyze_trace"),
    ("sanitize", "repro.sanitize.lint", "lint_paths"),
    ("sanitize", "repro.sanitize.lint", "lint_source"),
    ("sanitize", "repro.sanitize.syncgraph.callgraph", "build_project"),
    ("sanitize", "ast", "parse"),
)

#: Layers of the self-time split, in report order (``other`` last).
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS)) + ("other",)

#: Kernel callback label -> layer.  ``*_wheel_fire[nodeN-<storage>]`` is
#: a storage-device completion, where the LSM data plane runs.
DISPATCH_LAYERS: Tuple[Tuple[str, str], ...] = (
    (r"ProcessorSharingResource\._wheel_fire\[node\d+-\w+\]", "lsm"),
    (r"ProcessorSharingResource\._wheel_fire\[node\d+\]", "sim.resource"),
    (r"ProcessorSharingResource\._deferred_realloc\[.+\]", "sim.resource"),
    (r"ProcessorSharingResource\._wheel_fire\[hdfs-uplink\]", "storage"),
    (r"Process\._(start|advance)\[account-.+\]", "stream.engine"),
    (r"StreamJob\.(_update_downstream|set_source_rate)", "stream.engine"),
    (r"Process\._(start|advance)\[checkpoint-coordinator\]", "stream.checkpoint"),
    (r"LSMStateBackend\.schedule_due_compactions", "stream.state_backend"),
    (r"FluidFlow\._on_queue_empty\[.+\]", "sim.fluid"),
)
DISPATCH_TARGETS = tuple(dict.fromkeys(layer for _, layer in DISPATCH_LAYERS))
_DISPATCH_RULES = [(re.compile(pattern), layer) for pattern, layer in DISPATCH_LAYERS]


class UnmappedDispatchLabel(RuntimeError):
    """A kernel callback label that no :data:`DISPATCH_LAYERS` rule maps."""


def dispatch_by_layer(stats: Dict[str, tuple]) -> Dict[str, float]:
    """Sum ``{label: (count, seconds)}`` dispatch stats per layer."""
    totals = dict.fromkeys(DISPATCH_TARGETS, 0.0)
    unmapped = []
    for label, (_count, seconds) in stats.items():
        for pattern, layer in _DISPATCH_RULES:
            if pattern.fullmatch(label):
                totals[layer] += seconds
                break
        else:
            unmapped.append(label)
    if unmapped:
        raise UnmappedDispatchLabel(
            f"dispatch label(s) with no layer: {sorted(unmapped)}; "
            "add a rule to perfbench/layers.py DISPATCH_LAYERS"
        )
    return totals


def _resolve(module_name: str, attr: str):
    """``(owner, name, raw attribute)`` for a ``SPANS`` entry."""
    module = importlib.import_module(module_name)
    cls_name, _, name = attr.rpartition(".")
    owner = getattr(module, cls_name) if cls_name else module
    try:
        return owner, name, vars(owner)[name]
    except KeyError:
        raise LookupError(
            f"span target {module_name}:{attr} no longer exists; "
            "update perfbench/layers.py SPANS"
        ) from None


class LayerTrace:
    """Install the span wrappers; measure one operation at a time.

    Use as a context manager around one or more :meth:`measure` calls;
    leaving the context restores every patched attribute.
    """

    def __init__(self) -> None:
        self._patches: List[tuple] = []
        self._reset()

    def _reset(self) -> None:
        self._stack: List[float] = [0.0]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.sims: list = []
        self.stores: list = []
        self.summaries: list = []
        self.flush_out_bytes = 0
        self.compaction_out_bytes = 0
        self.walk_steps = 0

    # -- patching ---------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rebind(self, original, replacement) -> None:
        """Point every loaded binding of a module-level function at
        *replacement* (``from x import f`` copies the reference)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "ast" or module_name.startswith("repro")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)

    def _span(self, key: str, fn: Callable, after: Optional[Callable] = None):
        trace = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = trace._stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                trace.self_s[key] += elapsed - child
                trace.incl_s[key] += elapsed
                trace.calls[key] += 1
            if after is not None:
                after(result)
            return result

        return timed

    def _after_hooks(self) -> Dict[str, Callable]:
        def flushed(table) -> None:
            self.flush_out_bytes += table.logical_bytes

        def compacted(table) -> None:
            self.compaction_out_bytes += table.logical_bytes

        def summarized(summary) -> None:
            self.summaries.append(summary)

        return {
            "LSMStore.finish_flush": flushed,
            "LSMStore.finish_compaction": compacted,
            "summarize_run": summarized,
        }

    def __enter__(self) -> LayerTrace:
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        hooks = self._after_hooks()
        for layer, module_name, attr in SPANS:
            owner, name, raw = _resolve(module_name, attr)
            key = f"{layer}:{attr}"
            after = hooks.get(attr)
            if isinstance(raw, classmethod):
                self._set(owner, name, classmethod(self._span(key, raw.__func__, after)))
            elif owner is sys.modules[module_name] and "." not in attr:
                self._rebind(raw, self._span(key, raw, after))
            else:
                self._set(owner, name, self._span(key, raw, after))
        self._wrap_constructors()
        self._wrap_walk()

    def _wrap_constructors(self) -> None:
        from repro.lsm.store import LSMStore
        from repro.sim.kernel import Simulator

        trace = self
        sim_init = Simulator.__dict__["__init__"]
        store_init = LSMStore.__dict__["__init__"]

        @functools.wraps(sim_init)
        def sim_init_stats(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            sim.enable_dispatch_stats()
            trace.sims.append(sim)

        @functools.wraps(store_init)
        def store_init_tracked(store, *args, **kwargs):
            store_init(store, *args, **kwargs)
            trace.stores.append(store)

        self._set(Simulator, "__init__", sim_init_stats)
        self._set(LSMStore, "__init__", store_init_tracked)

    def _wrap_walk(self) -> None:
        walk = ast.walk
        trace = self

        @functools.wraps(walk)
        def counted_walk(node):
            for child in walk(node):
                trace.walk_steps += 1
                yield child

        self._set(ast, "walk", counted_walk)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- measuring --------------------------------------------------------

    def measure(self, op: Callable):
        """Run *op* once under the wrappers; return ``(output, split)``."""
        self._reset()
        clock = time.perf_counter
        start = clock()
        output = op()
        wall = clock() - start
        return output, self._split(wall)

    def total(self, *attrs: str, inclusive: bool = False) -> float:
        """Self (or inclusive) seconds of the named entry points in the
        operation measured last."""
        table = self.incl_s if inclusive else self.self_s
        return sum(
            value for key, value in table.items() if key.split(":", 1)[1] in attrs
        )

    def _split(self, wall: float) -> Dict[str, float]:
        """Per-layer numbers of the operation just measured."""
        from repro.serialize import canonical_json

        per_layer = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.self_s.items():
            per_layer[key.split(":", 1)[0]] += seconds
        per_layer["other"] = wall - self._stack[0]

        dispatch: Dict[str, tuple] = {}
        events = 0
        for sim in self.sims:
            events += sim.events_fired
            for label, (count, seconds) in sim.dispatch_stats().items():
                old = dispatch.get(label, (0, 0.0))
                dispatch[label] = (old[0] + count, old[1] + seconds)
        by_layer = dispatch_by_layer(dispatch)

        compaction_in = sum(s.stats.compaction_input_bytes for s in self.stores)
        flushed = self.flush_out_bytes
        calls = self.calls
        metrics = {
            "traced.wall_s": wall,
            **{f"self_s.{layer}": per_layer[layer] for layer in LAYERS},
            "sim.kernel.events": events,
            **{f"sim.kernel.dispatch_s.{layer}": by_layer[layer]
               for layer in DISPATCH_TARGETS},
            "sim.resource.reallocate_calls":
                calls["sim.resource:ProcessorSharingResource.reallocate"],
            "sim.resource.reallocate_self_s":
                self.total("ProcessorSharingResource.reallocate"),
            "sim.fluid.calls": sum(
                count for key, count in calls.items() if key.startswith("sim.fluid:")
            ),
            "sim.threadpool.submit_calls": calls["sim.threadpool:SimThreadPool.submit"],
            "lsm.put_calls": calls["lsm:LSMStore.put"],
            "lsm.put_self_s": self.total("LSMStore.put"),
            "lsm.flush_self_s": self.total("LSMStore.finish_flush"),
            "lsm.compaction_self_s":
                self.total("LSMStore.pick_compaction", "LSMStore.finish_compaction"),
            "lsm.compaction_input_mb": compaction_in / 1e6,
            "lsm.write_amp":
                (flushed + self.compaction_out_bytes) / flushed if flushed else 0.0,
            "stream.checkpoint.trigger_self_s":
                self.total("CheckpointCoordinator.trigger"),
            "stream.state_backend.flush_instance_self_s":
                self.total("LSMStateBackend.flush_instance"),
            "stream.state_backend.schedule_due_compactions_self_s":
                self.total("LSMStateBackend.schedule_due_compactions"),
            "experiments.summary.summarize_s":
                self.total("summarize_run", inclusive=True),
            "experiments.summary.json_bytes": sum(
                len(canonical_json(summary.to_dict())) for summary in self.summaries
            ),
            "experiments.parallel.run_grid_self_s": self.total("run_grid"),
            "analysis.waitgraph_s": self.total("extract_wait_graph", inclusive=True),
            "analysis.millibottleneck_s": self.total("analyze_trace", inclusive=True),
            "sanitize.parse_calls": calls["sanitize:parse"],
            "sanitize.walk_steps": self.walk_steps,
            "sanitize.build_project_s": self.total("build_project", inclusive=True),
            "sanitize.lint_source_s": self.total("lint_source", inclusive=True),
        }
        return metrics
