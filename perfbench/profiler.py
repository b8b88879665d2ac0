"""Layer profiler for the traced benchmark run.

Spans are recorded from the benchmark's own wrappers around the program's
public entry points; nothing under ``src/`` knows it is being profiled.
A span is ``(name, start, end, parent)``; spans are kept in flat arrays
while the run is live and written out once it ends.  A span's self time
is its duration minus the time its child spans cover, so the self times
of every span of an operation add up to that operation's wall time.

Callbacks handed to ``Engine.schedule``/``schedule_in``/``schedule_run``
are bucketed into layers by their event-label prefix; the inline
cross-layer calls (reassembly intake, EIB channel entry points, trace
emission, the invariant audit, solver/estimator/validation/sweep entry
points, cache reads and writes) get a span of their own layer.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections.abc import Callable
from typing import Any

#: Span names.  ``op`` is the root (one per benchmark operation) and
#: ``other`` holds callbacks whose label matches no layer; both count as
#: unattributed time.
SPAN_NAMES = (
    "op", "other", "sim", "traffic", "router", "fabric", "reassembly",
    "eib.ctl", "eib.data", "protocol", "detect", "faults", "chaos",
    "obs.trace", "obs.spans", "markov", "montecarlo", "validate",
    "analysis", "runtime.sweeps", "runtime.cache",
)
_ID = {name: idx for idx, name in enumerate(SPAN_NAMES)}

#: Event-label prefix -> layer, first match wins.
_LABEL_LAYERS = (
    ("traffic:", "traffic"),
    ("dra:", "router"),
    ("bdr:", "router"),
    ("spared:", "router"),
    ("fabric:", "fabric"),
    ("sru:", "reassembly"),
    ("eib:ctl:", "eib.ctl"),
    ("eib:data:", "eib.data"),
    ("eib:req_", "protocol"),
    ("eib:reply", "protocol"),
    ("eib:replan", "protocol"),
    ("detect:", "detect"),
    ("fault:", "faults"),
    ("repair", "faults"),
    ("validate:", "validate"),
)


def _label_layer(label: str) -> int:
    for prefix, layer in _LABEL_LAYERS:
        if label.startswith(prefix):
            return _ID[layer]
    return _ID["other"]


class SpanRecorder:
    """Flat in-memory span store with a current-parent cursor."""

    def __init__(self) -> None:
        self.names = array("B")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1

    def call(self, name_id: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``SPAN_NAMES[name_id]``."""
        idx = len(self.starts)
        parent = self.current
        self.names.append(name_id)
        self.parents.append(parent)
        self.ends.append(0.0)
        self.current = idx
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self.current = parent

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over every recorded span."""
        import numpy as np

        names = np.frombuffer(self.names, dtype=np.uint8)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = np.bincount(names, weights=dur - covered, minlength=len(SPAN_NAMES))
        return {name: float(own[i]) for i, name in enumerate(SPAN_NAMES)}

    def calls(self) -> dict[str, int]:
        """Number of spans per span name."""
        import numpy as np

        per_name = np.bincount(
            np.frombuffer(self.names, dtype=np.uint8), minlength=len(SPAN_NAMES)
        )
        return {name: int(per_name[i]) for i, name in enumerate(SPAN_NAMES)}

    def root_total(self) -> float:
        """Summed duration of the root spans (the profiled wall time)."""
        import numpy as np

        roots = np.frombuffer(self.parents, dtype=np.int32) < 0
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        return float(dur[roots].sum())

    def write(self, path: str) -> None:
        """Write the spans as one ``.npz`` (name table, names, parents,
        starts, ends)."""
        import numpy as np

        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            names=np.frombuffer(self.names, dtype=np.uint8),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts),
            ends=np.frombuffer(self.ends),
        )


class Profiler:
    """Installs span wrappers and work counters; :meth:`close` undoes them."""

    def __init__(self) -> None:
        self.spans = SpanRecorder()
        self.engines: list[Any] = []
        self.routers: list[Any] = []
        self.counts = {"reassembly.cells": 0, "sim.cancelled": 0}
        self._undo: list[Callable[[], None]] = []
        self._label_cache: dict[str, int] = {}

    # -- patching helpers ----------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def span_function(
        self, func: Callable[..., Any], layer: str, *, count: str | None = None
    ) -> None:
        """Wrap ``func`` in a ``layer`` span wherever a loaded module binds
        it by name; with ``count``, also add the length of each result to
        ``counts[count]``."""
        rec = self.spans
        name_id = _ID[layer]
        counts = self.counts

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            result = rec.call(name_id, func, *args, **kwargs)
            if count is not None:
                counts[count] = counts.get(count, 0) + len(result)
            return result

        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is func:
                    self._set(module, attr, wrapped)

    def _span_method(self, cls: type, attr: str, layer: str) -> None:
        rec = self.spans
        name_id = _ID[layer]
        method = cls.__dict__[attr]

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            return rec.call(name_id, method, *args, **kwargs)

        self._set(cls, attr, wrapped)

    def _callback(self, label: str, action: Callable[[], Any]) -> Callable[[], Any]:
        if getattr(action, "_perfbench_span", False):
            return action
        name_id = self._label_cache.get(label)
        if name_id is None:
            name_id = self._label_cache[label] = _label_layer(label)
        rec = self.spans

        def fire() -> Any:
            return rec.call(name_id, action)

        fire._perfbench_span = True
        return fire

    def op(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one benchmark operation inside a root span."""
        return self.spans.call(_ID["op"], fn, *args)

    def _in_span(self, layer: str, fn: Callable[..., Any] | None) -> Callable[..., Any] | None:
        if fn is None:
            return None
        rec = self.spans
        name_id = _ID[layer]
        return lambda *args: rec.call(name_id, fn, *args)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary."""
        from repro.chaos import invariants
        from repro.obs.trace import Tracer

        self._install_des()
        self._span_method(Tracer, "emit", "obs.trace")
        self.span_function(invariants.check_invariants, "chaos")
        self._install_paper()

    def _install_des(self) -> None:
        from repro.router.bus import ControlChannel, DataChannel
        from repro.router.reassembly import ReassemblyBuffer
        from repro.router.router import Router
        from repro.sim.engine import Engine
        from repro.sim.events import EventHandle

        prof = self
        rec = self.spans
        sim_id = _ID["sim"]
        schedule = Engine.__dict__["schedule"]
        schedule_in = Engine.__dict__["schedule_in"]
        schedule_run = Engine.__dict__["schedule_run"]
        run = Engine.__dict__["run"]
        engine_init = Engine.__dict__["__init__"]
        router_init = Router.__dict__["__init__"]
        cancel = EventHandle.__dict__["cancel"]
        add_cell = ReassemblyBuffer.__dict__["add_cell"]
        enqueue = DataChannel.__dict__["enqueue"]
        attach = ControlChannel.__dict__["attach"]

        def p_schedule(self, time, action, *, priority=0, label=""):
            return schedule(
                self, time, prof._callback(label, action), priority=priority, label=label
            )

        def p_schedule_in(self, delay, action, *, priority=0, label=""):
            return schedule_in(
                self, delay, prof._callback(label, action), priority=priority, label=label
            )

        def p_schedule_run(self, first_time, step, *, priority=0, label=""):
            return schedule_run(
                self, first_time, prof._callback(label, step), priority=priority, label=label
            )

        def p_run(self, *args, **kwargs):
            return rec.call(sim_id, run, self, *args, **kwargs)

        def p_engine_init(self, *args, **kwargs):
            engine_init(self, *args, **kwargs)
            prof.engines.append(self)

        def p_router_init(self, *args, **kwargs):
            router_init(self, *args, **kwargs)
            prof.routers.append(self)

        def p_cancel(self):
            if not self.cancelled:
                prof.counts["sim.cancelled"] += 1
            cancel(self)

        def p_add_cell(self, cell, on_complete, on_abort=None):
            prof.counts["reassembly.cells"] += 1
            return rec.call(
                _ID["reassembly"], add_cell, self, cell,
                prof._in_span("router", on_complete), prof._in_span("router", on_abort),
            )

        def p_enqueue(self, lc_id, size_bytes, deliver, abort=None):
            return rec.call(
                _ID["eib.data"], enqueue, self, lc_id, size_bytes,
                prof._in_span("router", deliver), prof._in_span("router", abort),
            )

        def p_attach(self, lc_id, handler):
            return attach(self, lc_id, prof._in_span("protocol", handler))

        self._set(Engine, "schedule", p_schedule)
        self._set(Engine, "schedule_in", p_schedule_in)
        self._set(Engine, "schedule_run", p_schedule_run)
        self._set(Engine, "run", p_run)
        self._set(Engine, "__init__", p_engine_init)
        self._set(Router, "__init__", p_router_init)
        self._set(EventHandle, "cancel", p_cancel)
        self._set(ReassemblyBuffer, "add_cell", p_add_cell)
        self._set(DataChannel, "enqueue", p_enqueue)
        self._set(ControlChannel, "attach", p_attach)
        self._span_method(ControlChannel, "broadcast", "eib.ctl")

    def _install_paper(self) -> None:
        from repro import markov, montecarlo
        from repro.analysis import claims, sweep
        from repro.core import availability, cost, importance, mttf
        from repro.runtime import cache, montecarlo as runtime_mc, sweeps
        from repro.validate import pairs

        for func in (
            markov.transient_distribution,
            markov.stationary_distribution,
            markov.uniformized_distribution,
            markov.mean_time_to_absorption,
            markov.absorption_probabilities,
            markov.absorption_time_moments,
            markov.phase_type_cdf,
        ):
            self.span_function(func, "markov")
        self.span_function(
            montecarlo.sample_lc_failure_times, "montecarlo", count="montecarlo.lifetimes"
        )
        for func in (
            montecarlo.structure_function_reliability,
            montecarlo.empirical_unreliability,
            montecarlo.unavailability_importance_sampling,
            montecarlo.collect_cycle_statistics,
            montecarlo.empirical_state_probabilities,
            montecarlo.empirical_availability,
            runtime_mc.parallel_structure_function_reliability,
            runtime_mc.parallel_unavailability_importance_sampling,
        ):
            self.span_function(func, "montecarlo")
        self.span_function(pairs.evaluate_pair, "validate")
        for func in (
            claims.check_claims,
            sweep.reliability_sweep,
            sweep.availability_sweep,
            sweep.performance_sweep,
            mttf.bdr_mttf,
            mttf.dra_mttf,
            availability.dra_availability,
            availability.bdr_availability,
            cost.compare_designs,
            importance.unavailability_elasticities,
        ):
            self.span_function(func, "analysis")
        for func in (
            sweeps.parallel_reliability_sweep,
            sweeps.parallel_availability_sweep,
            sweeps.parallel_performance_sweep,
        ):
            self.span_function(func, "runtime.sweeps")
        self._span_method(cache.ResultCache, "get", "runtime.cache")
        self._span_method(cache.ResultCache, "put", "runtime.cache")

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- per-operation counters ------------------------------------------------

    def take_des_counts(self) -> dict[str, float]:
        """Counters of the engines and routers built since the last call."""
        out = {
            "sim.events": float(sum(e.events_processed for e in self.engines)),
            "traffic.packets": 0.0,
            "router.delivered": 0.0,
            "router.dropped": 0.0,
            "fabric.cells": 0.0,
            "fabric.cells_dropped": 0.0,
            "eib.ctl.sent": 0.0,
            "eib.ctl.collisions": 0.0,
            "eib.ctl.attempts": 0.0,
            "protocol.streams": 0.0,
            "protocol.streams_failed": 0.0,
            "detect.detections": 0.0,
        }
        for router in self.routers:
            stats = router.stats
            out["traffic.packets"] += stats.offered
            out["router.delivered"] += stats.delivered
            out["router.dropped"] += stats.dropped
            out["protocol.streams"] += stats.streams_established
            out["protocol.streams_failed"] += stats.streams_failed
            fabric = router.fabric
            for port in range(fabric.n_ports):
                out["fabric.cells"] += fabric.delivered_cells(port)
                out["fabric.cells_dropped"] += fabric.dropped_cells(port)
            if router.eib is not None:
                ctl = router.eib.control
                out["eib.ctl.sent"] += ctl.sent
                out["eib.ctl.collisions"] += ctl.collisions
                out["eib.ctl.attempts"] += (
                    ctl.sent + ctl.collisions + ctl.lost + ctl.corrupted + ctl.failures
                )
            if router.detector is not None:
                out["detect.detections"] += len(router.detector.detections())
        self.engines.clear()
        self.routers.clear()
        return out
