"""Per-layer span timer, attached to the simulator from the outside.

The simulator has no tracing hooks of its own, so :func:`install` wraps the
public entry points of each layer (see :data:`LAYERS`) in place: every call
becomes a span that records its duration, and a layer's *self* time is its
spans' durations minus the time covered by spans nested inside them.  Only
the traced run installs the wrappers; untraced runs execute the simulator
untouched, so the end-to-end metrics carry no tracing cost.

A wrapped name that does not exist in the simulator being measured is
skipped, so the tracer still runs against a commit that renamed an entry
point; the layer then simply reads zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (layer, module, class or None, attribute names).  A ``None`` class wraps
#: module-level functions under that name in every ``repro`` module that
#: imported them.  Properties are wrapped through their getter.
LAYERS = (
    ("compiler", "repro.compiler.compiler", "Compiler",
     ("compile_block", "compile_embedding", "compile_lm_head")),
    ("scheduling", "repro.scheduling.events", "EventEngine", ("simulate",)),
    ("energy", "repro.energy.model", "EnergyModel", ("from_stats",)),
    ("core.pass_cost", "repro.core.system", "IanusSystem", ("pass_cost", "run")),
    ("serving.trace", "repro.serving.trace", "TraceGenerator", ("generate",)),
    ("serving.decode_table", "repro.serving.decode_table", None,
     ("build_decode_table",)),
    ("serving.array_engine.offer", "repro.serving.array_engine",
     "ArraySimulationRun", ("offer", "offer_many")),
    ("serving.array_engine.advance", "repro.serving.array_engine",
     "ArraySimulationRun", ("advance_until",)),
    ("serving.array_engine.finish", "repro.serving.array_engine",
     "ArraySimulationRun", ("finish",)),
    ("serving.kv_memory", "repro.serving.kv_memory", "KvPageAccountant",
     ("reserve", "release", "grow", "can_grow", "swap_out", "swap_in",
      "free_pages", "reserved_pages")),
    ("serving.cluster.route", "repro.serving.cluster", "Router", ("select",)),
    # The cluster's per-arrival autoscale step builds the autoscaler's
    # signal (snapshots plus the SLO-window scan) and then asks the policy;
    # both belong to the autoscaling cost, so both are wrapped.
    ("serving.autoscale", "repro.serving.cluster", "_OpsState", ("autoscale",)),
    ("serving.autoscale", "repro.serving.autoscale", "Autoscaler", ("decide",)),
    ("serving.cluster", "repro.serving.cluster", "ClusterSimulator",
     ("simulate",)),
    ("serving.validate", "repro.serving.validate", None,
     ("check_invariants", "check_cluster_invariants")),
    ("serving.validate", "repro.serving.cluster", None, ("cluster_kv_peak",)),
)

#: Layers whose spans also count a quantity other than calls.
TRACE_REQUESTS = "serving.trace.requests"
VALIDATE_EVENTS = "serving.validate.events"
DECODE_TABLE_BUILDS = "serving.decode_table.builds"


def layer_names() -> list[str]:
    """Every layer name, in :data:`LAYERS` order, without repeats."""
    return list(dict.fromkeys(layer for layer, *_ in LAYERS))


class Tracer:
    """In-memory span accounting: calls and self seconds per layer."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in layer_names()}
        self.self_s = {name: 0.0 for name in layer_names()}
        self.counts = {TRACE_REQUESTS: 0, VALIDATE_EVENTS: 0, DECODE_TABLE_BUILDS: 0}
        #: Summed duration of root spans (spans with no enclosing span).
        self.root_s = 0.0
        self._stack: list[list] = []  # [layer, seconds covered by children]

    def _enter(self, layer: str) -> list:
        frame = [layer, 0.0]
        if not any(entry[0] == layer for entry in self._stack):
            # A call nested in a span of its own layer is part of that call.
            self.calls[layer] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        self.self_s[frame[0]] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed
        else:
            self.root_s += elapsed

    def outermost(self, layer: str) -> bool:
        """True inside a span of ``layer`` that no other ``layer`` span encloses."""
        return sum(1 for entry in self._stack if entry[0] == layer) == 1

    def wrap(self, layer: str, fn, on_result=None):
        """``fn`` as a span of ``layer``; ``on_result(args, result)`` runs
        inside the span after a successful call (for extra counters)."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = self._enter(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                self._exit(frame, clock() - start)

        return spanned

    def wrap_iterator(self, layer: str, iterator, on_item):
        """Each ``next()`` of a lazy iterator as a span of ``layer``."""
        clock = time.perf_counter
        while True:
            frame = self._enter(layer)
            start = clock()
            try:
                item = next(iterator)
                on_item(item)
            except StopIteration:
                return
            finally:
                self._exit(frame, clock() - start)
            yield item

    def snapshot(self) -> dict:
        """Calls, self seconds and counters recorded so far."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "root_s": self.root_s,
        }


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _wrap_attribute(tracer: Tracer, cls, name: str, layer: str, on_result) -> None:
    """Wrap ``name`` on ``cls`` and on every loaded subclass overriding it."""
    for owner in dict.fromkeys(_subclasses(cls)):
        member = owner.__dict__.get(name)
        if member is None:
            continue
        if isinstance(member, property):
            wrapped = property(tracer.wrap(layer, member.fget, on_result))
        else:
            wrapped = tracer.wrap(layer, member, on_result)
        setattr(owner, name, wrapped)


def _wrap_function(tracer: Tracer, module, name: str, layer: str, on_result) -> None:
    """Wrap a module-level function in every ``repro`` module bound to it."""
    original = getattr(module, name, None)
    if original is None:
        return
    wrapped = tracer.wrap(layer, original, on_result)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not loaded_name.startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Attach ``tracer`` to every layer entry point in :data:`LAYERS`."""

    def count_events(args, result):
        logs = args[0] if args else ()
        if logs and not hasattr(logs[0], "kind"):
            tracer.counts[VALIDATE_EVENTS] += sum(len(log or ()) for log in logs)
        else:
            tracer.counts[VALIDATE_EVENTS] += len(logs)

    def count_build(args, result):
        tracer.counts[DECODE_TABLE_BUILDS] += 1

    def count_requests(requests):
        if tracer.outermost("serving.trace"):
            tracer.counts[TRACE_REQUESTS] += len(requests)

    hooks = {
        "serving.validate": count_events,
        "serving.decode_table": count_build,
        "serving.trace": lambda args, result: count_requests(result),
    }
    for layer, module_name, class_name, names in LAYERS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        for name in names:
            if class_name is None:
                _wrap_function(tracer, module, name, layer, hooks.get(layer))
                continue
            cls = getattr(module, class_name, None)
            if cls is not None:
                _wrap_attribute(tracer, cls, name, layer, hooks.get(layer))

    # generate_stream returns a lazy iterator: the trace work happens on
    # each next(), inside whatever loop consumes the chunks.
    trace_module = importlib.import_module("repro.serving.trace")
    generator_cls = getattr(trace_module, "TraceGenerator", None)
    original = getattr(generator_cls, "generate_stream", None)
    if original is not None:

        @functools.wraps(original)
        def generate_stream(*args, **kwargs):
            return tracer.wrap_iterator(
                "serving.trace", iter(original(*args, **kwargs)), count_requests
            )

        generator_cls.generate_stream = generate_stream
