"""Per-layer host timing from outside the program.

:class:`LayerTracer` wraps the program's public entry points (module
functions and class methods, named in :data:`LAYERS`) while it is
installed. Every module that imported a wrapped function by name gets
the wrapper too, so a call reaches it however the caller spelled the
name. Each call records one span — layer, start, end and the span that
was open when it began — in memory; self time is derived from that
nesting afterwards: a span's duration minus the durations of its direct
children. The program itself is not modified and does not know it is
being traced.

Uninstalled, the program runs its original functions: the untimed
warm-up and the untraced passes pay nothing for this module.
"""

import gc
import json
import sys
import time

import numpy as np

#: ``(layer, [(module, qualified name), ...])``. A class method is
#: wrapped on its class and on every subclass that overrides it.
LAYERS = (
    ("cluster.trace", [("repro.cluster.trace", "load_trace"),
                       ("repro.cluster.trace", "generate_diurnal_trace")]),
    ("serving.registry", [("repro.serving.synthetic",
                           "synthetic_registry")]),
    ("cluster.simulator", [("repro.cluster.simulator",
                            "ClusterSimulator.run"),
                           ("repro.cluster.simulator",
                            "ClusterSimulator.run_until")]),
    ("cluster.replay", [("repro.cluster.replay", "run_vectorized")]),
    ("cluster.report", [("repro.cluster.report", "ClusterReport.summary")]),
    ("cluster.events", [("repro.cluster.events", "EventLoop.step")]),
    ("cluster.accelerator", [("repro.cluster.accelerator",
                              "AcceleratorSim.estimate")]),
    ("energy.governor", [("repro.energy.governor",
                          "EnergyGovernor.next_placement")]),
    ("serving.price_batch", [("repro.serving.server", "price_batch")]),
    ("core", [("repro.core.engine",
               "LatencyAwareEngine.simulate_dataset")]),
    ("dvfs.deadline", [("repro.dvfs.controller",
                        "DvfsController.plan_batch_deadline")]),
    ("fleet.orchestrator", [("repro.fleet.orchestrator",
                             "FleetOrchestrator.run")]),
    ("fleet.router", [("repro.fleet.router", "RoutingPolicy.route"),
                      ("repro.fleet.router", "_BulkEnergyScorer.route")]),
    ("fleet.site.estimate", [("repro.fleet.site",
                              "FleetSite.estimate_request")]),
    ("fleet.site.drain", [("repro.fleet.site", "FleetSite.run_until")]),
    ("telemetry.analysis", [("repro.telemetry.analysis.journeys",
                             "analyze")]),
)

#: Counted, not timed: rows a lazily built report turns into records.
#: A span here would move record building out of the report's self time.
MATERIALIZE = ("repro.cluster.report", "LazyRecords._materialize")


def _resolve(module_name, qualname):
    """``(owner, attribute, original)`` for one named entry point."""
    owner = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _sites(owner, attr, original):
    """Every place the wrapper must go for one entry point.

    A method goes on its class and on each subclass that overrides it.
    A module function goes on every loaded module of the program that
    holds the same object under the same name.
    """
    if isinstance(owner, type):
        found, todo = [], [owner]
        while todo:
            cls = todo.pop()
            if attr in cls.__dict__:
                found.append((cls, attr, cls.__dict__[attr]))
            todo.extend(cls.__subclasses__())
        return found
    return [(module, attr, original)
            for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == "repro"
            and module.__dict__.get(attr) is original]


class LayerTracer:
    """Installs the wrappers; keeps the spans and counters of one phase."""

    def __init__(self):
        self.layers = [name for name, _ in LAYERS]
        self._patched = []
        self.reset()

    def reset(self):
        """Start a new phase: drop the spans and counters recorded so far."""
        #: ``[layer index, start s, end s, parent span index or -1]``.
        self.spans = []
        self._stack = [-1]
        self.materialized = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_started = None

    # -- install / uninstall --------------------------------------------------

    def install(self):
        for index, (_, targets) in enumerate(LAYERS):
            for module_name, qualname in targets:
                for owner, attr, original in _sites(
                        *_resolve(module_name, qualname)):
                    self._patch(owner, attr, original,
                                self._timed(original, index))
        owner, attr, original = _resolve(*MATERIALIZE)
        self._patch(owner, attr, original, self._counted(original))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _timed(self, fn, layer):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = [layer, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _counted(self, fn):
        tracer = self

        def wrapper(records):
            builds = records._rows is None
            rows = fn(records)
            if builds:
                tracer.materialized += len(rows)
            return rows

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- results --------------------------------------------------------------

    def totals(self):
        """``{layer: (calls, inclusive s, self s)}`` over the phase."""
        out = {name: (0, 0.0, 0.0) for name in self.layers}
        if not self.spans:
            return out
        rows = np.asarray(self.spans, dtype=np.float64)
        layer = rows[:, 0].astype(np.int64)
        dur = rows[:, 2] - rows[:, 1]
        parent = rows[:, 3].astype(np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(rows))
        self_s = dur - children
        n = len(self.layers)
        calls = np.bincount(layer, minlength=n)
        inclusive = np.bincount(layer, weights=dur, minlength=n)
        own = np.bincount(layer, weights=self_s, minlength=n)
        for i, name in enumerate(self.layers):
            out[name] = (int(calls[i]), float(inclusive[i]), float(own[i]))
        return out

    def write(self, path, phases):
        """Write named phases' spans as JSON: ``{phase: [span, ...]}``.

        A span is ``[layer, start s, end s, parent]``, its parent the
        index of the enclosing span in the same phase, or -1.
        """
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": self.layers,
                       "phases": {name: spans
                                  for name, spans in phases.items()}},
                      handle)
