"""Traced mode: spans around every public twinspace function.

The tracer wraps, from outside the package, each public module-level
function, each public class constructor and each public classmethod of the
seven twinspace modules, and replaces the attribute on every ``twinspace.*``
module (and the package namespace) that holds the original object.  A span
records the callee, its start and end (``time.perf_counter``), the index of
the enclosing span and an optional work count (trials, samples, starts).
Spans stay in memory until the run ends.

Self time of a span is its duration minus the durations of its direct
children; a module's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from enum import Enum

LAYERS = ("core", "measurement", "structure", "distinguish", "montecarlo",
          "workspace", "cli")

CLI_COMMANDS = ("abl", "story", "find-story", "distinguish", "reproduce",
                "feasibility", "nullspace", "validate")

# Seconds to each time unit a per-function metric is given in.
UNIT_SCALE = {"ms": 1e3, "us": 1e6, "ns": 1e9}

# Per-function metrics: (stem, suffix, span name, unit, per work).
# The metric ``stem + suffix`` is inclusive time per call, or per unit of
# work (trials, samples, starts) when ``per work`` is set, in ``unit``;
# ``stem + "_calls"`` is the call count.
FUNCTION_METRICS = [
    ("core.two_state_vector", "_us", "core.TwoStateVector", "us", False),
    ("core.schmidt", "_us", "core.schmidt", "us", False),
    ("measurement.random_measurement", "_us",
     "measurement.random_measurement", "us", False),
    ("measurement.validate_measurement", "_us",
     "measurement.validate_measurement", "us", False),
    ("measurement.abl", "_us", "measurement.abl_probabilities", "us", False),
    ("measurement.forms_story", "_us", "measurement.forms_story", "us", False),
    ("measurement.random_measurement_d64", "_ms",
     "measurement.random_measurement@64", "ms", False),
    ("structure.find_story", "_us",
     "structure.find_story_measurement", "us", False),
    ("structure.null_subspace", "_ms", "structure.null_subspace", "ms", False),
    ("structure.membership", "_ms", "structure.membership_in_null", "ms", False),
    ("distinguish.mixture_statistics", "_us",
     "distinguish.mixture_statistics", "us", False),
    ("distinguish.feasibility_start", "_ms",
     "distinguish.separable_feasibility", "ms", True),
    ("distinguish.scan", "_ns_per_sample",
     "distinguish.scan_separable_residual", "ns", True),
    ("distinguish.reduce", "_us", "distinguish.reduce_qutrit_family", "us", False),
    ("montecarlo.simulate", "_ns_per_trial", "montecarlo.simulate", "ns", True),
    ("montecarlo.mixture", "_ns_per_trial",
     "montecarlo.simulate_mixture", "ns", True),
    ("workspace.loads", "_ms", "workspace.Workspace.loads", "ms", False),
    ("workspace.validate_file", "_ms",
     "workspace.validate_workspace_file", "ms", False),
] + [
    (f"cli.{cmd.replace('-', '_')}", "_ms", f"cli.main:{cmd}", "ms", False)
    for cmd in CLI_COMMANDS
]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit)."""
    out = []
    for stem, suffix, _, unit, _ in FUNCTION_METRICS:
        out.append((stem + suffix, unit))
        out.append((stem + "_calls", "count"))
    for layer in LAYERS:
        out.append((f"{layer}.self_ms", "ms"))
        out.append((f"{layer}.calls", "count"))
    out.append(("trace.overhead_ms", "ms"))
    return out


# Work counts for the per-unit metrics, read from the call's arguments.
def _work_trials(exp, *_, **__):
    return exp.trials


def _work_samples(_sys, samples, *_, **__):
    return samples


def _work_starts(_sys, starts, *_, **__):
    return starts


_WORK = {
    "montecarlo.simulate": _work_trials,
    "montecarlo.simulate_mixture": _work_trials,
    "distinguish.scan_separable_residual": _work_samples,
    "distinguish.separable_feasibility": _work_starts,
}


class Tracer:
    """Installs span-recording wrappers and aggregates their spans."""

    def __init__(self):
        self.spans: list = []       # (name, start, end, parent, work)
        self._stack: list[int] = []
        self._patches: list = []    # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, rename=None):
        work_of = _WORK.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = rename(args, kwargs) if rename else name
            work = work_of(*args, **kwargs) if work_of else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, work)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import twinspace

        modules = [sys.modules[f"twinspace.{layer}"] for layer in LAYERS]
        holders = [twinspace] + [m for k, m in sorted(sys.modules.items())
                                 if k.startswith("twinspace.")]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if callable(obj) and not inspect.isclass(obj):
                    # functions, and lru_cache wrappers like builtin_workspace
                    wrapped = self._wrap(f"{layer}.{attr}", obj,
                                         self._renamer(layer, attr))
                    for holder in holders:
                        if vars(holder).get(attr) is obj:
                            self._patch(holder, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(
                        obj, (Enum, BaseException)):
                    self._wrap_class(layer, obj)

    @staticmethod
    def _renamer(layer, attr):
        if layer == "cli" and attr == "main":
            return lambda args, kwargs: "cli.main:" + (
                args[0] if args else kwargs["argv"])[0]
        if layer == "measurement" and attr == "random_measurement":
            return lambda args, kwargs: (
                "measurement.random_measurement@64"
                if (args[0] if args else kwargs["dim"]) == 64
                else "measurement.random_measurement")
        return None

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                self._patch(cls, attr, self._wrap(f"{layer}.{cls.__name__}", raw))
            elif not attr.startswith("_") and isinstance(raw, classmethod):
                wrapped = self._wrap(f"{layer}.{cls.__name__}.{attr}",
                                     raw.__func__)
                self._patch(cls, attr, classmethod(wrapped))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name inclusive time, calls, work and self time, and per-layer
        self time and calls, over every recorded span."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, list] = {}
        by_layer = {layer: [0.0, 0] for layer in LAYERS}
        for i, (name, start, end, _, work) in enumerate(spans):
            own = end - start - child_time[i]
            entry = by_name.setdefault(name, [0.0, 0, 0, 0.0])
            entry[0] += end - start
            entry[1] += 1
            entry[2] += work or 0
            entry[3] += own
            layer = by_layer[name.split(".", 1)[0]]
            layer[0] += own
            layer[1] += 1
        return {"functions": by_name, "layers": by_layer}
