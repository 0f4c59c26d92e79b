"""Layer tracer: wraps the public functions of each lindosc module from outside.

A wrapper is installed at every module attribute that is bound to a traced
function, including names copied into sibling modules by ``from ... import``
and the re-exports in ``lindosc/__init__.py``, so a call is seen whichever
binding it goes through.  ``uninstall`` puts every original binding back.

A span is recorded only where a call enters a layer from another layer (or
from the benchmark), plus the named cli stage functions.  Calls that stay
inside one layer are counted but not timed, which keeps the tracing cost of
the per-sample paths bounded.  Self time of a layer is the time spent in its
spans minus the time of the spans opened directly inside them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("model", "propagator", "phasespace", "entropy", "purity", "cli")

# Private cli functions traced as stages of a command.
EMIT_STAGES = ("_emit",)
BUILD_STAGES = (
    "_load_config", "build_oscillator", "build_diffusion",
    "build_initial_state", "build_times",
)


def _result_points(result) -> int:
    """Points a phasespace call evaluated: the size of the array it returns."""
    values = getattr(result, "values", result)
    return int(getattr(values, "size", 1))


class OpStats:
    """What the tracer saw during one operation."""

    def __init__(self):
        self.calls = Counter()        # layer entries
        self.self_s = Counter()       # layer self time
        self.func_calls = Counter()   # every call of every traced function
        self.emit_s = 0.0
        self.build_s = 0.0
        self.points = 0
        self.states_built = 0


class Tracer:
    """Installs wrappers around the public functions of the lindosc layers."""

    def __init__(self):
        self._bindings = []           # (module, name, original) replaced
        self._stack = [[None, 0.0]]   # open spans: [layer, time of direct children]
        self.stats = OpStats()
        self.op_id = 0
        self.spans = []               # (op, depth, function, start, end)
        self.recording = False

    # -- installation ----------------------------------------------------

    def _targets(self):
        """{id(original): (layer, qualified name, original)} of traced functions."""
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lindosc.{layer}")
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in EMIT_STAGES + BUILD_STAGES:
                    continue
                targets[id(obj)] = (layer, f"{layer}.{name}", obj)
        return targets

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {
            key: self._wrap(layer, qualname, original)
            for key, (layer, qualname, original) in self._targets().items()
        }
        for modname, module in list(sys.modules.items()):
            if modname != "lindosc" and not modname.startswith("lindosc."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bindings.append((module, name, obj))
                    setattr(module, name, wrapper)
        state_cls = sys.modules["lindosc.propagator"].GaussianState
        self._bindings.append((state_cls, "__post_init__", state_cls.__post_init__))
        state_cls.__post_init__ = self._count_states(state_cls.__post_init__)

    def uninstall(self) -> None:
        while self._bindings:
            owner, name, original = self._bindings.pop()
            setattr(owner, name, original)

    # -- recording -------------------------------------------------------

    def begin(self, record_spans: bool = False) -> None:
        """Start new stats, for one operation; spans are kept only while recording."""
        self.stats = OpStats()
        self.recording = record_spans

    def _count_states(self, original):
        def post_init(state):
            self.stats.states_built += 1
            original(state)
        return post_init

    def _wrap(self, layer, qualname, original):
        stack = self._stack
        emit = qualname == "cli._emit"
        stage = emit or qualname.split(".", 1)[1] in BUILD_STAGES

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stats = self.stats
            stats.func_calls[qualname] += 1
            parent = stack[-1]
            if parent[0] == layer and not stage:
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                span = end - start
                parent[1] += span
                stats.self_s[layer] += span - frame[1]
                if parent[0] != layer:
                    stats.calls[layer] += 1
                    if layer == "phasespace":
                        stats.points += _result_points(result)
                if emit:
                    stats.emit_s += span
                elif stage:
                    stats.build_s += span
                if self.recording:
                    self.spans.append((self.op_id, len(stack), qualname, start, end))

        return traced
