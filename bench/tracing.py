"""Per-function spans around spinotto's public functions, installed from outside.

The package binds names across modules with `from .x import f`, so wrapping a
function only where it is defined would miss every call made through another
module's binding. `Tracer.install` therefore rebinds *every* attribute of
every loaded spinotto module that refers to a wrapped original. A reference
held anywhere else would escape; run.py's expected call counts catch that.

Each wrapper counts calls and inclusive time; time spent in wrapped callees
is subtracted to give self time. Spans nest on one stack, so tracing is
meaningful only for serial runs (a process pool's children would lose them).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("linalg", "engine", "diagnostics", "multicycle", "output", "scenario", "validate", "cli")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}  # key -> [calls, inclusive s, wrapped-children s]
        self._stack: list[float] = []

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += stack.pop()
                if stack:
                    stack[-1] += dt

        return span

    def install(self) -> None:
        """Wrap every public function defined in the LAYERS modules."""
        modules = [importlib.import_module(f"spinotto.{name}") for name in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        loaded = [m for name, m in sys.modules.items() if name == "spinotto" or name.startswith("spinotto.")]
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def snapshot(self) -> dict[str, list[float]]:
        """{'layer.function': [calls, incl_s, self_s]} for every wrapped function."""
        return {k: [int(c), incl, incl - child] for k, (c, incl, child) in self.stats.items()}
