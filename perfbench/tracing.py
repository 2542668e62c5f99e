"""Outside-in tracing of fracadrc's layers.

The tracer replaces public functions and methods of the package with timing
wrappers while it is installed, and restores them on removal.  Nothing in
`src/` is modified on disk.  Per call it aggregates count, total time and
child time per (layer, parent) pair in memory, because a 16 s simulation
makes about 10**6 wrapped calls; full spans (name, start, end, parent) are
kept only for the coarse calls listed in COARSE.

A layer's self time is its total time minus the time of the wrapped calls
made inside it.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, owner, attribute, layer name).  owner None means a module-level
# function, which is patched in every fracadrc namespace that binds it.
TARGETS = (
    ("fracadrc.fracops", "GLOperator", "tail_sum", "fracops.tail_sum"),
    ("fracadrc.plant", "FracPlant", "step", "plant.step"),
    # Ieso/Feso.loop_step are aliases of step bound at class creation, so
    # the alias itself is wrapped; Ifeso reaches tail_sum via GLOperator.apply
    ("fracadrc.observers", "Ieso", "loop_step", "observers.loop_step"),
    ("fracadrc.observers", "Feso", "loop_step", "observers.loop_step"),
    ("fracadrc.observers", "Ifeso", "loop_step", "observers.loop_step"),
    ("fracadrc.control", None, "run_closed_loop", "control.loop"),
    ("fracadrc.control", "Trajectory", "to_csv", "control.to_csv"),
    ("fracadrc.control", "Trajectory", "from_csv", "control.from_csv"),
    ("fracadrc.stability", None, "rationalize_order", "stability.rationalize"),
    ("fracadrc.stability", None, "build_char_poly", "stability.build_char_poly"),
    ("fracadrc.stability", None, "sector_test", "stability.sector_test"),
    ("fracadrc.stability", None, "poly_roots", "stability.poly_roots"),
    ("fracadrc.freqdom", None, "mse_io", "freqdom.curves"),
    ("fracadrc.freqdom", None, "mse_ifio", "freqdom.curves"),
    ("fracadrc.freqdom", None, "bode", "freqdom.curves"),
    ("fracadrc.freqdom", None, "write_mse_csv", "freqdom.write_csv"),
    ("fracadrc.freqdom", None, "write_bode_csv", "freqdom.write_csv"),
    ("fracadrc.experiments", None, "run_experiment", "experiments.run_experiment"),
    ("fracadrc.experiments", None, "summarize", "experiments.summarize"),
    ("fracadrc.experiments", None, "step_metrics", "experiments.step_metrics"),
    ("fracadrc.cli", None, "main", "cli.main"),
)

COARSE = frozenset({"cli.main", "experiments.run_experiment",
                    "experiments.summarize", "control.loop"})


class Tracer:
    """Install with `install()`, remove with `uninstall()`; read `stats`,
    `counters` and `spans` afterwards."""

    def __init__(self):
        # (layer, parent layer or None) -> [calls, total_s, child_s]
        self.stats: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, layer: str, fn, after=None):
        stats = self.stats
        stack = self._stack
        spans = self.spans if layer in COARSE else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                result = exc
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                parent = stack[-1] if stack else None
                key = (layer, parent[0] if parent else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += frame[1]
                if parent is not None:
                    parent[1] += dt
                if spans is not None:
                    spans.append((layer, t0, t1, key[1]))
                if after is not None:
                    after(args, result)
            return result

        return wrapper

    # per-layer counters that need the call's arguments or result

    def _after_tail_sum(self, args, result):
        # runs once per tail_sum call, so it skips the count() indirection
        gl = args[0]
        m = gl.size
        if gl.memory_len is not None:
            m = min(m, gl.memory_len - 1)
        self.counters["fracops.tail_sum.macs"] = \
            self.counters.get("fracops.tail_sum.macs", 0) + m

    def _after_loop(self, args, result):
        from fracadrc.control import SimulationDiverged
        self.count("control.runs")
        if isinstance(result, SimulationDiverged):
            self.count("control.diverged")
            self.count("control.steps", result.step_index + 1)
        elif not isinstance(result, BaseException):
            self.count("control.steps", len(result))

    def _after_to_csv(self, args, result):
        if not isinstance(result, BaseException):
            self.count("control.to_csv.bytes", os.path.getsize(args[1]))

    def _after_from_csv(self, args, result):
        if not isinstance(result, BaseException):
            self.count("control.from_csv.bytes", os.path.getsize(args[1]))

    def _after_sector_test(self, args, result):
        if isinstance(result, BaseException):
            return
        degree = int(result.degree)
        if degree > self.counters.get("stability.degree_max", 0):
            self.counters["stability.degree_max"] = degree
        if not result.stable:
            self.count("stability.gated_out")

    def install(self) -> None:
        after = {"fracops.tail_sum": self._after_tail_sum,
                 "control.loop": self._after_loop,
                 "control.to_csv": self._after_to_csv,
                 "control.from_csv": self._after_from_csv,
                 "stability.sector_test": self._after_sector_test}
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "fracadrc" or name.startswith("fracadrc."))
                   and m is not None]
        for modname, owner, attr, layer in TARGETS:
            module = sys.modules[modname]
            hook = after.get(layer)
            if owner is None:
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original, hook)
                # experiments and cli bind these names at import time
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, name, wrapper)
                continue
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__, hook))
            else:
                wrapped = self._wrap(layer, raw, hook)
            self._set(cls, attr, wrapped)

    def _set(self, target, name: str, value) -> None:
        original = target.__dict__[name] if isinstance(target, type) \
            else getattr(target, name)
        self._patched.append((target, name, original))
        setattr(target, name, value)

    def uninstall(self) -> None:
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    def self_seconds(self, layer: str) -> float:
        return sum(total - child for (name, _), (_, total, child)
                   in self.stats.items() if name == layer)

    def calls(self, layer: str) -> int:
        return sum(entry[0] for (name, _), entry in self.stats.items()
                   if name == layer)
