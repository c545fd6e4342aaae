"""Per-layer tracing installed on ``fsglab`` from outside the program.

The layers are the package's modules. The tracer wraps the public functions
that the per-layer metrics name and rebinds every module attribute that holds
one of them, because ``from .x import f`` copies the name: ``attack.read_taps``
and ``cli.gfsga_recover`` are wrapped along with the defining module.

Functions in ``SPANNED`` record one span per call (name, parent span, op
index, start, duration), kept in memory and written out at the end. The hot
kernels in ``AGGREGATED`` and the methods of the active GF(2) ``Eliminator``
run up to millions of times per pass, so they only add to a call count and
busy time. Either kind charges its duration to the enclosing span, so a span's
self time is its duration minus the time of everything traced below it.

A function that no longer exists is reported as absent: its metrics read 0
and its name is listed in ``absent``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

SPANNED = {
    "cli": ("main",),
    "config": ("load_config",),
    "report": ("emit",),
    "fixtures": ("run_fixture",),
    "optimizer": ("step_a_candidates", "step_b_best_ordering", "staged_search", "scorecard"),
    "complexity": ("optimal_constant_sigma", "gfsga_variable_cost"),
    "sampling": ("greedy_schedule", "cyclic_schedule", "repetition_profile",
                 "hybrid_window_profile"),
    "attack": ("gfsga_recover", "nfsr_window_recover", "read_keystream_file"),
    "registers": ("keystream", "preimage_table", "label_expressions"),
}
AGGREGATED = {
    "complexity": ("gfsga_constant_cost",),
    "sampling": ("constant_profile",),
    "attack": ("filtered_preimages",),
    "registers": ("read_taps", "step_register"),
}
GF2_COUNTED = ("add_row", "copy", "solve", "solutions")
# Spans kept in memory; later ones are only counted as dropped.
MAX_SPANS = 400_000

# Per-layer metrics in report order: (layer, functions, stats).
_REPORTED = (
    ("cli", ("main",), ("calls", "total_s")),
    ("config", ("load_config",), ("calls", "self_s")),
    ("report", ("emit",), ("calls", "self_s")),
    ("fixtures", ("run_fixture",), ("calls", "self_s")),
    ("optimizer", SPANNED["optimizer"], ("calls", "self_s")),
    ("complexity", ("optimal_constant_sigma", "gfsga_constant_cost", "gfsga_variable_cost"),
     ("calls", "self_s")),
    ("sampling", ("constant_profile",) + SPANNED["sampling"], ("calls", "self_s")),
    ("attack", ("gfsga_recover", "nfsr_window_recover", "filtered_preimages",
                "read_keystream_file"), ("calls", "self_s")),
    ("registers", ("keystream", "read_taps", "step_register", "preimage_table",
                   "label_expressions"), ("calls", "self_s")),
)
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}
_STAT_INDEX = {"calls": 0, "total_s": 1, "self_s": 2, "raised": 3}  # fields of a stats entry


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, funcs, stats in _REPORTED:
        for fn in funcs:
            for stat in stats:
                out[f"{layer}.{fn}.{stat}"] = _UNITS[stat]
        if layer == "sampling":
            out["sampling.constant_profile.raised"] = "count"
            out["sampling.sigma_useful_ratio"] = "ratio"
        if layer == "attack":
            out["attack.preimage_keep_ratio"] = "ratio"
            out["attack.systems_solved"] = "count"
            out["attack.candidates_pruned"] = "count"
            out["attack.prune_ratio"] = "ratio"
    for fn in GF2_COUNTED:
        out[f"gf2.{fn}.calls"] = "count"
    out["gf2.self_s"] = "s"
    out["gf2.add_row.inconsistent_ratio"] = "ratio"
    out["trace.overhead_ratio"] = "ratio"
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps fsglab's layer functions; collects spans and per-function stats."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s, raised]
        self.absent: set[str] = set()
        self.spans: list[tuple] = []  # (id, parent, op, key, start, duration)
        self.dropped = 0
        self.op = -1
        self.preimages = [0, 0]  # members scanned, members kept
        self.inconsistent = 0
        self._stack: list[list] = []  # open spans: [time of traced children, span id]
        self._next_id = 1
        self._patches: list[tuple] = []
        self._epoch = time.perf_counter()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fsglab" or name.startswith("fsglab."))]
        for table, make in ((SPANNED, self._spanned), (AGGREGATED, self._aggregated)):
            for layer, names in table.items():
                mod = self._module(layer)
                for name in names:
                    key = f"{layer}.{name}"
                    fn = getattr(mod, name, None) if mod else None
                    if not inspect.isfunction(fn):
                        self.absent.add(key)
                        continue
                    wrapper = make(key, fn)
                    for owner in modules:
                        for attr, value in list(vars(owner).items()):
                            if value is fn:
                                self._patch(owner, attr, fn, wrapper)
        self._install_gf2()

    def _module(self, layer: str):
        try:
            return importlib.import_module(f"fsglab.{layer}")
        except ImportError:
            return None

    def _install_gf2(self) -> None:
        gf2 = self._module("gf2")
        cls = getattr(gf2, "Eliminator", None) if gf2 else None
        methods = {}
        if cls is not None:
            methods = {name: fn for name, fn in vars(cls).items()
                       if not name.startswith("_") and inspect.isfunction(fn)}
        for name in GF2_COUNTED:
            if name not in methods:  # gone, or a compiled type that cannot be wrapped
                self.absent.add(f"gf2.{name}")
        inconsistent = getattr(gf2, "INCONSISTENT", None)
        for name, fn in methods.items():
            observe = self._observe_add_row(inconsistent) if name == "add_row" else None
            wrap = self._generator if inspect.isgeneratorfunction(fn) else self._aggregated
            self._patch(cls, name, fn, wrap(f"gf2.{name}", fn, observe))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def suspended(self):
        """Run untraced code (an output check) in the middle of a traced pass."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- wrappers ---------------------------------------------------------

    def _stat(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def _spanned(self, key, fn):
        stats, stack, clock, tracer = self._stat(key), self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, parent, tracer.op, key,
                                         start - tracer._epoch, dur))
                else:
                    tracer.dropped += 1

        return wrapper

    def _aggregated(self, key, fn, observe=None):
        stats, stack, clock = self._stat(key), self._stack, time.perf_counter
        if key == "attack.filtered_preimages":
            observe = self._observe_preimages

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dur = clock() - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur
                if stack:
                    stack[-1][0] += dur
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _generator(self, key, fn, observe=None):
        """Busy time of a generator is the time spent producing its items."""
        stats, stack, clock = self._stat(key), self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            items = fn(*args, **kwargs)
            while True:
                start = clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    dur = clock() - start
                    stats[1] += dur
                    stats[2] += dur
                    if stack:
                        stack[-1][0] += dur
                yield item

        return wrapper

    def _observe_preimages(self, args, result) -> None:
        self.preimages[0] += len(args[0].members)
        self.preimages[1] += len(result.members)

    def _observe_add_row(self, inconsistent):
        def observe(args, result):
            if result == inconsistent:
                self.inconsistent += 1
        return observe

    # -- results ----------------------------------------------------------

    def metrics(self, systems_solved: int, candidates_pruned: int,
                overhead_ratio: float) -> dict:
        """Per-layer metric values keyed by name (absent functions read 0)."""
        units = metric_units()
        values = {}
        for name in units:
            key, _, stat = name.rpartition(".")
            if stat in _STAT_INDEX:
                s = self.stats.get(key)
                values[name] = s[_STAT_INDEX[stat]] if s else 0
        cp = self.stats.get("sampling.constant_profile", [0, 0, 0, 0])
        add_row = self.stats.get("gf2.add_row", [0, 0, 0, 0])
        values.update({
            "sampling.sigma_useful_ratio": _ratio(cp[0] - cp[3], cp[0]),
            "attack.preimage_keep_ratio": _ratio(self.preimages[1], self.preimages[0]),
            "attack.systems_solved": systems_solved,
            "attack.candidates_pruned": candidates_pruned,
            "attack.prune_ratio": _ratio(candidates_pruned, candidates_pruned + systems_solved),
            "gf2.self_s": sum(s[2] for k, s in self.stats.items() if k.startswith("gf2.")),
            "gf2.add_row.inconsistent_ratio": _ratio(self.inconsistent, add_row[0]),
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def counts(self) -> dict:
        """The exactly repeatable part of the trace: calls and raised per function."""
        out = {f"{k}.calls": s[0] for k, s in sorted(self.stats.items())}
        out.update({f"{k}.raised": s[3] for k, s in sorted(self.stats.items())})
        out["attack.preimages.scanned"], out["attack.preimages.kept"] = self.preimages
        out["gf2.add_row.inconsistent"] = self.inconsistent
        return out

    def write_spans(self, path: str) -> None:
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "op", "name", "start_s", "duration_s"],
                "names": names,
                "dropped": self.dropped,
                "spans": [[i, p, op, index[k], round(t, 7), round(d, 7)]
                          for i, p, op, k, t, d in self.spans],
            }, fh)
