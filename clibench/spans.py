"""Spans and counts around every public gausstat function, recorded from outside.

``Tracer.install`` rebinds each public function of each gausstat module at
every name a gausstat module binds it to, so calls inside a module and calls
across modules both pass through a wrapper.  A span is
``[name, start, end, parent, operation]`` with ``parent`` the index of the
enclosing span (-1 at the top) and ``operation`` the index of the CLI call
that caused it.  Spans stay in memory until the run ends.

``states.g3_value`` is left unwrapped: ``g3_tensor`` calls it once per entry,
so its time is part of ``g3_tensor``'s self time, reported together with the
number of entries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("words", "states", "fock", "phases", "classify", "recon_single",
           "recon_multi", "bucket", "serialize", "cli")
UNWRAPPED = {"states.g3_value"}

# (name, unit) of every per-layer metric, in the order the run prints them;
# times and counts are per operation of the workload
LAYER_METRICS = [
    ("import.scipy_ms", "ms"),
    ("import.gausstat_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("serialize.self_ms", "ms"),
    ("states.g3_tensor.self_ms", "ms"),
    ("states.g3_tensor.entries", "count"),
    ("states.derive_moments.self_ms", "ms"),
    ("states.g2_tensor.self_ms", "ms"),
    ("states.mode_vacuum_probability.self_ms", "ms"),
    ("bucket.bucket_correlations.self_ms", "ms"),
    ("classify.synthesize_measurements.self_ms", "ms"),
    ("classify.classify_multimode.self_ms", "ms"),
    ("classify.classify_single_mode.self_ms", "ms"),
    ("classify.displaced_squeezed_feasibility.self_ms", "ms"),
    ("phases.solve_covariance_phases.self_ms", "ms"),
    ("phases.solve_covariance_phases.solutions", "count"),
    ("phases.solve_displacement_phases.self_ms", "ms"),
    ("phases.solve_displacement_phases.solutions", "count"),
    ("recon_multi.measurement_residual.calls", "count"),
    ("recon_multi.measurement_residual.self_ms", "ms"),
    ("recon_multi.kept_per_scored", "ratio"),
    ("recon_multi.params_from_covariance.self_ms", "ms"),
    ("recon_multi.recon_displaced_squeezed_multi.self_ms", "ms"),
    ("recon_single.self_ms", "ms"),
    ("fock.build_density.self_ms.m1", "ms"),
    ("fock.build_density.self_ms.m2", "ms"),
    ("fock.build_density.self_ms.m3", "ms"),
    ("fock.moment_bruteforce.self_ms", "ms"),
    ("fock.moment_bruteforce.calls", "count"),
    ("fock.dense_mb", "MB"),
    ("words.self_ms", "ms"),
]
# module-wide self times; every other *.self_ms metric names one function
MODULE_SELF = {"cli.main.self_ms": "cli", "serialize.self_ms": "serialize",
               "recon_single.self_ms": "recon_single", "words.self_ms": "words"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.modes: dict[int, int] = {}  # build_density span -> mode count
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.operation = -1
        self.recording = False

    def install(self) -> None:
        names = {}
        mods = [importlib.import_module("gausstat")]
        for short in MODULES:
            mod = importlib.import_module(f"gausstat.{short}")
            mods.append(mod)
            for attr, obj in vars(mod).items():
                qual = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and qual not in UNWRAPPED):
                    names[obj] = qual
        wrappers = {fn: self._wrap(qual, fn) for fn, qual in names.items()}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _wrap(self, qual, fn):
        # a method _after_<module>_<function>, where defined, records the call's counts
        after = getattr(self, "_after_" + qual.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [qual, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.operation]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(index, args, result)
            return result

        return traced

    # --- counts taken at the same boundaries -------------------------------

    def _under(self, prefix) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def _after_states_g3_tensor(self, index, args, result):
        self.counts["states.g3_tensor.entries"] += len(result)

    def _after_phases_solve_covariance_phases(self, index, args, result):
        self.counts["phases.solve_covariance_phases.solutions"] += len(result)

    def _after_phases_solve_displacement_phases(self, index, args, result):
        self.counts["phases.solve_displacement_phases.solutions"] += len(result)

    def _after_recon_multi_measurement_residual(self, index, args, result):
        self.counts["recon_multi.measurement_residual.calls"] += 1
        if self._under("recon_multi.recon_"):
            self.counts["scored"] += 1

    def _kept(self, result):
        # the outermost reconstruction's kept solutions: primary plus listed copies
        if not self._under("recon_multi.recon_"):
            self.counts["kept"] += 1 + len(result.ambiguity.discrete_solutions)

    def _after_recon_multi_recon_displaced_thermal_multi(self, index, args, result):
        self._kept(result)

    def _after_recon_multi_recon_squeezed_thermal_multi(self, index, args, result):
        self._kept(result)

    def _after_recon_multi_recon_displaced_squeezed_multi(self, index, args, result):
        self._kept(result)

    def _after_fock_build_density(self, index, args, result):
        self.modes[index] = result.modes
        self.counts["dense_mb"] += (result.dim ** result.modes) ** 2 * 16 / 1e6
        self.counts["densities"] += 1

    def _after_fock_moment_bruteforce(self, index, args, result):
        self.counts["fock.moment_bruteforce.calls"] += 1

    # --- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Every layer metric except the import times, per operation."""
        self_s = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        by_name = defaultdict(float)
        by_module = defaultdict(float)
        by_modes = defaultdict(float)
        for index, (span, own) in enumerate(zip(self.spans, self_s)):
            by_name[span[0]] += own
            by_module[span[0].split(".")[0]] += own
            if index in self.modes:
                by_modes[self.modes[index]] += own
        out = {}
        for name, unit in LAYER_METRICS:
            if name.startswith("import."):
                continue
            if name in MODULE_SELF:
                value = 1e3 * by_module[MODULE_SELF[name]] / operations
            elif name.startswith("fock.build_density.self_ms.m"):
                value = 1e3 * by_modes[int(name[-1])] / operations
            elif name.endswith(".self_ms"):
                value = 1e3 * by_name[name[: -len(".self_ms")]] / operations
            elif name == "recon_multi.kept_per_scored":
                value = self.counts["kept"] / self.counts["scored"] if self.counts["scored"] else 0.0
            elif name == "fock.dense_mb":
                value = (self.counts["dense_mb"] / self.counts["densities"]
                         if self.counts["densities"] else 0.0)
            else:
                value = self.counts[name] / operations
            out[name] = value
        return out
