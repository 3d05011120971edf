"""Per-layer tracing of groupage from outside the library.

Every public function of the six modules is wrapped, and every name that
refers to it is patched: the defining module, modules that imported the name
(``optimize.validate_config``, ``cli.optimal_group_size_updating``) and the
package namespace. Module attributes reached through an imported module
(``cli.sim.simulate_cycles``) pick up the patch of the defining module.

A wrapped call is a span. The sweep workload makes millions of inner calls,
so spans are folded into per-function totals as they close: calls, self time
(the span minus the spans it caused) and errors. Busy time of a layer or of a
named group of functions comes from a depth counter, so a nested call within
the group is counted once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc

MODULES = ("model", "analytic", "lambertw", "optimize", "sim", "cli")

# Named groups of functions whose busy time is reported on its own.
GROUPS = {
    "sim.stream_s": ("sim.simulate_age",),
    "sim.sample_s": ("sim.simulate_cycles",),
    "sim.estimate_s": ("sim.empirical_average_age",),
    "sim.moments_s": ("sim.empirical_moments",),
    "analytic.closed_form_s": (
        "analytic.expected_cycle_length",
        "analytic.cycle_length_second_moment",
        "analytic.expected_source_service",
        "analytic.mean_service_time",
        "analytic.average_age",
        "analytic.round_robin_age",
        "analytic.closed_form_moments",
    ),
    "analytic.convolution_s": ("analytic.convolution_oracle",),
    "analytic.enumeration_s": ("analytic.enumeration_oracle",),
    "model.divisors_s": ("model.divisors",),
}
SOURCE_CYCLE_FUNCTIONS = ("sim.simulate_age", "sim.simulate_cycles")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in report order."""
    units = {}
    for module in MODULES:
        units.update({f"{module}.calls": "count", f"{module}.busy_s": "s",
                      f"{module}.self_s": "s", f"{module}.errors": "count"})
    units.update({name: "s" for name in GROUPS})
    units.update({
        "sim.source_cycles_per_busy_s": "1/s",
        "sim.peak_mb": "MB",
        "model.validate_config_calls": "count",
        "optimize.evals_per_call": "count",
        "cli.bytes_out": "bytes",
        "trace.overhead_s": "s",
    })
    return units


class Group:
    """Busy time of a set of functions: from the first entry until the depth returns to zero."""

    __slots__ = ("depth", "start", "busy", "entries", "track_memory", "peak_bytes")

    def __init__(self, track_memory: bool = False):
        self.depth = 0
        self.start = 0.0
        self.busy = 0.0
        self.entries = 0
        self.track_memory = track_memory
        self.peak_bytes = 0


class FunctionStats:
    """Folded spans of one function."""

    __slots__ = ("name", "calls", "self_s", "errors", "groups", "inside", "calls_inside", "exit_code_errors")

    def __init__(self, name: str, groups: list[Group]):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.groups = groups
        self.inside: Group | None = None  # count calls made while this group is busy
        self.calls_inside = 0
        self.exit_code_errors = False  # a nonzero int result also counts as an error


class Tracer:
    """Span stack plus per-function and per-group totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list[float]] = []  # [start, time covered by child spans]
        self.groups = {name: Group(track_memory=name == "sim") for name in MODULES}
        self.groups.update({name: Group() for name in GROUPS})
        self.functions: dict[str, FunctionStats] = {}
        self.source_cycles = 0

    def stats(self, name: str) -> FunctionStats:
        """Totals for "module.function", created on first use."""
        if name not in self.functions:
            module = name.split(".")[0]
            groups = [self.groups[module]] + [self.groups[g] for g, members in GROUPS.items() if name in members]
            self.functions[name] = FunctionStats(name, groups)
        return self.functions[name]

    def enter(self, stats: FunctionStats) -> None:
        now = self.clock()
        for group in stats.groups:
            if group.depth == 0:
                group.entries += 1
                group.start = now
                if group.track_memory:
                    tracemalloc.start()
            group.depth += 1
        if stats.inside is not None and stats.inside.depth:
            stats.calls_inside += 1
        self.stack.append([now, 0.0])

    def exit(self, stats: FunctionStats, failed: bool) -> None:
        now = self.clock()
        start, covered = self.stack.pop()
        duration = now - start
        stats.calls += 1
        stats.self_s += duration - covered
        stats.errors += failed
        if self.stack:
            self.stack[-1][1] += duration
        for group in stats.groups:
            group.depth -= 1
            if group.depth == 0:
                group.busy += now - group.start
                if group.track_memory:
                    group.peak_bytes = max(group.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

    def wrap(self, name: str, fn):
        stats = self.stats(name)
        signature = inspect.signature(fn) if name in SOURCE_CYCLE_FUNCTIONS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.source_cycles += bound["config"].n * bound["num_cycles"]
            self.enter(stats)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = stats.exit_code_errors and result != 0
                return result
            finally:
                self.exit(stats, failed)

        return traced

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass; cli.bytes_out and trace.overhead_s come from the caller."""
        values = {}
        for module in MODULES:
            members = [s for s in self.functions.values() if s.name.split(".")[0] == module]
            values[f"{module}.calls"] = sum(s.calls for s in members) / passes
            values[f"{module}.busy_s"] = self.groups[module].busy / passes
            values[f"{module}.self_s"] = sum(s.self_s for s in members) / passes
            values[f"{module}.errors"] = sum(s.errors for s in members) / passes
        values.update({name: self.groups[name].busy / passes for name in GROUPS})
        sim_busy = self.groups["sim"].busy
        values["sim.source_cycles_per_busy_s"] = self.source_cycles / sim_busy if sim_busy else 0.0
        values["sim.peak_mb"] = self.groups["sim"].peak_bytes / 2**20
        values["model.validate_config_calls"] = self.stats("model.validate_config").calls / passes
        optimizer_calls = self.groups["optimize"].entries
        evals = self.stats("model.validate_config").calls_inside
        values["optimize.evals_per_call"] = evals / optimizer_calls if optimizer_calls else 0.0
        return values


def public_functions() -> dict:
    """Map each public function of the six modules to its "module.function" name."""
    found = {}
    for module in MODULES:
        mod = importlib.import_module(f"groupage.{module}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                found[obj] = f"{module}.{name}"
    return found


class Instrumentation:
    """Wrappers for every public function, installed only inside ``active()``."""

    def __init__(self, tracer: Tracer):
        functions = public_functions()
        self.wrappers = {fn: tracer.wrap(name, fn) for fn, name in functions.items()}
        tracer.stats("model.validate_config").inside = tracer.groups["optimize"]
        tracer.stats("cli.main").exit_code_errors = True
        namespaces = [importlib.import_module("groupage")]
        namespaces += [importlib.import_module(f"groupage.{module}") for module in MODULES]
        self.patches = [
            (namespace, attr, value)
            for namespace in namespaces
            for attr, value in vars(namespace).items()
            if inspect.isfunction(value) and value in self.wrappers
        ]

    @contextlib.contextmanager
    def active(self):
        for namespace, attr, original in self.patches:
            setattr(namespace, attr, self.wrappers[original])
        try:
            yield
        finally:
            for namespace, attr, original in self.patches:
                setattr(namespace, attr, original)
