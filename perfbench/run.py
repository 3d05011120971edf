#!/usr/bin/env python3
"""groupage benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload {mc-stream,sweep,validate} --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``. The
workload's op list is built from ``--seed`` and run back to back (a closed
loop, one caller) in passes until the op latencies add up to ``--seconds``,
with at least one whole pass; the last pass stops where the time runs out.
Per-op latency covers only the call into groupage; each op's latency is its
median over the passes, ``wall_s`` is the sum of those and the percentiles
are taken over ops.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median over
fresh child processes of the time from spawn to ready (imports, op list, one
warm-up op). Their timings are in reference seconds, scaled by a calibration
loop run alongside (see CALIBRATION_REFERENCE_S). ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, in measured seconds; ``trace.overhead_s`` is the median traced pass
minus the median untraced pass.

Output: a ``meta:`` line (commit, seed, machine, versions, op and pass
counts), a ``report:`` line with every metric and failure labels, and, last,
the result object ``{"correct", "attempted", "failed", "metrics"}``.
Exit status is 0 whenever the run completed, even with failed ops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter
from pathlib import Path

# One thread per process: numpy's BLAS must not start a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15

# On a shared machine the CPU's speed swings by up to 2x over seconds to
# minutes as other tenants load its cores, and pure interpreter work, such as
# sweep's, swings most. So every timing in the end-to-end metrics is in
# reference seconds: the measured seconds times CALIBRATION_REFERENCE_S over
# the median time of a fixed calibration loop, run alongside, that calls no
# groupage code. A change to groupage moves the timings as before; a change
# in the machine's speed moves the calibration too and cancels out. The
# measured seconds are printed in the report line.
CALIBRATION_REFERENCE_S = 5e-4
CALIBRATION_INTERVAL_S = 0.02  # op time between two calibrations in a pass
_CALIBRATION_ARRAY = numpy.arange(64, dtype=numpy.float64)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Reported alongside, but not in BENCHMARK.json: fail_frac is 0 on two
# workloads and source_cycles_per_s is undefined on sweep.
REPORT_ONLY = {"source_cycles_per_s": "1/s", "fail_frac": "ratio"}


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def fail_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no ops attempted")
    return failed / attempted


def import_library():
    """Import groupage from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import groupage

    if Path(groupage.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"groupage was imported from {groupage.__file__}, not from {src}")
    return groupage


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small numpy work; it calls no groupage code."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(3000):
        total += i * i % 7
    for i in range(300):
        table[i] = (i, float(i))
        _CALIBRATION_ARRAY[:32].argmin()
    return time.perf_counter() - start


def reference_scale(calibrations) -> float:
    """Factor from measured to reference seconds, given calibration times taken alongside."""
    return CALIBRATION_REFERENCE_S / statistics.median(calibrations)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process until it reports ready."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        if probe.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {line!r}")
    return elapsed


class Digests:
    """The digests of one pass, by op index.

    A digest of (int, float) -- sweep's 80 000 optimizer results a pass -- is
    held in two arrays, not as a tuple, so that the harness adds little to the
    run's peak RSS.
    """

    def __init__(self):
        self.where = array("q")  # >= 0: index into the arrays; < 0: -1 - index into others
        self.ints, self.floats, self.others = array("q"), array("d"), []

    def append(self, record) -> None:
        if type(record) is tuple and len(record) == 2 and type(record[0]) is int and type(record[1]) is float:
            self.where.append(len(self.ints))
            self.ints.append(record[0])
            self.floats.append(record[1])
        else:
            self.where.append(-1 - len(self.others))
            self.others.append(record)

    def __len__(self) -> int:
        return len(self.where)

    def __getitem__(self, i: int):
        at = self.where[i]
        return (self.ints[at], self.floats[at]) if at >= 0 else self.others[-1 - at]


def run_pass(workloads, ops, results_dir, reference=None, budget=math.inf):
    """Time the ops in order, once each, until their latencies add up to ``budget`` s.

    Returns the latencies in measured s, the calibration times taken between
    ops, and, on the first pass (no ``reference``), each op's digest, or for
    an op that raised, the error. Later passes compare their digests with
    ``reference`` in place and return the count that differ.
    """
    latencies, calibrations, records, mismatches = array("d"), array("d"), Digests(), 0
    clock = time.perf_counter
    spent = since_calibration = 0.0
    for i, op in enumerate(ops):
        if spent >= budget:
            break
        if i == 0 or since_calibration >= CALIBRATION_INTERVAL_S:
            calibrations.append(calibrate())
            since_calibration = 0.0
        start = clock()
        try:
            result = workloads.execute(op)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            result = exc
        latencies.append(clock() - start)
        spent += latencies[-1]
        since_calibration += latencies[-1]
        if isinstance(result, Exception):
            record = f"{type(result).__name__}: {result}"
        else:
            record = workloads.digest(op, result, results_dir)
        if reference is None:
            records.append(record)
        else:
            mismatches += record != reference[i]
    return latencies, calibrations, (records if reference is None else mismatches)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("mc-stream", "sweep", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="internal: set up, print ready, exit")
    args = parser.parse_args(argv)

    groupage = import_library()
    import workloads

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=scratch) as out_dir:
        ops = workloads.build_ops(args.workload, args.seed, out_dir)
        results_dir = ROOT / "results"
        workloads.execute(workloads.warmup_op(args.workload))
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        # The op list and the imported modules live for the whole run; frozen,
        # they drop out of the collector's scans inside the timed calls.
        gc.freeze()

        instrumentation = tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            instrumentation = spans.Instrumentation(tracer)
        walls = {False: [], True: []}
        untraced, first = [], None
        records_mismatch = 0
        # Setup probes are spread over the run in proportion to the time
        # measured, so that they sample the same stretch of machine time as
        # the passes do.
        setup = []  # (measured s, scale to reference s) per probe
        probes = 0 if args.trace else SETUP_PROBES

        def probe():
            calibrations = [calibrate() for _ in range(3)]
            elapsed = probe_setup(args.workload, args.seed)
            calibrations += [calibrate() for _ in range(3)]
            setup.append((elapsed, reference_scale(calibrations)))

        measured = 0.0
        passes = 0
        ops_run = []  # ops timed in each pass
        while passes == 0 or measured < args.seconds or (args.trace and passes < 2):
            traced = bool(args.trace) and passes % 2 == 1
            # After the first pass, an untraced run stops as soon as --seconds
            # have been measured, so the run's length does not depend on how
            # long one pass takes.
            budget = math.inf if first is None or args.trace else args.seconds - measured
            with instrumentation.active() if traced else contextlib.nullcontext():
                pass_latencies, calibrations, records = run_pass(workloads, ops, results_dir, first, budget)
            if first is None:
                first = records
            else:
                records_mismatch += records
            if len(pass_latencies) == len(ops):
                walls[traced].append(sum(pass_latencies))
            if not traced:
                untraced.append((pass_latencies, reference_scale(calibrations)))
            measured += sum(pass_latencies)
            ops_run.append(len(pass_latencies))
            passes += 1
            while len(setup) < min(probes, round(probes * measured / args.seconds)):
                probe()
        while len(setup) < probes:
            probe()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = workloads.check(args.workload, ops, first)
    wrong = sum(o.wrong for o in outcomes)
    # Every pass repeats the same seeded calls and must give the same results,
    # so an op's verdict is counted once. attempted and failed then depend on
    # the seed and the program alone, not on how many passes fitted in the run.
    attempted = len(ops)
    failed = sum(o.failed for o in outcomes)
    labels = Counter(o.label for o in outcomes if o.failed)
    # Each op's median over the untraced passes filters out passes that a
    # transient slowdown of the machine hit; wall_s is their sum. The last
    # pass may have stopped early, so ops at the head of the list can have
    # one sample more.
    matrix = numpy.full((len(untraced), len(ops)), numpy.nan)
    scales = numpy.array([scale for _, scale in untraced])
    for row, (pass_latencies, _) in zip(matrix, untraced):
        row[: len(pass_latencies)] = pass_latencies
    per_op = numpy.nanmedian(matrix * scales[:, None], axis=0)
    wall_s = float(per_op.sum())
    source_cycles = sum(op.source_cycles for op in ops)
    report = {
        "setup_s": statistics.median(elapsed * scale for elapsed, scale in setup) if setup else None,
        "wall_s": wall_s,
        "ops_per_s": len(ops) / wall_s,
        "op_p50_ms": 1e3 * percentile(per_op, 0.5),
        "op_p90_ms": 1e3 * percentile(per_op, 0.9),
        "peak_rss_mb": peak_rss_mb,
        "source_cycles_per_s": source_cycles / wall_s if source_cycles else None,
        "fail_frac": fail_frac(failed, attempted),
    }
    units = {**END_TO_END, **REPORT_ONLY}
    samples = {
        "ops": len(ops),
        "passes": len(untraced),
        "pass_scales": scales.tolist(),
        "measured_wall_s": float(numpy.nanmedian(matrix, axis=0).sum()),
        "measured_setup_s": statistics.median(elapsed for elapsed, _ in setup) if setup else None,
        "measured_pass_wall_s": walls[False],
    }
    if args.trace:
        layer = tracer.metrics(len(walls[True]))
        layer["cli.bytes_out"] = sum(workloads.bytes_out(op, r) for op, r in zip(ops, first) if not isinstance(r, str))
        layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        layer_units = spans.metric_units()
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in layer_units.items()}
        report.update(layer)
        units.update(layer_units)
        samples["traced_passes"] = len(walls[True])
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END.items()}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "groupage": groupage.__version__,
        "ops_per_pass": len(ops),
        "passes": passes,
        "op_calls": sum(ops_run),
        "setup_probes": len(setup),
    }
    print("meta: " + json.dumps(meta))
    print("report: " + json.dumps({
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in report.items()},
        "samples": samples,
        "failures": dict(labels),
        "wrong": wrong,
        "nondeterministic": records_mismatch,
        "se3_misses": workloads.se3_misses(ops, first) if args.workload == "mc-stream" else None,
    }))
    for outcome in outcomes:
        if outcome.wrong:
            print(f"wrong: {outcome.label}")
    correct = wrong == 0 and records_mismatch == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
