#!/usr/bin/env python3
"""Run every workload untraced and traced, each in a fresh process, and print one report.

    python3 perfbench/report.py [--seed N]

For each workload it prints the run metadata, the eight end-to-end metrics
with units and sample counts, the labels of failed ops, and the per-layer
metrics of the traced run, including the tracing overhead. Exits 1 if a run
fails or finds incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("mc-stream", "sweep", "validate")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """(meta, report, result) of one run.py process at its default run length; prints the ops it found wrong."""
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    completed = subprocess.run(command, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.splitlines()
    for line in lines:
        if line.startswith("wrong: "):
            print(f"   {line}")
    tagged = {line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in lines if line.startswith(("meta: ", "report: "))}
    return json.loads(tagged["meta"]), json.loads(tagged["report"]), json.loads(lines[-1])


def print_workload(workload: str, seed: int) -> bool:
    meta, report, result = run(workload, seed, 0)
    print(f"== {workload}  seed={meta['seed']} commit={meta['commit'][:12]} nproc={meta['nproc']} "
          f"cpu={meta['cpu_model']!r} python={meta['python']} numpy={meta['numpy']}")
    samples = report["samples"]
    print(f"   {samples['ops']} ops in {samples['passes']} passes of {meta['ops_per_pass']}; "
          f"setup from {meta['setup_probes']} fresh processes")
    for name, metric in report["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {name:22s} {shown:>14s} {metric['unit']}")
    print(f"   timings are in reference seconds; measured: wall_s {samples['measured_wall_s']:.6g} s, "
          f"setup_s {samples['measured_setup_s']:.6g} s")
    failures = ", ".join(f"{label}={count}" for label, count in sorted(report["failures"].items())) or "none"
    print(f"   failed ops per pass by first failing leg: {failures}")
    if report["se3_misses"] is not None:
        print(f"   estimates beyond 3 SE (not failures): {report['se3_misses']}")
    ok = result["correct"]

    _, traced_report, traced = run(workload, seed, 1)
    ok = ok and traced["correct"]
    print(f"   -- traced run ({traced_report['samples']['traced_passes']} traced passes), per pass:")
    for name, metric in traced["metrics"].items():
        print(f"   {name:30s} {metric['value']:>14.6g} {metric['unit']}")
    if not ok:
        print("   INCORRECT OUTPUT: see the 'wrong:' lines above")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        ok = print_workload(workload, args.seed) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
