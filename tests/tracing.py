"""Traced memory peaks: warm, in the calling process, or cold, in a fresh interpreter.

A warm process can trace less than a fresh one, whose first calls still make
their one-time allocations: simulate_age at m = 1, k = 1 664 509 traced
1.0 MiB in a fresh interpreter and 0.00 MiB after other runs. cold_traced
measures what a fresh interpreter does.

Run as a script, this module is the cold side:
python tests/tracing.py '[["groupage", "validate --n 20 ..."], ["simulate_age", [n, p, k, cycles, seed]]]'
runs each call in order, each under its own tracemalloc, and prints a JSON
list of [traced peak in bytes, exit code (None for a library call), stdout].
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import groupage
from groupage import cli

SRC = Path(__file__).resolve().parent.parent / "src"


def traced_peak(function, *args):
    """function(*args) under tracemalloc in this process: (its result, the traced peak in bytes)."""
    tracemalloc.start()
    try:
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cold_traced(calls: list, timeout: float = 300.0) -> list:
    """Run calls, each [name, args], in one fresh interpreter with src/ on its path; their records.

    A child that runs past timeout seconds (each step takes a few seconds) is
    killed, and the check fails with what it wrote to stderr.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, __file__, json.dumps(calls)]
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as hung:  # its stderr so far, in bytes on POSIX
        stderr = hung.stderr.decode(errors="replace") if isinstance(hung.stderr, bytes) else hung.stderr
        raise AssertionError(f"no records after {timeout} s; stderr: {stderr}") from None
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _call(name: str, args):
    # "groupage" runs the CLI on a command line and gives its exit code; any other
    # name is a groupage function of validate_config(n, p, k) and its further arguments
    if name == "groupage":
        return cli.main(args.split())
    n, p, k, *rest = args
    getattr(groupage, name)(groupage.validate_config(n, p, k), *rest)
    return None


def _main(calls: list) -> None:
    records = []
    for name, args in calls:
        tracemalloc.start()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = _call(name, args)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        records.append([peak, code, out.getvalue()])
    print(json.dumps(records))


if __name__ == "__main__":
    _main(json.loads(sys.argv[1]))
