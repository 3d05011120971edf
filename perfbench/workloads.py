"""Seeded operation lists for the groupage benchmark, and the checks on their results.

A workload is a fixed list of operations built from the workload seed; one
operation is one public call into groupage (a library function, or
``groupage.cli.main`` in-process). The same seed gives the same list.

Why these workloads:

* ``mc-stream`` -- ``simulate_age`` in three shapes. ``sim`` does all the
  work, so it isolates the streaming simulator: small-m (n=4, k=2) is
  dominated by per-chunk Python overhead, the paper point (n=120, k=4) by the
  RNG draw and the ``.any`` reduction, and wide groups (n=1200, k=24) by the
  (N, m, k) arrays and peak memory.
* ``sweep`` -- the age optimizer over every n in 1..20000 at four p, the
  ``kstar-vs-p`` subcommand on a fine p grid at the highly composite n=720720
  (p on both sides of STATIONARY_P_MAX), ``updating_efficiency_threshold``, and
  the four standard ``scripts/`` argument lists. ``model``, ``analytic``,
  ``optimize``, ``lambertw`` and ``cli`` do all the work and ``sim`` none.
* ``validate`` -- ``groupage validate`` over seed-drawn (n, p, k) with p
  log-uniform on [1e-12, 0.5]. It runs the full-trace simulator path and both
  exact oracles (n <= 20 for enumeration, m up to 1e5 for the O(m) convolution
  loop). Draws are stratified so that every pass costs about the same for any
  seed; no draw is filtered, so the seed commit's known validation defects
  (k*p << 1 cancellation, zero-variance 3-SE legs) show up as failed ops.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import groupage
import groupage.cli

WORKLOADS = ("mc-stream", "sweep", "validate")

# mc-stream: (n, k, p, cycles, ops per pass). Cycle counts keep the relative
# standard error of each estimate at or below 0.2%, so the 1% check sits at
# five standard errors or more. The op counts keep p50 inside the paper-point
# ops and p90 inside the wide-group ops.
MC_SHAPES = (
    (4, 2, 0.5, 10_000, 44),
    (120, 4, 0.1, 5_000, 44),
    (1200, 24, 0.01, 12_800, 12),
)
MC_TOLERANCE = 0.01

SWEEP_N_MAX = 20_000
SWEEP_P_STRATA = ((1e-3, 1e-2), (1e-2, 0.05), (0.05, 0.2), (0.2, 0.5))
SWEEP_KSTAR_N = 720_720
SWEEP_KSTAR_POINTS = 120
SWEEP_KSTAR_P_MAX = 0.6
SWEEP_THRESHOLD_DRAWS = 7
# The four standard experiments, as the scripts/ files pass them to cli.main.
SCRIPT_ARGVS = (
    ("age_vs_group_size.csv", ["age-vs-k", "--n", "120", "--p-list", "0.01,0.1,0.2,0.4"]),
    ("age_vs_population.csv", ["age-vs-n", "--n-range", "60:1200:60", "--p-list", "0.01,0.1,0.2,0.4"]),
    ("metric_comparison.csv", ["compare-metrics", "--n", "48", "--p-list", "0.05,0.15"]),
    (
        "optimal_size_sweep.csv",
        ["kstar-vs-p", "--n", "120", "--p-list", ",".join(f"{i / 100:.2f}" for i in range(1, 26))],
    ),
)
# Relative slack when asking whether a returned optimum is an argmin: the
# reference formula rounds differently from the library's, so exact ties can
# differ in the last bits.
ARGMIN_RTOL = 1e-9
THRESHOLD_STEP = 2e-6

VALIDATE_P_RANGE = (1e-12, 0.5)
VALIDATE_SOURCE_CYCLES = 1_000_000
# Enumeration oracle: k is drawn for n = 12, 16, 18; n = 20 always runs with
# k = 1, its most memory-hungry case, so the workload's peak RSS does not
# depend on the seed.
VALIDATE_ENUM_NS = (12, 16, 18)
# Other validate ops, by class: (ops, k range, m range, n * cycles per op).
# k and m are log-uniform with one draw per stratum, and the strata of k and m
# are paired on a fixed lattice, so every seed gets the same spread of shapes
# and each pass costs about the same.
VALIDATE_CLASSES = (
    (76, (1, 200), (1, 200), 1_000_000),  # general
    (16, (250, 20_000), (1, 4), 1_000_000),  # few large groups, where k*p << 1 cancels
    (4, (1, 2), (10_000, 100_000), 2_000_000),  # many groups, for the O(m) convolution loop
)
VALIDATE_PRINT_RTOL = 1e-5  # validate prints reals with 6 significant digits


@dataclass(frozen=True, slots=True)
class Op:
    """One public call: ``kind`` names a groupage function, or "cli" for ``groupage.cli.main``.

    ``expect`` names the file under results/ a cli op must reproduce byte for
    byte; ``source_cycles`` is the n * cycles the op simulates.
    """

    kind: str
    args: tuple
    source_cycles: int = 0
    expect: str | None = None


@dataclass(frozen=True, slots=True)
class Outcome:
    """Verdict on one op. ``wrong`` marks output the benchmark found incorrect;
    a failed op that is not wrong is the program's own reported failure."""

    failed: bool
    wrong: bool = False
    label: str = ""


OK = Outcome(failed=False)


def divisors(n: int) -> list[int]:
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(low + [n // d for d in low]))


def reference_age(n, k, p):
    """Average age from the expanded formula in (n, p, k); accepts numpy arrays."""
    n = np.asarray(n, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    q = np.exp(k * np.log1p(-np.asarray(p, dtype=np.float64)))
    flagged = 1.0 - q
    first = (k * k * (n - k) * q * q + n * (k + 1) ** 2) / (2 * k + 2 * k * k * flagged)
    second = (2 * n * (k + 1) - k * k) * q / (2 + 2 * k * flagged)
    return first - second + 1.0 + (k + 1) / 2 * flagged


def reference_expected_updates(n, k, p):
    """E[Y] = n/k + n(1 - q), on numpy arrays."""
    n = np.asarray(n, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    return n / k - n * np.expm1(k * np.log1p(-np.asarray(p, dtype=np.float64)))


def _log_uniform(rng: random.Random, lo: float, hi: float, u: float | None = None) -> float:
    u = rng.random() if u is None else u
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw in each of count equal slices of [0, 1), in shuffled order."""
    draws = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(draws)
    return draws


def build_ops(workload: str, seed: int, out_dir: str) -> list[Op]:
    """The workload's fixed op list for this seed; sweep's cli ops write their CSVs to out_dir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc-stream":
        return _mc_stream_ops(rng)
    if workload == "sweep":
        return _sweep_ops(rng, out_dir)
    if workload == "validate":
        return _validate_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str) -> Op:
    """A small fixed op run once, untimed, before measuring."""
    if workload == "mc-stream":
        return Op("simulate_age", (groupage.validate_config(4, 0.5, 2), 1000, 0))
    if workload == "sweep":
        return Op("optimal_group_size_updating", (SWEEP_KSTAR_N, 0.1))
    if workload == "validate":
        return Op("cli", ("validate", "--n", "4", "--p", "0.5", "--k", "2", "--cycles", "1000", "--seeds", "0"))
    raise ValueError(f"unknown workload {workload!r}")


def _mc_stream_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n, k, p, cycles, count in MC_SHAPES:
        config = groupage.validate_config(n, p, k)
        ops.extend(Op("simulate_age", (config, cycles, rng.getrandbits(32)), n * cycles) for _ in range(count))
    rng.shuffle(ops)
    return ops


def _sweep_ops(rng: random.Random, out_dir: str) -> list[Op]:
    ops = []
    for lo, hi in SWEEP_P_STRATA:
        p = _log_uniform(rng, lo, hi)
        ops.extend(Op("optimal_group_size_updating", (n, p)) for n in range(1, SWEEP_N_MAX + 1))
    grid = [SWEEP_KSTAR_P_MAX * u for u in sorted(_strata(rng, SWEEP_KSTAR_POINTS))]
    ops.append(Op("cli", ("kstar-vs-p", "--n", str(SWEEP_KSTAR_N), "--p-list", ",".join(map(repr, grid)))))
    threshold_ns = [SWEEP_KSTAR_N] + [rng.randint(2, SWEEP_N_MAX) for _ in range(SWEEP_THRESHOLD_DRAWS)]
    ops.extend(Op("updating_efficiency_threshold", (n,)) for n in threshold_ns)
    for name, argv in SCRIPT_ARGVS:
        ops.append(Op("cli", (*argv, "--out", os.path.join(out_dir, name)), expect=name))
    return ops


def _lattice(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """count points in [0, 1)^2, one per row and column stratum, rows paired to columns by a fixed rank-1 lattice."""
    step = round(0.618 * count)
    while math.gcd(step, count) != 1:
        step += 1
    return [((i + rng.random()) / count, ((i * step) % count + rng.random()) / count) for i in range(count)]


def _validate_op(rng: random.Random, n: int, k: int, p: float, budget: int) -> Op:
    cycles = max(2, budget // n)
    argv = ("validate", "--n", str(n), "--p", repr(p), "--k", str(k), "--cycles", str(cycles),
            "--seeds", str(rng.getrandbits(32)))
    return Op("cli", argv, n * cycles)


def _validate_ops(rng: random.Random) -> list[Op]:
    lo_p, hi_p = VALIDATE_P_RANGE
    budget = VALIDATE_CLASSES[0][3]
    ops = [_validate_op(rng, n, rng.choice(divisors(n)), _log_uniform(rng, lo_p, hi_p), budget) for n in VALIDATE_ENUM_NS]
    ops.append(_validate_op(rng, 20, 1, _log_uniform(rng, lo_p, hi_p), budget))
    for count, k_range, m_range, budget in VALIDATE_CLASSES:
        for (u_k, u_m), u_p in zip(_lattice(rng, count), _strata(rng, count)):
            k = round(_log_uniform(rng, *k_range, u_k))
            m = round(_log_uniform(rng, *m_range, u_m))
            ops.append(_validate_op(rng, m * k, k, _log_uniform(rng, lo_p, hi_p, u_p), budget))
    rng.shuffle(ops)
    return ops


def execute(op: Op):
    """Make the op's call. Functions are looked up at call time so that tracing wrappers apply."""
    if op.kind != "cli":
        return getattr(groupage, op.kind)(*op.args)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = groupage.cli.main(list(op.args))
    return code, out.getvalue()


def digest(op: Op, result, results_dir: Path):
    """Reduce a result to the small, comparable record the checks need (outside the timed region)."""
    if op.kind == "simulate_age":
        return result.overall_age, result.standard_error
    if op.kind == "optimal_group_size_updating":
        return int(result.optimal_k), float(result.objective_at_optimum)
    if op.kind == "updating_efficiency_threshold":
        return result
    code, text = result
    if op.expect is None:
        return code, text, len(text.encode())
    written = Path(op.args[-1]).read_bytes() if code == 0 else b""
    expected = (results_dir / op.expect).read_bytes()
    return code, written == expected, len(text.encode()) + len(written)


def bytes_out(op: Op, record) -> int:
    """Bytes a cli op wrote to stdout or its --out file."""
    return record[2] if op.kind == "cli" else 0


# --- checks -----------------------------------------------------------------


def check(workload: str, ops: list[Op], records: list) -> list[Outcome]:
    """One Outcome per op; records are digests, or an exception string for ops that raised."""
    outcomes = [Outcome(True, True, f"raised {r}") if isinstance(r, str) else None for r in records]
    if workload == "mc-stream":
        fill = _check_mc(ops, records)
    elif workload == "sweep":
        fill = _check_sweep(ops, records)
    else:
        fill = [_check_validate(op, r) for op, r in zip(ops, records)]
    return [o if o is not None else f for o, f in zip(outcomes, fill)]


def se3_misses(ops: list[Op], records: list) -> int:
    """mc-stream estimates further than 3 standard errors from the closed form (reported, not failed)."""
    misses = 0
    for op, record in zip(ops, records):
        if op.kind == "simulate_age" and not isinstance(record, str):
            config = op.args[0]
            age, se = record
            misses += abs(age - float(reference_age(config.n, config.k, config.p))) > 3.0 * se
    return misses


def _check_mc(ops, records):
    outcomes = []
    for op, record in zip(ops, records):
        if isinstance(record, str):
            outcomes.append(None)
            continue
        config = op.args[0]
        reference = float(reference_age(config.n, config.k, config.p))
        off = abs(record[0] - reference) / reference
        outcomes.append(OK if off <= MC_TOLERANCE else Outcome(True, True, f"estimate off by {off:.2%}"))
    return outcomes


def _divisor_table(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """All (n, k) with k | n and n <= n_max, sorted by n then k, by a sieve over k."""
    ns, ks = [], []
    for k in range(1, n_max + 1):
        multiples = np.arange(k, n_max + 1, k, dtype=np.int64)
        ns.append(multiples)
        ks.append(np.full(len(multiples), k, dtype=np.int64))
    n_all = np.concatenate(ns)
    k_all = np.concatenate(ks)
    order = np.lexsort((k_all, n_all))
    return n_all[order], k_all[order]


def _is_argmin(values: np.ndarray, divs, k_found: int) -> bool:
    where = {int(k): i for i, k in enumerate(divs)}
    if k_found not in where:
        return False
    best = float(values.min())
    return float(values[where[k_found]]) <= best + ARGMIN_RTOL * abs(best)


def _check_sweep(ops, records):
    outcomes = [None] * len(ops)
    optimizer = [i for i, op in enumerate(ops) if op.kind == "optimal_group_size_updating"]
    if optimizer:
        n_table, k_table = _divisor_table(max(ops[i].args[0] for i in optimizer))
        # starts[n - 1]:starts[n] is the run of n's divisors in the table
        starts = np.searchsorted(n_table, np.arange(1, n_table[-1] + 2))
        ages, best = {}, {}
        for p in {ops[i].args[1] for i in optimizer}:
            ages[p] = reference_age(n_table, k_table, p)
            best[p] = np.minimum.reduceat(ages[p], starts[:-1])
        for i in optimizer:
            if isinstance(records[i], str):
                continue
            n, p = ops[i].args
            k_found, value = records[i]
            lo, hi = starts[n - 1], starts[n]
            hits = np.nonzero(k_table[lo:hi] == k_found)[0]
            age = ages[p][lo + hits[0]] if len(hits) else math.inf
            ok = age <= best[p][n - 1] * (1 + ARGMIN_RTOL) and abs(value - age) <= ARGMIN_RTOL * age
            outcomes[i] = OK if ok else Outcome(True, True, f"k*={k_found} is not an age argmin for n={n}, p={p}")
    for i, op in enumerate(ops):
        if outcomes[i] is not None or isinstance(records[i], str):
            continue
        if op.kind == "updating_efficiency_threshold":
            outcomes[i] = _check_threshold(op.args[0], records[i])
        elif op.expect is not None:
            code, identical, _ = records[i]
            ok = code == 0 and identical
            outcomes[i] = OK if ok else Outcome(True, True, f"exit {code}, {op.expect} identical: {identical}")
        else:
            outcomes[i] = _check_kstar(op, records[i])
    return outcomes


def _check_threshold(n: int, threshold: float) -> Outcome:
    divs = np.array(divisors(n), dtype=np.float64)
    baseline = n / 2.0 + 1.0

    def beats(p: float) -> bool:
        return float(reference_age(n, divs, p).min()) <= baseline

    ok = 0.0 < threshold <= 1.0 and beats(max(threshold - THRESHOLD_STEP, 0.0))
    if threshold < 1.0 - THRESHOLD_STEP:
        ok = ok and not beats(threshold + THRESHOLD_STEP)
    return OK if ok else Outcome(True, True, f"threshold {threshold} for n={n} does not bracket the crossover")


def _check_kstar(op: Op, record) -> Outcome:
    code, text, _ = record
    n = int(op.args[op.args.index("--n") + 1])
    grid = sorted(float(v) for v in op.args[op.args.index("--p-list") + 1].split(","))
    rows = text.splitlines()[1:]
    if code != 0 or rows == [] or len(rows) != len(grid):
        return Outcome(True, True, f"kstar-vs-p exit {code} with {len(rows)} rows for {len(grid)} p values")
    divs = np.array(divisors(n), dtype=np.float64)
    for p, row in zip(grid, rows):
        _, k_age, k_updates = row.split(",")
        if not _is_argmin(reference_age(n, divs, p), divs, int(k_age)):
            return Outcome(True, True, f"k_gu_star={k_age} is not an age argmin at p={p}")
        if not _is_argmin(reference_expected_updates(n, divs, p), divs, int(k_updates)):
            return Outcome(True, True, f"k_gt_star={k_updates} is not an E[Y] argmin at p={p}")
    return OK


_ANALYTIC_LINE = re.compile(r"^(PASS|FAIL): closed-form vs (\S+): max relative error \S+$")
_SIM_LINE = re.compile(r"^(PASS|FAIL): simulation seed=\d+ (\w+): estimate \S+ vs (\S+) \(3se = (\S+)\)$")


def _check_validate(op: Op, record) -> Outcome | None:
    """Exit 0 passes and exit 2 or 3 is the program's own failure, if the printed legs agree with it."""
    if isinstance(record, str):
        return None
    code, text, _ = record
    args = dict(zip(op.args[1::2], op.args[2::2]))
    n, k, p = int(args["--n"]), int(args["--k"]), float(args["--p"])
    analytic_fail, sim_fail = [], []
    analytic_legs = sim_legs = 0
    reference = float(reference_age(n, k, p))
    for line in text.splitlines():
        if match := _ANALYTIC_LINE.match(line):
            analytic_legs += 1
            if match[1] == "FAIL":
                analytic_fail.append(f"analytic:{match[2]}")
        elif match := _SIM_LINE.match(line):
            sim_legs += 1
            status, leg, closed, three_se = match.groups()
            if leg == "age" and abs(float(closed) - reference) > VALIDATE_PRINT_RTOL * reference:
                return Outcome(True, True, f"printed closed-form age {closed} vs reference {reference:.6g}")
            if status == "FAIL":
                sim_fail.append(f"{'zero-variance' if float(three_se) == 0.0 else '3se-miss'}:{leg}")
    expected_analytic = 2 if n <= 20 else 1
    expected_code = 2 if analytic_fail else 3 if sim_fail else 0
    if analytic_legs != expected_analytic or sim_legs != 4 or code != expected_code:
        return Outcome(True, True, f"exit {code} disagrees with its {analytic_legs + sim_legs} printed legs")
    if code == 0:
        return OK
    # One label per op: the first leg to fail decides the exit code.
    return Outcome(True, False, (analytic_fail or sim_fail)[0])
