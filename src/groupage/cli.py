"""Command-line experiment harness emitting CSV curves and validation reports.

CSV output goes to --out or standard output. Reals are rendered with 12
significant digits; rows are sorted by their key columns, so a command's
output is byte-identical across runs (given the same seeds).

Exit codes: 0 success, 1 usage error, 2 analytic validation mismatch,
3 statistical validation mismatch, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import analytic, sim
from .model import DIVISORS_MAX_N, SystemConfig, _log_all_clear, validate_config
from .optimize import kstar_sweep, optimal_group_size_testing, optimal_group_size_updating

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANALYTIC_MISMATCH = 2
EXIT_STATISTICAL_MISMATCH = 3
EXIT_IO = 4

ANALYTIC_RTOL = 1e-9
# Two-sided level of the simulation legs: the share of a normal law beyond 3
# standard deviations, erfc(3/sqrt(2)), about 0.0027.
SIMULATION_ALPHA = math.erfc(3.0 / math.sqrt(2.0))

# Largest working set of age-vs-n's rows, at _AGE_VS_N_ROW_BYTES each, in
# bytes; over it, age-vs-n exits 1 up front. simulate and validate admit the
# widths sim._check_int64_totals admits, at most m = 1 321 122 groups and
# n < 2^21 sources; the widest, validate --n 1321122 --p 0.5 --k 1 --cycles 50, traces
# 101.5 MiB, and tests/test_pins.py holds it under this budget.
MEMORY_BUDGET_BYTES = 2**30
# Most group-cycles, seeds x cycles x m, that simulate and validate draw and
# fold; over it they exit 1 up front. simulate_age took 6-12 ns a group-cycle
# at m = 1, 30, 50 and 1000, 18-21 ns at m = 4 and 31-33 ns at m = 1 321 122
# (best of 3, 2 vCPUs, numpy 2.4.6), so an admitted run takes about a minute
# at most. A slot-drawn run does less work than its count says; the bound
# needs only to be safe and known before the first draw.
_MAX_GROUP_CYCLES = 2 * 10**9
# Peak bytes per age-vs-n row (its tuple, numbers and CSV line), under
# tracemalloc: 313 to 330 over 20 000 to 40 000 rows.
_AGE_VS_N_ROW_BYTES = 352


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors must exit 1
        raise UsageError(message)


def _parse_list(text: str, convert, noun: str) -> list:
    try:
        values = [convert(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise UsageError(f"invalid {noun} list {text!r}") from exc
    if not values:
        raise UsageError(f"{noun} list must not be empty")
    return values


def _parse_p_list(text: str) -> list[float]:
    values = _parse_list(text, float, "probability")
    for p in values:
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"probabilities must lie in [0, 1], got {p}")
    return values


def _parse_n_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"expected an n range start:stop:step, got {text!r}")
    try:
        start, stop, step = (int(part) for part in parts)
    except ValueError as exc:
        raise UsageError(f"invalid n range {text!r}") from exc
    if start < 1 or stop < start or step < 1:
        raise UsageError(f"invalid n range {text!r}")
    n_range = range(start, stop + 1, step)
    if n_range[-1] > DIVISORS_MAX_N:
        raise UsageError(f"n range {text!r} reaches n={n_range[-1]}, past the divisor search's n <= {DIVISORS_MAX_N}")
    return n_range


def _parse_seeds(text: str) -> list[int]:
    seeds = _parse_list(text, int, "seed")
    if min(seeds) < 0:
        raise UsageError(f"invalid seed list {text!r}: seeds must be non-negative")
    return seeds


def _parse_cycles(text: str) -> int:
    cycles = int(text)
    if cycles < 2:
        raise UsageError("--cycles must be >= 2")
    return cycles


_parse_cycles.__name__ = "int"  # argparse's message for a non-integer reads "invalid int value"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _write_csv(header: list[str], rows: list[tuple], out_path: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def cmd_age_vs_k(n: int, p_list: list[float], out: str | None) -> int:
    """Rows (p, k, delta_group_updating, delta_round_robin, is_optimal) over divisors of n."""
    baseline = analytic.round_robin_age(n)
    rows = []
    for p in p_list:
        result = optimal_group_size_updating(n, p)
        rows.extend((p, k, age, baseline, k == result.optimal_k) for k, age in result.candidates)
    rows.sort(key=lambda row: (row[0], row[1]))
    _write_csv(["p", "k", "delta_group_updating", "delta_round_robin", "is_optimal"], rows, out)
    return EXIT_OK


def cmd_age_vs_n(n_range: range, p_list: list[float], out: str | None) -> int:
    """Rows (p, n, k_star, delta_at_kstar, delta_round_robin); the optimizer runs per point."""
    need = len(n_range) * len(p_list) * _AGE_VS_N_ROW_BYTES
    if need > MEMORY_BUDGET_BYTES:
        raise UsageError(
            f"{len(n_range)} n values at {len(p_list)} p values need about {need / 2**20:.0f} MiB of rows, "
            f"over the {MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget; use a shorter n range"
        )
    rows = []
    for p in p_list:
        for n in n_range:
            result = optimal_group_size_updating(n, p)
            rows.append((p, n, result.optimal_k, result.objective_at_optimum, analytic.round_robin_age(n)))
    rows.sort(key=lambda row: (row[0], row[1]))
    _write_csv(["p", "n", "k_star", "delta_at_kstar", "delta_round_robin"], rows, out)
    return EXIT_OK


def cmd_compare_metrics(n: int, p_list: list[float], out: str | None) -> int:
    """Rows (p, k, delta, expected_updates, is_gu_optimal, is_gt_optimal) over divisors of n."""
    rows = []
    for p in p_list:
        updating = optimal_group_size_updating(n, p)
        k_updates = optimal_group_size_testing(n, p).optimal_k
        for k, age in updating.candidates:
            updates = analytic.expected_cycle_length(validate_config(n, p, k))
            rows.append((p, k, age, updates, k == updating.optimal_k, k == k_updates))
    rows.sort(key=lambda row: (row[0], row[1]))
    _write_csv(
        ["p", "k", "delta", "expected_updates", "is_gu_optimal", "is_gt_optimal"],
        rows,
        out,
    )
    return EXIT_OK


def cmd_kstar_vs_p(n: int, p_list: list[float], out: str | None) -> int:
    """Rows (p, k_gu_star, k_gt_star) from the sweep over both optimizers."""
    rows = [tuple(entry) for entry in kstar_sweep(n, sorted(p_list))]
    _write_csv(["p", "k_gu_star", "k_gt_star"], rows, out)
    return EXIT_OK


def _simulation_config(n: int, p: float, k: int, cycles: int, seeds: list[int]) -> SystemConfig:
    """The config of a simulate or validate run, refused unless its totals fit int64 and its work the bound."""
    config = validate_config(n, p, k)
    sim._check_int64_totals(config, cycles)
    work = len(seeds) * cycles * config.m
    if work > _MAX_GROUP_CYCLES:
        raise UsageError(
            f"seeds x cycles x groups = {len(seeds)} x {cycles} x {config.m} = {work} group-cycles, "
            f"over the {_MAX_GROUP_CYCLES} admitted; use fewer cycles or seeds"
        )
    return config


def cmd_simulate(n: int, p: float, k: int, cycles: int, seeds: list[int], out: str | None) -> int:
    """Per-seed simulated age and cycle moments next to their closed-form values."""
    config = _simulation_config(n, p, k, cycles, seeds)
    closed_age = analytic.average_age(config)
    rows = []
    for seed in sorted(seeds):
        summary = sim.simulate_age(config, cycles, seed)
        moments = sim.empirical_moments(config, summary.flag_counts)
        rows.append(
            (
                n,
                p,
                k,
                cycles,
                seed,
                summary.overall_age,
                summary.standard_error,
                closed_age,
                moments.mean_cycle,
                moments.second_moment_cycle,
                moments.mean_service,
            )
        )
        del summary  # so that it is freed before the next seed's run, not kept alongside it
    _write_csv(
        [
            "n",
            "p",
            "k",
            "cycles",
            "seed",
            "age",
            "age_stderr",
            "age_closed_form",
            "mean_cycle",
            "cycle_second_moment",
            "mean_service",
        ],
        rows,
        out,
    )
    return EXIT_OK


def _relative_error(value: float, reference: float) -> float:
    scale = max(abs(reference), 1.0)
    return abs(value - reference) / scale


def _standard_error(values: np.ndarray, counts: np.ndarray) -> float:
    """Standard error (ddof=1) of the mean of a series in which values[i] occurs counts[i] times."""
    seen = counts > 0
    values, counts = values[seen], counts[seen]
    total = int(counts.sum())
    deviations = values - values[0]  # so a constant series has exactly zero error
    deviations = deviations - float(counts @ deviations) / total
    return math.sqrt(float(counts @ (deviations * deviations)) / ((total - 1) * total))


def _uniform_run_tail(config: SystemConfig, cycles: int, flag_total: int) -> float | None:
    """Two-sided tail min(1, 2P) of a run with no group or every group flagged, else None.

    P is the chance of that run: q^(N*m) when no group of its N*m
    group-cycles was flagged, qbar^(N*m) when all were.
    """
    slots = cycles * config.m
    if flag_total == 0:
        log_chance = _log_all_clear(config.p, config.k)
    elif flag_total == slots:
        log_chance = math.log(config.qbar)
    else:
        return None
    return min(1.0, 2.0 * math.exp(slots * log_chance))


def _simulation_legs(config: SystemConfig, closed: analytic.MomentSet, cycles: int, summary: sim.AgeSummary):
    """A seed's exact tail, its EXACT: line's word and its four legs as (label, estimate, closed form, bound, ok).

    A leg passes within bound = 3 estimated SEs of its closed form. Besides
    the age's own SE, the SEs are of per-cycle series (L, L^2, mean service)
    that depend only on a cycle's flagged-group count, so they come from the
    run's flag counts. A run with no group, or every group, flagged (word
    "no" or "every") has legs fixed by that event, whose SEs are exactly 0:
    its legs pass by the event's exact two-sided tail, min(1, 2P) with P its
    chance, when that is at least SIMULATION_ALPHA, the 3-SE rule's level.
    Any other run's tail is None.
    """
    counts = summary.flag_counts
    flagged = np.arange(config.m + 1, dtype=np.int64)
    lengths = config.m + config.k * flagged
    services = (config.n + flagged * (config.k * (config.k + 1) // 2)) / config.n
    moments = sim.empirical_moments(config, counts)
    flag_total = int(counts @ flagged)
    tail = _uniform_run_tail(config, cycles, flag_total)
    legs = []
    for label, value, reference, se in (
        ("age", summary.overall_age, closed.average_age, summary.standard_error),
        ("mean_cycle", moments.mean_cycle, closed.mean_cycle, _standard_error(lengths, counts)),
        ("second_moment_cycle", moments.second_moment_cycle, closed.second_moment_cycle,
         _standard_error(lengths * lengths, counts)),
        ("mean_service", moments.mean_service, closed.mean_service, _standard_error(services, counts)),
    ):
        bound = 3.0 * se
        ok = abs(value - reference) <= bound if tail is None else tail >= SIMULATION_ALPHA
        legs.append((label, value, reference, bound, ok))
    return tail, "no" if flag_total == 0 else "every", legs


def cmd_validate(n: int, p: float, k: int, cycles: int, seeds: list[int]) -> int:
    """Check closed forms against both exact oracles and against simulation, and print every leg.

    An analytic leg passes when each moment agrees to relative ANALYTIC_RTOL;
    _simulation_legs judges each seed's simulation legs, and a seed's exact
    tail, when it has one, is printed on a line of its own before its legs.
    """
    config = _simulation_config(n, p, k, cycles, seeds)
    closed = analytic.closed_form_moments(config)
    analytic_ok = statistical_ok = True
    oracles = [("convolution-oracle", analytic.convolution_oracle)]
    if n <= analytic.ENUMERATION_MAX_SOURCES:
        oracles.append(("enumeration-oracle", analytic.enumeration_oracle))
    for label, oracle in oracles:
        pairs = zip(dataclasses.astuple(oracle(config)), dataclasses.astuple(closed))
        worst = max(_relative_error(value, reference) for value, reference in pairs)
        ok = worst <= ANALYTIC_RTOL
        analytic_ok = analytic_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}: closed-form vs {label}: max relative error {worst:.3e}")
    if n > analytic.ENUMERATION_MAX_SOURCES:
        print(f"SKIP: enumeration-oracle (needs n <= {analytic.ENUMERATION_MAX_SOURCES}, got n={n})")
    for seed in sorted(seeds):
        # the summary lives only inside _simulation_legs, so it is freed before the next seed's run
        tail, word, legs = _simulation_legs(config, closed, cycles, sim.simulate_age(config, cycles, seed))
        if tail is not None:
            print(
                f"EXACT: simulation seed={seed}: {word} group flagged in {cycles * config.m} group-cycles, "
                f"two-sided tail {tail:.3g} (level {SIMULATION_ALPHA:.3g})"
            )
        for label, value, reference, bound, ok in legs:
            statistical_ok = statistical_ok and ok
            print(
                f"{'PASS' if ok else 'FAIL'}: simulation seed={seed} {label}: "
                f"estimate {value:.6g} vs {reference:.6g} (3se = {bound:.3g})"
            )
    if not analytic_ok:
        return EXIT_ANALYTIC_MISMATCH
    if not statistical_ok:
        return EXIT_STATISTICAL_MISMATCH
    return EXIT_OK


# Flag specs shared by several subcommands: (flag, add_argument keywords).
_N = ("--n", {"type": int, "required": True})
_P_LIST = ("--p-list", {"type": _parse_p_list, "required": True, "help": "comma-separated probabilities"})
_OUT = ("--out", {"default": None})
_SIMULATION = (
    _N,
    ("--p", {"type": float, "required": True}),
    ("--k", {"type": int, "required": True}),
    ("--cycles", {"type": _parse_cycles, "default": 100_000}),
    ("--seeds", {"type": _parse_seeds, "default": "0"}),
)
_N_RANGE = ("--n-range", {"type": _parse_n_range, "required": True, "help": "start:stop:step (stop inclusive)"})

# Each subcommand: its handler, its help line and its flags, whose dests are
# the handler's keyword arguments.
_COMMANDS = {
    "age-vs-k": (cmd_age_vs_k, "age per divisor group size, with the round-robin baseline", (_N, _P_LIST, _OUT)),
    "age-vs-n": (cmd_age_vs_n, "best achievable age as the population grows", (_N_RANGE, _P_LIST, _OUT)),
    "compare-metrics": (cmd_compare_metrics, "age and expected updates per group size", (_N, _P_LIST, _OUT)),
    "kstar-vs-p": (cmd_kstar_vs_p, "optimal group sizes under both metrics across p", (_N, _P_LIST, _OUT)),
    "simulate": (cmd_simulate, "Monte Carlo age estimates per seed, next to the closed form", (*_SIMULATION, _OUT)),
    "validate": (cmd_validate, "closed forms vs exact oracles vs simulation, with exit code", _SIMULATION),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="groupage", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_line, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        command.set_defaults(handler=handler)
        for flag, spec in flags:
            command.add_argument(flag, **spec)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(_PARSER.parse_args(argv))
        del args["command"]
        return args.pop("handler")(**args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
