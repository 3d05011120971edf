import dataclasses
import gc
import math
import re
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from groupage import analytic, cli, sim
from groupage.analytic import average_age
from groupage.cli import (
    EXIT_ANALYTIC_MISMATCH,
    EXIT_IO,
    EXIT_OK,
    EXIT_STATISTICAL_MISMATCH,
    EXIT_USAGE,
    SIMULATION_ALPHA,
    _standard_error,
    _uniform_run_tail,
    main,
)
from groupage.model import divisors, validate_config

from oracles import exact_standard_error


def _read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_age_vs_k_output(tmp_path):
    out = tmp_path / "age_vs_k.csv"
    code = main(["age-vs-k", "--n", "120", "--p-list", "0.01,0.4", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = _read_rows(out)
    assert header == ["p", "k", "delta_group_updating", "delta_round_robin", "is_optimal"]
    assert len(rows) == 2 * len(divisors(120))
    assert all(row["delta_round_robin"] == "61" for row in rows)
    flagged = [row for row in rows if row["p"] == "0.01" and row["is_optimal"] == "1"]
    assert [row["k"] for row in flagged] == ["8"]
    high_p = [float(row["delta_group_updating"]) for row in rows if row["p"] == "0.4"]
    assert min(high_p) >= 61.0


def test_age_vs_k_rows_rederivable(tmp_path):
    out = tmp_path / "age_vs_k.csv"
    main(["age-vs-k", "--n", "48", "--p-list", "0.05", "--out", str(out)])
    _, rows = _read_rows(out)
    for row in rows:
        cfg = validate_config(48, float(row["p"]), int(row["k"]))
        assert float(row["delta_group_updating"]) == pytest.approx(average_age(cfg), rel=1e-11)


def test_age_vs_n_output(tmp_path):
    out = tmp_path / "age_vs_n.csv"
    code = main(["age-vs-n", "--n-range", "60:1200:60", "--p-list", "0.01,0.2", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = _read_rows(out)
    assert len(rows) == 2 * 20
    for p in ("0.01", "0.2"):
        ages = [float(row["delta_at_kstar"]) for row in rows if row["p"] == p]
        assert ages == sorted(ages)  # non-decreasing in n
    by_n_low = {row["n"]: float(row["delta_at_kstar"]) for row in rows if row["p"] == "0.01"}
    by_n_high = {row["n"]: float(row["delta_at_kstar"]) for row in rows if row["p"] == "0.2"}
    assert all(by_n_low[n] <= by_n_high[n] for n in by_n_low)


def test_age_vs_n_growth_is_nearly_linear(tmp_path):
    out = tmp_path / "age_vs_n.csv"
    main(["age-vs-n", "--n-range", "60:1200:60", "--p-list", "0.1", "--out", str(out)])
    _, rows = _read_rows(out)
    xs = [float(row["n"]) for row in rows]
    ys = [float(row["delta_at_kstar"]) for row in rows]
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    sxx = sum((x - x_mean) ** 2 for x in xs)
    syy = sum((y - y_mean) ** 2 for y in ys)
    r_squared = sxy * sxy / (sxx * syy)
    assert r_squared >= 0.999


def test_compare_metrics_output(tmp_path):
    out = tmp_path / "compare.csv"
    code = main(["compare-metrics", "--n", "48", "--p-list", "0.05,0.15", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = _read_rows(out)
    low = {row["k"]: row for row in rows if row["p"] == "0.05"}
    assert [k for k, row in low.items() if row["is_gu_optimal"] == "1"] == ["4"]
    assert [k for k, row in low.items() if row["is_gt_optimal"] == "1"] == ["6"]
    high = {row["k"]: row for row in rows if row["p"] == "0.15"}
    assert [k for k, row in high.items() if row["is_gu_optimal"] == "1"] == ["3"]
    assert [k for k, row in high.items() if row["is_gt_optimal"] == "1"] == ["3"]
    assert float(low["1"]["expected_updates"]) == pytest.approx(48 * 1.05, rel=1e-11)


def test_kstar_vs_p_output(tmp_path):
    out = tmp_path / "kstar.csv"
    grid = ",".join(f"{i / 100:.2f}" for i in range(1, 26))
    code = main(["kstar-vs-p", "--n", "120", "--p-list", grid, "--out", str(out)])
    assert code == EXIT_OK
    _, rows = _read_rows(out)
    assert len(rows) == 25
    gu = [int(row["k_gu_star"]) for row in rows]
    gt = [int(row["k_gt_star"]) for row in rows]
    assert gu[0] != gt[0]
    assert all(a >= b for a, b in zip(gu, gu[1:]))
    assert all(a >= b for a, b in zip(gt, gt[1:]))
    for row in rows:
        if float(row["p"]) >= 0.13:
            assert row["k_gu_star"] == row["k_gt_star"]


def test_simulate_output_and_determinism(tmp_path):
    first = tmp_path / "sim1.csv"
    second = tmp_path / "sim2.csv"
    args = ["simulate", "--n", "12", "--p", "0.3", "--k", "3", "--cycles", "2000", "--seeds", "0,1"]
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    _, rows = _read_rows(first)
    assert [row["seed"] for row in rows] == ["0", "1"]
    for row in rows:
        assert math.isfinite(float(row["age"]))
        assert float(row["age_stderr"]) > 0.0
        closed = float(row["age_closed_form"])
        assert abs(float(row["age"]) - closed) / closed < 0.1


def test_analytic_outputs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["age-vs-k", "--n", "120", "--p-list", "0.01,0.1,0.2,0.4"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_stdout_when_out_omitted(capsys):
    assert main(["age-vs-k", "--n", "6", "--p-list", "0.1"]) == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "p,k,delta_group_updating,delta_round_robin,is_optimal"
    assert len(lines) == 1 + len(divisors(6))


def test_validate_passes_small_config(capsys):
    code = main(["validate", "--n", "4", "--p", "0.5", "--k", "2", "--cycles", "20000", "--seeds", "0,1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS: closed-form vs convolution-oracle" in out
    assert "PASS: closed-form vs enumeration-oracle" in out
    assert "FAIL" not in out


def test_validate_skips_enumeration_for_large_n(capsys):
    code = main(["validate", "--n", "120", "--p", "0.1", "--k", "4", "--cycles", "20000", "--seeds", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "SKIP: enumeration-oracle" in out


def test_validate_exact_at_p_zero(capsys):
    code = main(["validate", "--n", "4", "--p", "0", "--k", "2", "--cycles", "100", "--seeds", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out


def test_usage_errors_exit_one():
    assert main(["age-vs-k", "--n", "120", "--p-list", "0.1,oops"]) == EXIT_USAGE
    assert main(["age-vs-k", "--n", "120", "--p-list", "1.5"]) == EXIT_USAGE
    assert main(["age-vs-n", "--n-range", "60-1200", "--p-list", "0.1"]) == EXIT_USAGE
    assert main(["simulate", "--n", "12", "--p", "0.3", "--k", "5", "--cycles", "100"]) == EXIT_USAGE
    assert main(["simulate", "--n", "12", "--p", "0.3", "--k", "3", "--cycles", "1"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


def test_validate_passes_an_all_clear_run_by_its_exact_tail(capsys):
    # the README's example: at p = 1e-9 no group is flagged in 1000 cycles, so
    # every simulation leg has zero sample variance and sits just below its
    # closed form; the run's chance q^(N*m) is about 0.99988, so it passes
    code = main(["validate", "--n", "120", "--p", "1e-9", "--k", "4", "--cycles", "1000", "--seeds", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert "EXACT: simulation seed=0: no group flagged in 30000 group-cycles, two-sided tail 1 (level 0.0027)" in lines
    legs = [line for line in lines if "simulation seed=0 " in line]
    assert len(legs) == 4
    assert all(line.startswith("PASS: simulation seed=0 ") and line.endswith("(3se = 0)") for line in legs)


def _log_chance(p, k, slots, flagged):
    """log of the chance, in 60-digit mpmath, that none (flagged False) or all (True) of slots groups of k are flagged."""
    with mpmath.workdps(60):
        clear = (1 - mpmath.mpf(p)) ** k
        chance = 1 - clear if flagged else clear
        return -mpmath.inf if chance == 0 else slots * mpmath.log(chance)


# (n, k, p, cycles): p at 0 and 1, k = 1, k*p << 1, and runs whose all-clear
# or all-flagged chance sits on either side of alpha/2
EXACT_TAIL_GRID = [
    (n, k, p, cycles)
    for n, k in [(1, 1), (4, 2), (12, 1), (120, 4), (10_000, 10_000)]
    for p in [0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9, 1 - 1e-9, 1.0]
    for cycles in [2, 3, 50, 1000, 10**6]
]


def test_exact_tail_rejection_probability_is_at_most_alpha():
    # The tail verdict rejects a run only when it has no or every group
    # flagged and that event's chance P has 2P < alpha. Its rejection
    # probability is the sum of those chances, computed here, not sampled
    rejecting = 0
    for n, k, p, cycles in EXACT_TAIL_GRID:
        cfg = validate_config(n, p, k)
        slots = cycles * cfg.m
        rejection = mpmath.mpf(0)
        for flagged, total in ((False, 0), (True, slots)):
            log_chance = _log_chance(p, k, slots, flagged)
            if log_chance == -mpmath.inf:
                continue  # no run has this total: every flag is set at p = 1, and none at p = 0
            tail = _uniform_run_tail(cfg, cycles, total)
            assert tail == pytest.approx(float(min(1, 2 * mpmath.exp(log_chance))), rel=1e-9, abs=1e-300)
            if tail < SIMULATION_ALPHA:
                rejection += mpmath.exp(log_chance)
                rejecting += 1
        assert rejection <= SIMULATION_ALPHA, (n, k, p, cycles)
    assert rejecting > 0  # the grid reaches the rejecting side
    assert _uniform_run_tail(validate_config(4, 0.5, 2), 10, 7) is None  # a mixed run keeps the 3-SE rule


def test_unlikely_all_clear_run_exits_statistical_mismatch(capsys):
    # an all-clear run at p = 0.5 has chance 0.25^(N*m), far below alpha/2,
    # so a simulator that never flagged would be caught by the exact tail
    cfg = validate_config(4, 0.5, 2)
    all_clear = sim.simulate_age(validate_config(4, 0.0, 2), 100, seed=0)
    with mock.patch.object(sim, "simulate_age", return_value=all_clear):
        code = main(["validate", "--n", "4", "--p", "0.5", "--k", "2", "--cycles", "100", "--seeds", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert 2 * 0.25 ** (100 * cfg.m) < SIMULATION_ALPHA
    assert code == EXIT_STATISTICAL_MISMATCH
    assert "EXACT: simulation seed=0: no group flagged in 200 group-cycles, two-sided tail 7.75e-121 (level 0.0027)" in lines
    legs = [line for line in lines if "simulation seed=0 " in line]
    assert len(legs) == 4 and all(line.startswith("FAIL: ") for line in legs)


def test_validate_exits_analytic_mismatch_even_when_simulation_passes(capsys):
    exact = analytic.convolution_oracle

    def off_by_a_millionth(config):
        moments = exact(config)
        return dataclasses.replace(
            moments, **{field.name: getattr(moments, field.name) * (1 + 1e-6) for field in dataclasses.fields(moments)}
        )

    with mock.patch.object(analytic, "convolution_oracle", off_by_a_millionth):
        code = main(["validate", "--n", "4", "--p", "0.5", "--k", "2", "--cycles", "20000", "--seeds", "0,1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_ANALYTIC_MISMATCH
    assert lines[0].startswith("FAIL: closed-form vs convolution-oracle")
    assert lines[1].startswith("PASS: closed-form vs enumeration-oracle")
    simulation = [line for line in lines if "simulation" in line]
    assert len(simulation) == 8
    assert all(line.startswith("PASS") for line in simulation)


# Each subcommand with a valid argv, the flags its help must list, and the
# flag whose absence must be a usage error.
SUBCOMMANDS = {
    "age-vs-k": (["--n", "6", "--p-list", "0.1"], {"--n", "--p-list", "--out"}, "--n"),
    "age-vs-n": (["--n-range", "6:12:6", "--p-list", "0.1"], {"--n-range", "--p-list", "--out"}, "--n-range"),
    "compare-metrics": (["--n", "6", "--p-list", "0.1"], {"--n", "--p-list", "--out"}, "--p-list"),
    "kstar-vs-p": (["--n", "6", "--p-list", "0.1"], {"--n", "--p-list", "--out"}, "--p-list"),
    "simulate": (
        ["--n", "4", "--p", "0.5", "--k", "2", "--cycles", "100"],
        {"--n", "--p", "--k", "--cycles", "--seeds", "--out"},
        "--k",
    ),
    "validate": (
        ["--n", "4", "--p", "0.5", "--k", "2", "--cycles", "100"],
        {"--n", "--p", "--k", "--cycles", "--seeds"},
        "--p",
    ),
}


def _without_flag(argv, flag):
    at = argv.index(flag)
    return argv[:at] + argv[at + 2 :]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_usage_errors_exit_one_with_nothing_on_stdout(command, capsys):
    argv, _, required = SUBCOMMANDS[command]
    bad = [_without_flag(argv, required), argv + ["--bogus", "1"]]
    if "--cycles" in argv:
        bad.append(_without_flag(argv, "--cycles") + ["--cycles", "1"])
    for args in bad:
        assert main([command, *args]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_help_lists_exactly_its_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == SUBCOMMANDS[command][1] | {"--help"}


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("seeds", ["-1", "1,-1"])
def test_negative_seed_is_a_usage_error_before_any_work(command, seeds, capsys):
    refuse = mock.Mock(side_effect=AssertionError("simulated before refusing the seed list"))
    with mock.patch.object(sim, "simulate_age", refuse):
        code = main([command, "--n", "4", "--p", "0.5", "--k", "2", "--cycles", "100", "--seeds", seeds])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "seed" in captured.err
    assert refuse.call_count == 0


def test_oversized_input_exits_one_by_the_int64_check_before_simulating(capsys):
    # the check must refuse these before any oracle or simulation runs; if it
    # did not, the patched calls would fail the test instead of allocating
    refuse = mock.Mock(side_effect=AssertionError("ran past the int64 check"))
    with mock.patch.object(sim, "simulate_age", refuse), mock.patch.object(analytic, "convolution_oracle", refuse):
        for command, n, k, cycles in [
            ("validate", 10**9, 1, 2),
            ("simulate", 10**7, 1, 2),
            ("validate", 10**7, 1, 2),
        ]:
            argv = [command, "--n", str(n), "--p", "0.1", "--k", str(k), "--cycles", str(cycles)]
            assert main(argv) == EXIT_USAGE
            assert "int64" in capsys.readouterr().err
    assert refuse.call_count == 0


def test_cycle_count_alone_does_not_pass_the_memory_budget(capsys):
    # the simulator keeps no per-cycle series, so its working set is one chunk
    # whatever --cycles is; this input was once refused at about 1027 MiB
    cfg = validate_config(1, 0.3, 1)
    small = sim.simulate_age(cfg, 2, seed=0)
    with mock.patch.object(sim, "simulate_age", return_value=small) as run:
        code = main(["simulate", "--n", "1", "--p", "0.3", "--k", "1", "--cycles", "16400000", "--seeds", "0"])
    assert code == EXIT_OK
    assert "budget" not in capsys.readouterr().err
    run.assert_called_once_with(cfg, 16_400_000, 0)


def _largest_admitted(admits, low: int) -> int:
    """The largest x >= low with admits(x), for admits true at low and false from some x on."""
    high = 2 * low
    while admits(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if admits(mid) else (low, mid)
    return low


def _int64_admits(n: int, k: int) -> bool:
    try:
        sim._check_int64_totals(validate_config(n, 0.5, k), 2)
    except ValueError:
        return False
    return True


def test_largest_admitted_runs_fit_the_budget(capsys):
    # the int64 check is the only admission rule of simulate and validate;
    # its largest runs, the most groups at k = 1 and the widest single group,
    # must still fit the memory budget that age-vs-n keeps
    groups = _largest_admitted(lambda m: _int64_admits(m, 1), 1)
    width = _largest_admitted(lambda k: _int64_admits(k, k), 1)
    assert (groups, width) == (1_321_122, 1_664_509)
    assert not _int64_admits(groups + 1, 1) and not _int64_admits(width + 1, width + 1)
    for n, k in [(groups, 1), (width, width)]:
        tracemalloc.start()
        try:
            code = main(["simulate", "--n", str(n), "--p", "0.5", "--k", str(k), "--cycles", "2", "--seeds", "0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK, capsys.readouterr().err
        assert peak < cli.MEMORY_BUDGET_BYTES


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_each_seed_frees_the_previous_seeds_summary(command, capsys):
    # a summary holds (m, k) ages and m + 1 flag counts, so at large m a
    # multi-seed run that kept the last one through the next seed's run
    # would peak one summary higher than a single seed
    earlier = []
    simulate_age = sim.simulate_age

    def tracked(*args):
        gc.collect()
        assert all(summary() is None for summary in earlier), "an earlier seed's AgeSummary is still alive"
        summary = simulate_age(*args)
        earlier.append(weakref.ref(summary))
        return summary

    with mock.patch.object(sim, "simulate_age", tracked):
        code = main([command, "--n", "12", "--p", "0.2", "--k", "3", "--cycles", "1000", "--seeds", "0,1,2"])
    assert code == EXIT_OK, capsys.readouterr()
    assert len(earlier) == 3


def test_huge_n_range_exits_one_before_any_optimizer_call(capsys):
    refuse = mock.Mock(side_effect=AssertionError("ran the optimizer past the n-range check"))
    with mock.patch.object(cli, "optimal_group_size_updating", refuse):
        for n_range, reason in [("1:1000000000:1", "budget"), (f"1:{10**12 + 1}:1", "n <= 1000000000000")]:
            tracemalloc.start()
            try:
                code = main(["age-vs-n", "--n-range", n_range, "--p-list", "0.1"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            captured = capsys.readouterr()
            assert code == EXIT_USAGE
            assert captured.out == ""
            assert reason in captured.err
            assert peak < 2**20
    assert refuse.call_count == 0


def test_n_range_is_checked_by_its_last_n_not_its_stop(capsys):
    # the stop 10^12 + 1 is past the divisor bound, but the last n is 10^12
    assert main(["age-vs-n", "--n-range", f"{10**12 - 2}:{10**12 + 1}:2", "--p-list", "0.1"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [str(10**12 - 2), str(10**12)]


def test_int64_overflowing_input_exits_one_before_any_output(capsys):
    refuse = mock.Mock(side_effect=AssertionError("ran past the int64 check"))
    with mock.patch.object(sim, "simulate_age", refuse), mock.patch.object(analytic, "convolution_oracle", refuse):
        for command in ("simulate", "validate"):
            argv = [command, "--n", "3000000", "--p", "1e-9", "--k", "1", "--cycles", "3", "--seeds", "0"]
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "int64" in captured.err
    assert refuse.call_count == 0


def test_validate_passes_the_analytic_legs_when_k_p_is_tiny(capsys):
    # at k*p = 1e-8, 1 - q by subtraction kept about 8 digits and this exited 2
    code = main(["validate", "--n", "10000", "--p", "1e-12", "--k", "10000", "--cycles", "50", "--seeds", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS: closed-form vs convolution-oracle")
    assert code != EXIT_ANALYTIC_MISMATCH


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 1000)), min_size=1, max_size=30),
    st.integers(1, 1000),
)
def test_standard_error_of_counted_series_matches_repeated_series(pairs, scale):
    values = np.array([v for v, _ in pairs], dtype=np.float64) / scale
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    total = int(counts.sum())
    if total < 2:
        return
    se = _standard_error(values, counts)
    if len(np.unique(values[counts > 0])) == 1:
        assert se == 0.0  # a constant series has exactly zero error
    else:
        reference = float(np.std(np.repeat(values, counts), ddof=1)) / math.sqrt(total)
        assert se == pytest.approx(reference, rel=1e-14, abs=0)
        assert se == pytest.approx(exact_standard_error(values, counts), rel=1e-14, abs=0)


def test_standard_error_prints_like_the_exact_value_at_a_rounding_tie():
    # validate prints 3se with 3 significant digits. Here the exact SE of the
    # cycle lengths is 1/1600, so 3se = 0.001875 is a decimal tie: its nearest
    # float prints 0.00187, and the per-cycle np.std the CLI once used, two
    # ulps high, printed 0.00188
    cfg = validate_config(125, 7.618497938283732e-07, 5)
    counts = sim.simulate_age(cfg, 8000, seed=0).flag_counts  # a seed whose run flags one group
    assert counts[0] == 7999 and counts[1] == 1
    lengths = cfg.m + cfg.k * np.arange(cfg.m + 1, dtype=np.int64)
    se = _standard_error(lengths, counts)
    exact = exact_standard_error(lengths, counts)
    assert exact == float(Fraction(1, 1600))
    assert abs(se - exact) <= math.ulp(exact)
    assert f"{3.0 * se:.3g}" == f"{3.0 * exact:.3g}" == "0.00187"


@pytest.mark.parametrize("command", ["age-vs-k", "compare-metrics", "kstar-vs-p"])
def test_n_past_the_divisor_bound_exits_one(command, capsys):
    assert main([command, "--n", str(10**12 + 1), "--p-list", "0.1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n <= 1000000000000" in captured.err


def test_unwritable_output_exits_io(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["age-vs-k", "--n", "6", "--p-list", "0.1", "--out", str(missing_dir)]) == EXIT_IO
