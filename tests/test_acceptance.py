"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (or add -s to see the printed
lines alongside the test results).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from groupage.analytic import (
    average_age,
    closed_form_moments,
    convolution_oracle,
    enumeration_oracle,
    round_robin_age,
)
from groupage.cli import main
from groupage.lambertw import BRANCH_POINT, lambert_w0, lambert_wm1
from groupage.model import divisors, validate_config
from groupage.optimize import (
    STATIONARY_P_MAX,
    group_testing_efficiency_threshold,
    kstar_sweep,
    optimal_group_size_testing,
    optimal_group_size_updating,
    updating_efficiency_threshold,
)
from groupage.sim import simulate_age

REL = 1e-9


@contextmanager
def criterion(number, text):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {text}")
        raise
    print(f"PASS criterion {number:2d}: {text} [{time.perf_counter() - started:.2f}s]")


def test_criterion_01_optimal_group_sizes_for_n_120():
    with criterion(1, "optimal age-minimizing group sizes for n=120"):
        started = time.perf_counter()
        results = {p: optimal_group_size_updating(120, p).optimal_k for p in (0.01, 0.1, 0.2, 0.4)}
        elapsed = time.perf_counter() - started
        assert results == {0.01: 8, 0.1: 4, 0.2: 3, 0.4: 3}
        assert elapsed < 1.0


def test_criterion_02_metric_divergence_for_n_48():
    with criterion(2, "age vs expected-updates optima diverge at n=48"):
        started = time.perf_counter()
        assert optimal_group_size_updating(48, 0.05).optimal_k == 4
        assert optimal_group_size_testing(48, 0.05).optimal_k == 6
        assert optimal_group_size_updating(48, 0.15).optimal_k == 3
        assert optimal_group_size_testing(48, 0.15).optimal_k == 3
        assert time.perf_counter() - started < 1.0


def test_criterion_03_crossover_of_optima_across_p():
    with criterion(3, "optima crossover across p for n=120"):
        started = time.perf_counter()
        grid = [i / 100 for i in range(1, 26)]
        rows = kstar_sweep(120, grid)
        elapsed = time.perf_counter() - started
        gu = [k for _, k, _ in rows]
        gt = [k for _, _, k in rows]
        for (p, k_gu, k_gt) in rows:
            if p >= 0.13:
                assert k_gu == k_gt
        assert rows[0][1] != rows[0][2]  # p = 0.01
        assert all(a >= b for a, b in zip(gu, gu[1:]))
        assert all(a >= b for a, b in zip(gt, gt[1:]))
        assert elapsed < 2.0


def test_criterion_04_efficiency_thresholds():
    with criterion(4, "pooling efficiency threshold peak and two-root boundary"):
        best_k = max(range(1, 101), key=group_testing_efficiency_threshold)
        assert best_k == 3
        assert group_testing_efficiency_threshold(3) == pytest.approx(0.3066, abs=5e-5)
        assert STATIONARY_P_MAX == pytest.approx(0.418, abs=5e-4)


def test_criterion_05_round_robin_baseline():
    with criterion(5, "round-robin baseline age n/2 + 1"):
        assert round_robin_age(120) == 61.0
        for n in (1, 2, 7, 60, 1200):
            assert round_robin_age(n) == n / 2 + 1


def test_criterion_06_efficiency_bracket_for_n_120():
    with criterion(6, "group updating beats round robin at p=0.2 but not p=0.4 (n=120)"):
        baseline = round_robin_age(120)
        best_low = min(average_age(validate_config(120, 0.2, k)) for k in divisors(120))
        best_high = min(average_age(validate_config(120, 0.4, k)) for k in divisors(120))
        assert best_low < baseline
        assert best_high > baseline
        threshold = updating_efficiency_threshold(120)
        assert 0.2 < threshold < 0.4


def test_criterion_07_oracle_triangle():
    with criterion(7, "closed forms == convolution oracle == enumeration oracle (n <= 12)"):
        started = time.perf_counter()
        for n in range(1, 13):
            for k in divisors(n):
                for p in (0.0, 0.05, 0.3, 0.7, 1.0):
                    cfg = validate_config(n, p, k)
                    closed = closed_form_moments(cfg)
                    for oracle in (convolution_oracle(cfg), enumeration_oracle(cfg)):
                        assert oracle.mean_cycle == pytest.approx(closed.mean_cycle, rel=REL)
                        assert oracle.second_moment_cycle == pytest.approx(
                            closed.second_moment_cycle, rel=REL
                        )
                        assert oracle.mean_service == pytest.approx(closed.mean_service, rel=REL)
                        assert oracle.average_age == pytest.approx(closed.average_age, rel=REL)
        assert time.perf_counter() - started < 30.0


def test_criterion_08_simulation_agreement():
    with criterion(8, "simulated age within 3 SE (>= 9/10 seeds) and 1% (all seeds)"):
        started = time.perf_counter()
        for n, k, p in ((120, 4, 0.1), (4, 2, 0.5)):
            cfg = validate_config(n, p, k)
            target = average_age(cfg)
            within_band = 0
            for seed in range(10):
                summary = simulate_age(cfg, 100_000, seed)
                error = abs(summary.overall_age - target)
                if error <= 3 * summary.standard_error:
                    within_band += 1
                assert error / target <= 0.01
            assert within_band >= 9
        assert time.perf_counter() - started < 60.0


def test_criterion_09_lambert_w_round_trip():
    with criterion(9, "Lambert W round trip on both branches"):
        for y in -np.geomspace(1 / math.e - 1e-9, 1e-12, 1000):
            y = float(y)
            for w in (lambert_w0(y), lambert_wm1(y)):
                assert abs(w * math.exp(w) - y) <= 1e-12 * abs(y)
        assert lambert_w0(BRANCH_POINT) == pytest.approx(-1.0, abs=1e-8)
        assert lambert_wm1(BRANCH_POINT) == pytest.approx(-1.0, abs=1e-8)


def test_criterion_10_degenerate_exactness():
    with criterion(10, "p=0 and p=1 give exact closed-form and simulated ages"):
        for n, k in ((120, 8), (12, 3), (6, 6)):
            m = n // k
            cfg0 = validate_config(n, 0.0, k)
            assert average_age(cfg0) == n / (2 * k) + 1
            summary0 = simulate_age(cfg0, 200, seed=0)
            assert summary0.flag_counts[0] == 200  # every cycle lasts m slots
            assert summary0.overall_age == n / (2 * k) + 1

            cfg1 = validate_config(n, 1.0, k)
            expected = m * (k + 1) / 2 + 1 + (k + 1) / 2
            assert average_age(cfg1) == expected
            summary1 = simulate_age(cfg1, 200, seed=0)
            assert summary1.flag_counts[m] == 200  # every cycle lasts m*(k+1) slots
            assert summary1.overall_age == expected


def test_criterion_11_byte_identical_csv_output(tmp_path):
    with criterion(11, "CSV outputs byte-identical across repeated runs"):
        for args in (
            ["age-vs-k", "--n", "120", "--p-list", "0.01,0.1,0.2,0.4"],
            ["kstar-vs-p", "--n", "120", "--p-list", "0.01,0.05,0.1"],
            ["simulate", "--n", "12", "--p", "0.3", "--k", "3", "--cycles", "5000", "--seeds", "0,1,2"],
        ):
            first = tmp_path / "first.csv"
            second = tmp_path / "second.csv"
            assert main(args + ["--out", str(first)]) == 0
            assert main(args + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
