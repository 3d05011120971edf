import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupage.analytic import average_age, expected_cycle_length, round_robin_age
from groupage.model import divisors, validate_config
from groupage.optimize import (
    STATIONARY_P_MAX,
    group_testing_efficiency_threshold,
    kstar_sweep,
    optimal_group_size_testing,
    optimal_group_size_updating,
    stationary_group_sizes,
    updating_efficiency_threshold,
)
from oracles import mpmath_moments, per_config_average_age, per_config_mean_cycle


def test_group_testing_efficiency_threshold_examples():
    assert group_testing_efficiency_threshold(1) == 0.0
    assert group_testing_efficiency_threshold(3) == pytest.approx(0.3066, abs=5e-5)
    best = max(range(1, 101), key=group_testing_efficiency_threshold)
    assert best == 3
    with pytest.raises(ValueError):
        group_testing_efficiency_threshold(0)


def test_stationary_points_satisfy_fixed_point_equation():
    for p in (0.01, 0.05, 0.2, 0.4):
        points = stationary_group_sizes(p)
        assert points.exists
        assert points.alpha1 <= points.alpha2
        log_clear = math.log1p(-p)
        target = -0.5 * math.sqrt(-log_clear)
        for alpha in (points.alpha1, points.alpha2):
            x = 0.5 * alpha * log_clear
            assert abs(x * math.exp(x) - target) <= 1e-9


def test_stationary_points_zero_derivative_residual():
    # stationary points must kill dE[Y]/dk = -n/k^2 - n (1-p)^k log(1-p)
    p = 0.05
    points = stationary_group_sizes(p)
    for n in (48, 120):
        for alpha in (points.alpha1, points.alpha2):
            residual = -n / alpha**2 - n * (1 - p) ** alpha * math.log(1 - p)
            assert abs(residual) <= 1e-9 * n


def test_stationary_points_existence_boundary():
    assert STATIONARY_P_MAX == pytest.approx(0.418, abs=5e-4)
    at_boundary = stationary_group_sizes(STATIONARY_P_MAX)
    assert at_boundary.exists
    assert at_boundary.alpha1 == pytest.approx(at_boundary.alpha2, rel=1e-9)
    assert at_boundary.alpha1 == pytest.approx(math.e**2 / 2, rel=1e-9)
    assert not stationary_group_sizes(0.45).exists
    assert stationary_group_sizes(0.4).exists


def test_stationary_points_domain_errors():
    with pytest.raises(ValueError):
        stationary_group_sizes(0.0)
    with pytest.raises(ValueError):
        stationary_group_sizes(1.0)


def test_optimal_group_size_testing_examples():
    assert optimal_group_size_testing(48, 0.05).optimal_k == 6
    assert optimal_group_size_testing(48, 0.15).optimal_k == 3
    assert optimal_group_size_testing(30, 0.0).optimal_k == 30
    assert optimal_group_size_testing(30, 1.0).optimal_k == 30


def test_optimal_group_size_testing_result_invariants():
    result = optimal_group_size_testing(48, 0.05)
    ks = [k for k, _ in result.candidates]
    assert result.optimal_k in ks
    assert all(48 % k == 0 for k in ks)
    assert result.objective_at_optimum == min(v for _, v in result.candidates)
    assert result.objective_at_optimum == pytest.approx(
        expected_cycle_length(validate_config(48, 0.05, result.optimal_k)), rel=1e-12
    )


@settings(deadline=None)
@given(
    st.sampled_from([12, 24, 48, 120, 360]),
    st.integers(min_value=1, max_value=30),
)
def test_lambert_route_matches_exhaustive_search(n, p_hundredths):
    p = p_hundredths / 100
    shortcut = optimal_group_size_testing(n, p)
    exhaustive = min(
        ((expected_cycle_length(validate_config(n, p, k)), k) for k in divisors(n)),
        key=lambda pair: (pair[0], pair[1]),
    )
    assert shortcut.optimal_k == exhaustive[1]


def test_testing_efficiency_condition_holds_below_threshold():
    for n in (12, 48, 120):
        for i in range(1, 31):
            p = i / 100
            result = optimal_group_size_testing(n, p)
            if p <= group_testing_efficiency_threshold(result.optimal_k):
                assert result.objective_at_optimum <= n + 1e-9


def test_optimal_group_size_updating_examples():
    assert optimal_group_size_updating(120, 0.01).optimal_k == 8
    assert optimal_group_size_updating(120, 0.1).optimal_k == 4
    assert optimal_group_size_updating(120, 0.2).optimal_k == 3
    assert optimal_group_size_updating(120, 0.4).optimal_k == 3
    assert optimal_group_size_updating(48, 0.05).optimal_k == 4


def test_optimal_group_size_updating_evaluates_every_divisor():
    result = optimal_group_size_updating(120, 0.1)
    assert [k for k, _ in result.candidates] == divisors(120)
    values = dict(result.candidates)
    assert result.objective_at_optimum <= values[1]
    assert result.objective_at_optimum <= values[120]
    assert result.objective_at_optimum == pytest.approx(
        average_age(validate_config(120, 0.1, result.optimal_k)), rel=1e-12
    )


@settings(deadline=None)
@given(
    st.one_of(st.integers(min_value=1, max_value=5000), st.just(720720)),
    st.one_of(st.sampled_from([0.0, 1.0, 1e-15, 0.5]), st.floats(min_value=0.0, max_value=1.0)),
)
def test_optimizer_values_equal_per_config_closed_forms_exactly(n, p):
    ages = optimal_group_size_updating(n, p)
    assert [k for k, _ in ages.candidates] == divisors(n)
    for k, value in ages.candidates:
        config = validate_config(n, p, k)
        assert value == average_age(config) == per_config_average_age(config)
    updates = optimal_group_size_testing(n, p)
    for k, value in updates.candidates:
        config = validate_config(n, p, k)
        assert value == expected_cycle_length(config) == per_config_mean_cycle(config)
    assert kstar_sweep(n, [p]) == [(p, ages.optimal_k, updates.optimal_k)]


def test_updating_threshold_for_n_120_lies_in_paper_bracket():
    # frozen closed-form values backing the bracket
    assert average_age(validate_config(120, 0.2, 3)) == pytest.approx(51.71231168831169, rel=1e-9)
    assert average_age(validate_config(120, 0.4, 3)) == pytest.approx(69.83534128878283, rel=1e-9)
    threshold = updating_efficiency_threshold(120)
    assert 0.2 < threshold < 0.4


def test_updating_threshold_is_a_sign_change_point():
    for n in (2, 12, 120):
        threshold = updating_efficiency_threshold(n)
        assert 0.0 < threshold <= 1.0
        baseline = round_robin_age(n)

        def beats(p):
            return min(average_age(validate_config(n, p, k)) for k in divisors(n)) <= baseline

        assert beats(max(threshold - 2e-6, 0.0))
        assert not beats(min(threshold + 2e-6, 1.0))


@pytest.mark.parametrize("n", [2, 3, 12, 97, 120, 10007, 99991, 720720])
def test_updating_threshold_is_a_sign_change_at_a_relative_step_of_1e_12(n):
    threshold = updating_efficiency_threshold(n)
    assert 0.0 < threshold < 1.0
    below, above = threshold * (1 - 1e-12), threshold * (1 + 1e-12)
    ks = divisors(n)

    def beats(p):
        return min(average_age(validate_config(n, p, k)) for k in ks) <= round_robin_age(n)

    def beats_exactly(p):
        return min(mpmath_moments(n, p, k)[3] for k in ks) <= n / 2 + 1

    assert beats(below) and not beats(above)
    assert beats_exactly(below) and not beats_exactly(above)


def test_updating_threshold_matches_grid_scan_for_small_n():
    n = 2
    baseline = round_robin_age(n)
    grid = [i / 2000 for i in range(1, 2000)]
    best = max(
        p
        for p in grid
        if min(average_age(validate_config(n, p, k)) for k in divisors(n)) <= baseline
    )
    threshold = updating_efficiency_threshold(n)
    assert abs(threshold - best) <= 1 / 2000 + 1e-6


def test_updating_threshold_rejects_tiny_n():
    with pytest.raises(ValueError):
        updating_efficiency_threshold(1)


def test_kstar_sweep_trends():
    grid = [i / 100 for i in range(1, 26)]
    rows = kstar_sweep(120, grid)
    assert [p for p, _, _ in rows] == grid
    gu = [k for _, k, _ in rows]
    gt = [k for _, _, k in rows]
    assert all(a >= b for a, b in zip(gu, gu[1:]))
    assert all(a >= b for a, b in zip(gt, gt[1:]))
    assert gu[0] != gt[0]  # p = 0.01
    assert all(g == t for (p, g, t) in zip(grid, gu, gt) if p >= 0.13)


def test_optimizer_input_validation():
    with pytest.raises(ValueError):
        optimal_group_size_testing(0, 0.1)
    with pytest.raises(ValueError):
        optimal_group_size_testing(10, 1.5)
    with pytest.raises(ValueError):
        optimal_group_size_updating(10, -0.2)
    for n in (120.0, np.float64(120.0)):
        with pytest.raises(ValueError):
            divisors(n)
        with pytest.raises(ValueError):
            optimal_group_size_updating(n, 0.1)
        with pytest.raises(ValueError):
            optimal_group_size_testing(n, 0.1)
        with pytest.raises(ValueError):
            updating_efficiency_threshold(n)
        with pytest.raises(ValueError):
            kstar_sweep(n, [0.1])
    # a numpy integer n must not wrap in the closed forms' n*n products
    big = optimal_group_size_updating(10**8, 0.1)
    assert (big.optimal_k, big.objective_at_optimum) == (4, pytest.approx(29695002.6, rel=1e-9))
    assert optimal_group_size_updating(np.int64(10**8), 0.1).candidates == big.candidates
    assert optimal_group_size_testing(np.int64(10**8), 0.1) == optimal_group_size_testing(10**8, 0.1)
    assert updating_efficiency_threshold(np.int64(10**8)) == updating_efficiency_threshold(10**8)
