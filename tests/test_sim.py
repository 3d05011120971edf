import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupage.analytic import average_age
from groupage.model import divisors, validate_config
from groupage.sim import (
    cross_term_check,
    empirical_average_age,
    empirical_moments,
    simulate_age,
    simulate_cycles,
)

from oracles import group_outcome, per_source_age_estimate, reference_service_times, sample_statuses


@st.composite
def small_runs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.sampled_from(divisors(n)))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    num_cycles = draw(st.integers(min_value=2, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return validate_config(n, p, k), num_cycles, seed


def test_simulate_cycles_is_deterministic_per_seed():
    cfg = validate_config(24, 0.3, 4)
    a = simulate_cycles(cfg, 500, seed=11)
    b = simulate_cycles(cfg, 500, seed=11)
    assert np.array_equal(a.group_times, b.group_times)
    assert np.array_equal(a.delivery_offsets, b.delivery_offsets)
    assert np.array_equal(a.service_times, b.service_times)
    assert np.array_equal(a.cycle_lengths, b.cycle_lengths)
    sa = empirical_average_age(a)
    sb = empirical_average_age(b)
    assert sa.overall_age == sb.overall_age
    assert sa.standard_error == sb.standard_error
    c = simulate_cycles(cfg, 500, seed=12)
    assert not np.array_equal(a.cycle_lengths, c.cycle_lengths)


def test_simulate_cycles_rejects_empty_run():
    with pytest.raises(ValueError):
        simulate_cycles(validate_config(4, 0.5, 2), 0, seed=0)


def test_all_clear_run_structure_and_exact_age():
    cfg = validate_config(12, 0.0, 3)  # m = 4
    trace = simulate_cycles(cfg, 50, seed=5)
    assert (trace.cycle_lengths == cfg.m).all()
    for i in range(cfg.m):
        assert (trace.delivery_offsets[:, i, :] == i + 1).all()
    summary = empirical_average_age(trace)
    assert summary.overall_age == cfg.m / 2 + 1
    assert summary.standard_error == 0.0
    assert (summary.per_source_age == cfg.m / 2 + 1).all()


def test_all_positive_run_structure_and_exact_age():
    cfg = validate_config(12, 1.0, 3)  # m = 4, k = 3
    m, k = cfg.m, cfg.k
    trace = simulate_cycles(cfg, 50, seed=5)
    assert (trace.cycle_lengths == m * (k + 1)).all()
    for i in range(m):
        for j0 in range(k):
            assert (trace.delivery_offsets[:, i, j0] == i * (k + 1) + j0 + 2).all()
    summary = empirical_average_age(trace)
    for j0 in range(k):
        assert (summary.per_source_age[:, j0] == m * (k + 1) / 2 + (j0 + 2)).all()
    assert summary.overall_age == m * (k + 1) / 2 + 1 + (k + 1) / 2
    assert summary.standard_error == 0.0


def test_mean_cycle_length_converges_to_closed_form():
    cfg = validate_config(4, 0.5, 2)
    trace = simulate_cycles(cfg, 1_000_000, seed=3)
    moments = empirical_moments(trace)
    assert abs(moments.mean_cycle - 5.0) < 0.01  # about 6 standard errors
    assert abs(moments.second_moment_cycle - 26.5) / 26.5 < 0.01
    assert abs(moments.mean_service - 2.125) / 2.125 < 0.01
    assert moments.source_label == "simulation"


def test_empirical_moments_degenerate_and_single_cycle():
    cfg = validate_config(12, 0.0, 3)
    moments = empirical_moments(simulate_cycles(cfg, 10, seed=0))
    assert (moments.mean_cycle, moments.second_moment_cycle, moments.mean_service) == (4.0, 16.0, 1.0)

    cfg = validate_config(6, 0.5, 2)
    trace = simulate_cycles(cfg, 1, seed=9)
    moments = empirical_moments(trace)
    y = int(trace.cycle_lengths[0])
    assert moments.mean_cycle == y
    assert moments.second_moment_cycle == y * y
    assert moments.mean_service == trace.service_times.sum() / cfg.n


def test_age_estimate_close_to_closed_form():
    cfg = validate_config(120, 0.1, 4)
    summary = empirical_average_age(simulate_cycles(cfg, 100_000, seed=1))
    target = average_age(cfg)
    assert abs(summary.overall_age - target) / target <= 0.01
    assert abs(summary.overall_age - target) <= 3 * summary.standard_error
    assert summary.overall_age >= 1.0
    assert summary.overall_age == pytest.approx(summary.per_source_age.mean(), rel=1e-12)


def test_age_requires_two_cycles():
    trace = simulate_cycles(validate_config(4, 0.5, 2), 1, seed=0)
    with pytest.raises(ValueError):
        empirical_average_age(trace)
    with pytest.raises(ValueError):
        simulate_age(validate_config(4, 0.5, 2), 1, seed=0)


@settings(deadline=None, max_examples=40)
@given(small_runs())
def test_trace_invariants(run):
    cfg, num_cycles, seed = run
    trace = simulate_cycles(cfg, num_cycles, seed)
    m, k = cfg.m, cfg.k
    assert np.array_equal(trace.cycle_lengths, trace.group_times.sum(axis=1))
    assert set(np.unique(trace.group_times)) <= {1, k + 1}
    j_index = np.arange(1, k + 1)
    expected_service = np.where(trace.group_times[:, :, None] == 1, 1, j_index + 1)
    assert np.array_equal(trace.service_times, expected_service)
    starts = np.cumsum(trace.group_times, axis=1) - trace.group_times
    assert np.array_equal(trace.delivery_offsets, starts[:, :, None] + trace.service_times)
    # group i's last delivery never passes group i+1's generation instant
    for i in range(m - 1):
        assert (trace.delivery_offsets[:, i, -1] <= starts[:, i + 1]).all()


@settings(deadline=None, max_examples=40)
@given(small_runs())
def test_renewal_consistency(run):
    cfg, num_cycles, seed = run
    trace = simulate_cycles(cfg, num_cycles, seed)
    cycle_starts = np.concatenate([[0], np.cumsum(trace.cycle_lengths)[:-1]])
    deliveries = cycle_starts[:, None, None] + trace.delivery_offsets
    spans = np.diff(deliveries, axis=0)
    assert np.array_equal(spans.sum(axis=0), deliveries[-1] - deliveries[0])
    generations = deliveries - trace.service_times
    intervals = np.diff(generations, axis=0)
    assert np.array_equal(intervals.sum(axis=0), generations[-1] - generations[0])
    assert (intervals > 0).all()


@pytest.mark.parametrize("chunk", [1, 3, 97, 10_000])
def test_streaming_mode_matches_full_trace_exactly(chunk):
    cfg = validate_config(24, 0.3, 4)
    full = empirical_average_age(simulate_cycles(cfg, 400, seed=21))
    streamed = simulate_age(cfg, 400, seed=21, chunk_cycles=chunk)
    assert np.array_equal(full.per_source_age, streamed.per_source_age)
    assert full.overall_age == streamed.overall_age
    assert full.standard_error == streamed.standard_error
    assert (full.num_cycles, full.seed) == (streamed.num_cycles, streamed.seed)


@st.composite
def reference_runs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    k = draw(st.sampled_from(divisors(n)))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    num_cycles = draw(st.integers(min_value=2, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return validate_config(n, p, k), num_cycles, seed


@settings(deadline=None, max_examples=60)
@given(reference_runs())
def test_estimates_equal_per_source_reference_exactly(run):
    cfg, num_cycles, seed = run
    trace = simulate_cycles(cfg, num_cycles, seed)
    assert np.array_equal(trace.service_times, reference_service_times(cfg, num_cycles, seed))
    per_source, overall, se = per_source_age_estimate(trace.service_times, trace.delivery_offsets)
    summaries = [empirical_average_age(trace)]
    summaries += [simulate_age(cfg, num_cycles, seed, chunk_cycles=chunk) for chunk in (1, 3, 97, None)]
    for summary in summaries:
        assert np.array_equal(summary.per_source_age, per_source)
        assert summary.overall_age == overall
        assert summary.standard_error == se


def test_streaming_peak_memory_is_one_chunk():
    cfg = validate_config(1200, 0.01, 24)
    tracemalloc.start()
    try:
        simulate_age(cfg, 12_800, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_simulate_cycles_agrees_with_model_sampling_ops():
    cfg = validate_config(12, 0.4, 3)
    trace = simulate_cycles(cfg, 5, seed=77)
    rng = np.random.default_rng(77)
    for cycle in range(5):
        statuses = sample_statuses(cfg, rng)
        for i in range(cfg.m):
            outcome = group_outcome(statuses[i], expected_len=cfg.k)
            assert trace.group_times[cycle, i] == outcome.group_service_time


def test_cross_term_correlation_vanishes():
    assert cross_term_check(simulate_cycles(validate_config(12, 0.0, 3), 100, seed=0)) == 0.0
    assert cross_term_check(simulate_cycles(validate_config(12, 1.0, 3), 100, seed=0)) == 0.0
    big = cross_term_check(simulate_cycles(validate_config(120, 0.1, 4), 100_000, seed=2))
    assert big < 0.01
    small = cross_term_check(simulate_cycles(validate_config(4, 0.5, 2), 100_000, seed=2))
    assert small < 0.02


def test_cross_term_requires_two_cycles():
    with pytest.raises(ValueError):
        cross_term_check(simulate_cycles(validate_config(4, 0.5, 2), 1, seed=0))


def test_estimator_error_halves_with_quadrupled_cycles():
    cfg = validate_config(12, 0.3, 3)
    target = average_age(cfg)
    errors_small, errors_large = [], []
    for seed in range(10):
        small = empirical_average_age(simulate_cycles(cfg, 2_000, seed=seed))
        large = empirical_average_age(simulate_cycles(cfg, 8_000, seed=1000 + seed))
        errors_small.append(abs(small.overall_age - target))
        errors_large.append(abs(large.overall_age - target))
    assert np.median(errors_large) <= np.median(errors_small)
