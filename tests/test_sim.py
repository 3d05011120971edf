import hashlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from groupage import sim
from groupage.analytic import average_age
from groupage.model import divisors, validate_config
from groupage.sim import empirical_moments, simulate_age

from oracles import (
    chi_square_tail,
    delivery_offsets,
    exact_overall_age,
    flagged_group_count_pmf,
    group_outcome,
    group_times,
    instants_fold_block,
    nearest_float_sqrt,
    oracle_flags,
    per_source_age_estimate,
    per_source_ages,
    per_source_cross_term,
    per_trace_moments,
    reference_service_times,
    sample_statuses,
)
from tracing import traced_peak

# Level of the chi-square checks on the simulator's flag draw. Each runs at
# a fixed seed, so each passes or fails for good; at this level a correct
# draw fails one of them by chance with probability 1e-4.
FLAG_LAW_ALPHA = 1e-4

# overall_age, a float mean over the groups, must lie this close to the exact mean of the
# per-source ages; the worst error measured over random runs was about 20 times smaller.
AGE_RTOL = Fraction(1, 10**14)


@st.composite
def small_runs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.sampled_from(divisors(n)))
    p = draw(st.sampled_from([0.0, 1e-3, 0.02, 0.2, 0.5, 0.8, 1.0]))
    num_cycles = draw(st.integers(min_value=2, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return validate_config(n, p, k), num_cycles, seed


def simulate_age_in_chunks(cfg, num_cycles, seed, chunk):
    """simulate_age with chunks of `chunk` cycles, or the default chunking for None."""
    if chunk is None:
        return simulate_age(cfg, num_cycles, seed)
    with mock.patch.object(sim, "CHUNK_DRAWS", chunk * cfg.m):
        return simulate_age(cfg, num_cycles, seed)


def chunks_of(flags, chunk):
    """An (N, m) flag trace as _flag_chunks feeds it, (cycles, flags) chunks of `chunk` cycles."""
    parts = (flags[start : start + chunk] for start in range(0, len(flags), chunk))
    return [(len(part), part) for part in parts]


def estimate_in_chunks(cfg, flags, chunk):
    """sim._estimate of an (N, m) flag trace fed in chunks of `chunk` cycles, or as one chunk for None."""
    return sim._estimate(cfg, chunks_of(flags, chunk or len(flags)))


def check_reference(summary, reference, *context):
    """summary equals a per_source_age_estimate reference: its interval sums and SE exactly, its age within AGE_RTOL."""
    sums, age, se = reference
    assert np.array_equal(summary.interval_sums, sums), context
    assert abs(Fraction(summary.overall_age) - age) <= AGE_RTOL * age, context
    assert summary.standard_error == se, context


def simulated_flags(cfg, num_cycles, seed):
    """The simulator's (N, m) group flags of a seeded run, its chunks joined."""
    return np.concatenate([flags for _, flags in sim._flag_chunks(cfg, seed, num_cycles)])


def draws_uniforms(cfg, num_cycles) -> bool:
    """Whether simulate_age draws this run's flags one uniform a group and cycle, the per-source stream at k = 1.

    A run expecting fewer than one flagged group-cycle draws only its flagged
    slots, from a stream of its own; at p = 0 neither draw flags anything,
    so those runs count too.
    """
    return cfg.p == 0.0 or num_cycles * cfg.m * cfg.qbar >= sim.SLOT_SAMPLER_FLAGS


def flag_counts_of(cfg, flags) -> np.ndarray:
    """Cycles counted by their number of flagged groups, from an (N, m) flag trace."""
    return np.bincount(flags.sum(axis=1), minlength=cfg.m + 1)


def group_cross_term(k, flags) -> float:
    """Largest per-group |correlation| between a group's renewal interval and the flag of the update closing it.

    The interval ending at an update draws on earlier group outcomes than that
    update's own service time, so the correlation should vanish; values near
    zero back the factorization E[Y*S] = E[Y]*E[S] used by the closed forms.
    All k sources of a group share its intervals Y, and source j's service
    time is 1 + j*F, so corr(Y, 1 + j*F) = corr(Y, F) is every source's
    correlation in that group. Groups with zero variance report 0.
    """
    times = np.where(flags, k + 1, 1)
    ends = np.cumsum(times, axis=1)
    starts = ends - times
    # from a group's generation instant in one cycle to its instant in the next
    intervals = (ends[:-1, -1:] - starts[:-1] + starts[1:]).astype(np.float64)
    flags = flags[1:].astype(np.float64)
    intervals -= intervals.mean(axis=0)
    flags -= flags.mean(axis=0)
    covariance = (intervals * flags).sum(axis=0)
    scale = np.sqrt((intervals * intervals).sum(axis=0) * (flags * flags).sum(axis=0))
    correlation = np.divide(covariance, scale, out=np.zeros_like(covariance), where=scale > 0)
    return float(np.abs(correlation).max())


def test_simulate_age_is_deterministic_per_seed():
    cfg = validate_config(24, 0.3, 4)
    a = simulate_age(cfg, 500, seed=11)
    b = simulate_age(cfg, 500, seed=11)
    assert np.array_equal(a.flag_counts, b.flag_counts)
    assert np.array_equal(a.interval_sums, b.interval_sums)
    assert a.overall_age == b.overall_age
    assert a.standard_error == b.standard_error
    c = simulate_age(cfg, 500, seed=12)
    assert not np.array_equal(a.flag_counts, c.flag_counts)


def _longest_interval(config):
    return config.m * (config.k + 1)  # every group of the m it spans flagged


def _worst_row_area(config):
    # every group's interval at its longest, Y = m(k+1), closed by a flagged update
    m, k = config.m, config.k
    y = _longest_interval(config)
    return m * (k * y * y + (k * k + 3 * k) * y)


def test_int64_bound_is_what_an_all_flagged_run_sums():
    cfg = validate_config(12, 1.0, 3)
    m, k = cfg.m, cfg.k
    sums, flag_counts, intervals, deviation_sums, _, _ = sim._fold(cfg, sim._flag_chunks(cfg, 0, 50))
    assert intervals == 49
    assert 49 * k * m * m * (m + 2) + deviation_sums[1] == 49 * _worst_row_area(cfg)  # every row's double area
    assert (sums[1] == 49 * _longest_interval(cfg) ** 2).all()  # each group's sum of Y^2
    assert flag_counts[m] == 50  # every cycle lasts m(k+1), so its L^2 is at the bound


@pytest.mark.parametrize("n,k", [(1000, 1), (120, 4), (6, 6), (1, 1)])
def test_int64_check_refuses_exactly_past_the_bound(n, k):
    cfg = validate_config(n, 0.1, k)
    square = _longest_interval(cfg) ** 2
    longest = (2**63 - 1) // square  # the most cycles whose sum of L^2 fits
    assert _worst_row_area(cfg) <= 2**63 - 1
    assert longest * square <= 2**63 - 1 < (longest + 1) * square
    sim._check_int64_totals(cfg, longest)
    with pytest.raises(ValueError, match="int64"):
        sim._check_int64_totals(cfg, longest + 1)


def test_simulate_age_refuses_a_run_whose_sums_overflow():
    # this run has no flagged group, so its exact SE is 0; the overflowed
    # int64 series once gave 512409.557603. One all-flagged row's double
    # area alone, about 1.1e20, is past int64, so any cycle count is refused
    cfg = validate_config(3_000_000, 1e-9, 1)
    assert _worst_row_area(cfg) > 2**63 - 1
    for num_cycles in (2, 3):
        with pytest.raises(ValueError, match="int64"):
            simulate_age(cfg, num_cycles, seed=0)


@settings(deadline=None, max_examples=40)
@given(small_runs())
def test_flag_counts_and_moments_match_oracle_trace(run):
    cfg, num_cycles, seed = run
    flags = oracle_flags(cfg, num_cycles, seed)
    summary = estimate_in_chunks(cfg, flags, 3)
    assert summary.flag_counts.dtype == summary.interval_sums.dtype == np.int64
    assert summary.interval_sums.shape == (3, cfg.m)
    assert np.array_equal(summary.flag_counts, flag_counts_of(cfg, flags))
    moments = empirical_moments(cfg, summary.flag_counts)
    fields = (moments.mean_cycle, moments.second_moment_cycle, moments.mean_service, moments.average_age)
    assert fields == per_trace_moments(cfg, flags)


def test_all_clear_run_structure_and_exact_age():
    cfg = validate_config(12, 0.0, 3)  # m = 4
    summary = simulate_age(cfg, 50, seed=5)
    assert summary.flag_counts[0] == 50 and summary.flag_counts.sum() == 50
    offsets = delivery_offsets(reference_service_times(cfg, 50, seed=5))
    for i in range(cfg.m):
        assert (offsets[:, i, :] == i + 1).all()
    assert summary.overall_age == cfg.m / 2 + 1
    assert summary.standard_error == 0.0
    assert (per_source_ages(summary.interval_sums, cfg.k) == cfg.m / 2 + 1).all()


def test_all_positive_run_structure_and_exact_age():
    cfg = validate_config(12, 1.0, 3)  # m = 4, k = 3
    m, k = cfg.m, cfg.k
    summary = simulate_age(cfg, 50, seed=5)
    assert summary.flag_counts[m] == 50 and summary.flag_counts.sum() == 50
    offsets = delivery_offsets(reference_service_times(cfg, 50, seed=5))
    for i in range(m):
        for j0 in range(k):
            assert (offsets[:, i, j0] == i * (k + 1) + j0 + 2).all()
    for j0 in range(k):
        assert (per_source_ages(summary.interval_sums, k)[:, j0] == m * (k + 1) / 2 + (j0 + 2)).all()
    assert summary.overall_age == m * (k + 1) / 2 + 1 + (k + 1) / 2
    assert summary.standard_error == 0.0


def test_mean_cycle_length_converges_to_closed_form():
    cfg = validate_config(4, 0.5, 2)
    moments = empirical_moments(cfg, simulate_age(cfg, 1_000_000, seed=3).flag_counts)
    assert abs(moments.mean_cycle - 5.0) < 0.01  # about 6 standard errors
    assert abs(moments.second_moment_cycle - 26.5) / 26.5 < 0.01
    assert abs(moments.mean_service - 2.125) / 2.125 < 0.01


def test_empirical_moments_degenerate_and_single_cycle():
    cfg = validate_config(12, 0.0, 3)
    moments = empirical_moments(cfg, simulate_age(cfg, 10, seed=0).flag_counts)
    assert (moments.mean_cycle, moments.second_moment_cycle, moments.mean_service) == (4.0, 16.0, 1.0)

    cfg = validate_config(6, 0.5, 2)
    flags = oracle_flags(cfg, 1, seed=9)
    moments = empirical_moments(cfg, flag_counts_of(cfg, flags))
    y = cfg.m + cfg.k * int(flags.sum())
    assert moments.mean_cycle == y
    assert moments.second_moment_cycle == y * y
    assert moments.mean_service == reference_service_times(cfg, 1, seed=9).sum() / cfg.n


def test_age_estimate_close_to_closed_form():
    cfg = validate_config(120, 0.1, 4)
    summary = simulate_age(cfg, 100_000, seed=1)
    target = average_age(cfg)
    assert abs(summary.overall_age - target) / target <= 0.01
    assert abs(summary.overall_age - target) <= 3 * summary.standard_error
    assert summary.overall_age >= 1.0
    exact = exact_overall_age(summary.interval_sums, cfg.k)
    assert abs(Fraction(summary.overall_age) - exact) <= AGE_RTOL * exact


def test_age_requires_two_cycles():
    for num_cycles in (0, 1):
        with pytest.raises(ValueError):
            simulate_age(validate_config(4, 0.5, 2), num_cycles, seed=0)


@settings(deadline=None, max_examples=40)
@given(small_runs())
def test_trace_invariants(run):
    cfg, num_cycles, seed = run
    m, k = cfg.m, cfg.k
    service = reference_service_times(cfg, num_cycles, seed)
    times = group_times(service)
    flags = oracle_flags(cfg, num_cycles, seed)
    assert np.array_equal(np.where(flags, k + 1, 1), times)
    summary = estimate_in_chunks(cfg, flags, 3)
    assert np.array_equal(summary.flag_counts, flag_counts_of(cfg, times > 1))
    assert empirical_moments(cfg, summary.flag_counts).mean_service == float(int(service.sum())) / service.size
    assert set(np.unique(times)) <= {1, k + 1}
    j_index = np.arange(1, k + 1)
    expected_service = np.where(times[:, :, None] == 1, 1, j_index + 1)
    assert np.array_equal(service, expected_service)
    starts = np.cumsum(times, axis=1) - times
    offsets = delivery_offsets(service)
    # group i's last delivery never passes group i+1's generation instant
    for i in range(m - 1):
        assert (offsets[:, i, -1] <= starts[:, i + 1]).all()


@settings(deadline=None, max_examples=40)
@given(small_runs())
def test_renewal_consistency(run):
    cfg, num_cycles, seed = run
    service = reference_service_times(cfg, num_cycles, seed)
    cycle_starts = np.concatenate([[0], np.cumsum(group_times(service).sum(axis=1))[:-1]])
    deliveries = cycle_starts[:, None, None] + delivery_offsets(service)
    spans = np.diff(deliveries, axis=0)
    assert np.array_equal(spans.sum(axis=0), deliveries[-1] - deliveries[0])
    generations = deliveries - service
    intervals = np.diff(generations, axis=0)
    assert np.array_equal(intervals.sum(axis=0), generations[-1] - generations[0])
    assert (intervals > 0).all()


@pytest.mark.parametrize("chunk", [1, 3, 97, 10_000])
def test_streaming_mode_matches_full_trace_exactly(chunk):
    for p in (0.3, 0.02):  # at 0.02, 39% of the intervals lie between two all-clear cycles
        cfg = validate_config(24, p, 4)
        reference = per_source_age_estimate(reference_service_times(cfg, 400, seed=21))
        flags = oracle_flags(cfg, 400, seed=21)
        streamed = estimate_in_chunks(cfg, flags, chunk)
        check_reference(streamed, reference)
        assert np.array_equal(streamed.flag_counts, flag_counts_of(cfg, flags))


def hand_built_flag_runs(m, num_cycles):
    """(name, (N, m) flags): no flag, one flagged cycle at each position, each pair of flagged cycles, all flagged."""
    none = np.zeros((num_cycles, m), dtype=bool)
    yield "none", none
    for cycle in range(num_cycles):
        flags = none.copy()
        flags[cycle, cycle % m] = True
        yield f"cycle {cycle}", flags
    for first in range(num_cycles):
        for second in range(first + 1, num_cycles):
            flags = none.copy()
            flags[first, -1] = flags[second, 0] = True
            yield f"cycles {first}, {second}", flags
    yield "every group", np.ones((num_cycles, m), dtype=bool)
    yield "one group a cycle", np.arange(num_cycles)[:, None] % m == np.arange(m)


def check_hand_built_runs(n, k):
    """Each hand-built run, fed as 1-, 2- and 3-cycle chunks and as one chunk, equals the per-source reference."""
    cfg = validate_config(n, 0.5, k)
    num_cycles = 7
    j = np.arange(1, k + 1)
    for name, flags in hand_built_flag_runs(cfg.m, num_cycles):
        reference = per_source_age_estimate(1 + j * flags[:, :, None].astype(np.int64))
        for chunk in (1, 2, 3, num_cycles):
            chunks = chunks_of(flags, chunk)
            with mock.patch.object(sim, "_flag_chunks", lambda *args: iter(chunks)):
                summary = simulate_age(cfg, num_cycles, seed=0)
            check_reference(summary, reference, name, chunk)
            assert np.array_equal(summary.flag_counts, flag_counts_of(cfg, flags)), (name, chunk)


HAND_BUILT_SHAPES = [(6, 2), (3, 3), (4, 1), (1, 1)]  # (n, k): m = 3, m = 1, k = 1, and both


@pytest.mark.parametrize("n, k", HAND_BUILT_SHAPES)
def test_estimate_equals_per_source_reference_on_hand_built_flags(n, k):
    check_hand_built_runs(n, k)


@pytest.mark.parametrize("share", [0.0, math.inf])
@pytest.mark.parametrize("n, k", HAND_BUILT_SHAPES)
def test_whole_and_gathered_blocks_equal_reference_on_hand_built_flags(n, k, share):
    # share 0 folds every chunk whole; share inf gathers the busy rows of every chunk
    with mock.patch.object(sim, "_GATHER_SHARE", share):
        check_hand_built_runs(n, k)


@st.composite
def reference_runs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    k = draw(st.sampled_from(divisors(n)))
    p = draw(st.sampled_from([0.0, 1e-3, 0.02, 0.2, 0.5, 1.0]))
    num_cycles = draw(st.integers(min_value=2, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return validate_config(n, p, k), num_cycles, seed


@settings(deadline=None, max_examples=60)
@given(reference_runs())
def test_estimates_equal_per_source_reference_exactly(run):
    cfg, num_cycles, seed = run
    reference = per_source_age_estimate(reference_service_times(cfg, num_cycles, seed))
    flags = oracle_flags(cfg, num_cycles, seed)
    for chunk in (1, 3, 97, None):
        summary = estimate_in_chunks(cfg, flags, chunk)
        check_reference(summary, reference, chunk)
        assert np.array_equal(summary.flag_counts, flag_counts_of(cfg, flags))


# p values at which qbar = 1 - (1-p)^1 is p itself, so a k = 1 run draws its sources' statuses
K1_PS = [0.0, 1e-3, 0.02, 0.2, 0.3, 0.4, 0.5, 1.0]


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=24),
    st.sampled_from(K1_PS),
    st.integers(min_value=2, max_value=60) | st.integers(min_value=1000, max_value=1100),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 3, 97, None]),
)
def test_k1_runs_equal_the_per_source_reference_bit_for_bit(n, p, num_cycles, seed, chunk):
    # at k = 1 a group's one uniform is its source's status draw, so the
    # simulator's stream is the per-source one and no estimate moves; the
    # runs of 1000 cycles or more reach N*m*qbar >= 1 at p = 1e-3
    cfg = validate_config(n, p, 1)
    assert cfg.qbar == p
    assume(draws_uniforms(cfg, num_cycles))
    reference = per_source_age_estimate(reference_service_times(cfg, num_cycles, seed))
    summary = simulate_age_in_chunks(cfg, num_cycles, seed, chunk)
    check_reference(summary, reference)
    assert np.array_equal(summary.flag_counts, flag_counts_of(cfg, oracle_flags(cfg, num_cycles, seed)))


@settings(deadline=None, max_examples=40)
@given(reference_runs(), st.sampled_from([1, 3, 97]))
def test_estimates_and_flags_do_not_depend_on_the_chunk_size(run, chunk):
    cfg, num_cycles, seed = run
    whole = simulate_age(cfg, num_cycles, seed)
    chunked = simulate_age_in_chunks(cfg, num_cycles, seed, chunk)
    assert np.array_equal(chunked.interval_sums, whole.interval_sums)
    assert chunked.overall_age == whole.overall_age
    assert chunked.standard_error == whole.standard_error
    assert np.array_equal(chunked.flag_counts, whole.flag_counts)
    whole_flags = simulated_flags(cfg, num_cycles, seed)
    with mock.patch.object(sim, "CHUNK_DRAWS", chunk * cfg.m):
        assert np.array_equal(simulated_flags(cfg, num_cycles, seed), whole_flags)


@pytest.mark.parametrize("n, k", [(12, 3), (24, 24), (7, 1), (1200, 24)])
def test_flags_are_exact_at_p_zero_and_one(n, k):
    for p, value in ((0.0, False), (1.0, True)):
        flags = simulated_flags(validate_config(n, p, k), 300, seed=8)
        assert flags.shape == (300, n // k)
        assert (flags == value).all()


def chi_square_statistic(observed, expected) -> tuple[float, int]:
    """Pearson's statistic over the cells, pooled from the rarest up until each holds >= 5 expected; (statistic, cells)."""
    order = np.argsort(expected)
    cells, pool_observed, pool_expected = [], 0.0, 0.0
    for i in order:
        pool_observed += observed[i]
        pool_expected += expected[i]
        if pool_expected >= 5.0:
            cells.append((pool_observed, pool_expected))
            pool_observed = pool_expected = 0.0
    if pool_expected > 0.0:  # the rest joins the last full cell
        last_observed, last_expected = cells.pop()
        cells.append((last_observed + pool_observed, last_expected + pool_expected))
    return sum((o - e) ** 2 / e for o, e in cells), len(cells)


# (n, p, k, cycles): wide and narrow groups, k*p from 3e-3 to 0.5, and one group
FLAG_LAW_RUNS = [(120, 0.1, 4, 20_000), (1200, 0.01, 24, 5_000), (4, 0.5, 2, 50_000), (12, 1e-3, 3, 100_000), (10, 0.05, 10, 20_000)]


@pytest.mark.parametrize("n, p, k, cycles", FLAG_LAW_RUNS)
def test_flagged_group_counts_follow_the_binomial_law(n, p, k, cycles):
    cfg = validate_config(n, p, k)
    observed = simulate_age(cfg, cycles, seed=101).flag_counts
    expected = cycles * np.array(flagged_group_count_pmf(cfg.m, k, p))
    statistic, cells = chi_square_statistic(observed, expected)
    assert cells >= 2
    assert chi_square_tail(statistic, cells - 1) >= FLAG_LAW_ALPHA


def pair_table_tail(first, second, qbar) -> float:
    """Chi-square tail of the 2x2 counts of flag pairs against independent Bernoulli(qbar) flags (3 degrees of freedom)."""
    observed = np.bincount(2 * first.astype(np.int64) + second, minlength=4)
    chance = np.array([1 - qbar, qbar])
    expected = len(first) * np.outer(chance, chance).ravel()
    return chi_square_tail(float(((observed - expected) ** 2 / expected).sum()), 3)


@pytest.mark.parametrize("n, p, k, cycles", FLAG_LAW_RUNS[:3])
def test_flags_are_independent_at_lag_one_and_across_adjacent_groups(n, p, k, cycles):
    # disjoint pairs, so that each pair is an independent draw of the 2x2
    # table: cycles 2c and 2c + 1 of a group, groups 2g and 2g + 1 of a
    # cycle, and each cycle's last group with the next cycle's first (the
    # cycle counts are even, so each pair list has both its halves whole)
    cfg = validate_config(n, p, k)
    qbar = 1 - (1 - p) ** k
    flags = simulated_flags(cfg, cycles, seed=202)
    pairs = [(flags[0::2].ravel(), flags[1::2].ravel())]
    if cfg.m > 1:
        pairs.append((flags[:, 0 : cfg.m - 1 : 2].ravel(), flags[:, 1::2].ravel()))
    pairs.append((flags[0:-1:2, -1], flags[1::2, 0]))
    for first, second in pairs:
        assert pair_table_tail(first, second, qbar) >= FLAG_LAW_ALPHA


# (n, p, k, cycles) with N*m*qbar about 0.5, so that simulate_age draws only
# the flagged slots: two slots over two cycles, where a slot off by one shows;
# four groups over eight cycles; 30 groups over ten; and one source over three
# default chunks and more, where a draw that restarted each chunk would repeat
# its flags
SLOT_LAW_RUNS = [
    (2, 0.125, 1, 2),
    (12, 0.0052, 3, 8),
    (60, 8.3e-4, 2, 10),
    (1, 0.5 / (3 * sim.CHUNK_DRAWS + 5), 1, 3 * sim.CHUNK_DRAWS + 5),
]
SLOT_LAW_SEEDS = range(2500)


@pytest.mark.parametrize("n, p, k, cycles", SLOT_LAW_RUNS)
def test_slot_sampler_flag_totals_follow_the_binomial_law(n, p, k, cycles):
    cfg = validate_config(n, p, k)
    assert 0.4 < cycles * cfg.m * cfg.qbar < 0.6 and not draws_uniforms(cfg, cycles)
    groups = np.arange(cfg.m + 1)
    totals = [int(simulate_age(cfg, cycles, seed).flag_counts @ groups) for seed in SLOT_LAW_SEEDS]
    head = flagged_group_count_pmf(cycles * cfg.m, k, p, terms=8)  # Binomial(N*m, qbar) at 0..7
    expected = len(SLOT_LAW_SEEDS) * np.array(head + [1.0 - sum(head)])
    observed = np.bincount(np.minimum(totals, len(head)), minlength=len(head) + 1)
    statistic, cells = chi_square_statistic(observed, expected)
    assert cells >= 2
    assert chi_square_tail(statistic, cells - 1) >= FLAG_LAW_ALPHA


def slot_sampler_draws(cfg, cycles) -> list[np.ndarray]:
    """Each seeded run's flagged slot positions, start*m + np.flatnonzero(block) over its stretches from cycle 0 on.

    They are checked to increase strictly and to lie among the run's N*m slots.
    """
    runs = []
    for seed in SLOT_LAW_SEEDS:
        start, flat = 0, []
        for count, block in sim._flagged_slot_stretches(cfg, seed, cycles):
            flat.append(start * cfg.m + np.flatnonzero(block))
            start += count
        runs.append(np.concatenate(flat))
    for positions in runs:
        assert (np.diff(positions) > 0).all()
        assert ((positions >= 0) & (positions < cycles * cfg.m)).all()
    return runs


@pytest.mark.parametrize("n, p, k, cycles", SLOT_LAW_RUNS[:3])
def test_flagged_slots_fall_uniformly_on_cycles_and_groups(n, p, k, cycles):
    cfg = validate_config(n, p, k)
    positions = np.concatenate(slot_sampler_draws(cfg, cycles))
    for index, cells in ((positions // cfg.m, cycles), (positions % cfg.m, cfg.m)):
        expected = np.full(cells, len(positions) / cells)
        statistic, pooled = chi_square_statistic(np.bincount(index, minlength=cells), expected)
        assert pooled == cells
        assert chi_square_tail(statistic, cells - 1) >= FLAG_LAW_ALPHA


@pytest.mark.parametrize("n, p, k, cycles", SLOT_LAW_RUNS[:3])
def test_flagged_slot_gaps_follow_the_geometric_law(n, p, k, cycles):
    # the gap g from slot -1, or from a flagged slot, to the next flagged
    # slot: N*m slots flagged independently with chance qbar hold on average
    # qbar*(1-qbar)^(g-1) * (1 + (N*m - g)*qbar) such gaps, g = 1..N*m. The
    # number of gaps is random, so no cell's count is fixed by the others'
    cfg = validate_config(n, p, k)
    slots, qbar = cycles * cfg.m, cfg.qbar
    gaps = np.concatenate([np.diff(positions, prepend=-1) for positions in slot_sampler_draws(cfg, cycles)])
    g = np.arange(1, slots + 1)
    expected = len(SLOT_LAW_SEEDS) * qbar * (1 - qbar) ** (g - 1) * (1 + (slots - g) * qbar)
    statistic, cells = chi_square_statistic(np.bincount(gaps - 1, minlength=slots), expected)
    assert cells >= 2
    assert chi_square_tail(statistic, cells) >= FLAG_LAW_ALPHA


@pytest.mark.parametrize("n, p, k, cycles", SLOT_LAW_RUNS)
def test_slot_sampler_stretches_hold_one_flagged_cycle_each(n, p, k, cycles):
    # the stretches cover the run's N cycles from cycle 0 on, and every one after
    # the first starts at a flagged cycle, whose flags are its only ones; its block
    # holds that cycle and the next, and a flagless first stretch's holds no row
    cfg = validate_config(n, p, k)
    for seed in SLOT_LAW_SEEDS:
        stretches = list(sim._flagged_slot_stretches(cfg, seed, cycles))
        assert sum(count for count, _ in stretches) == cycles
        for index, (count, block) in enumerate(stretches):
            positions = np.flatnonzero(block)
            assert count >= 1 and block.dtype == bool
            assert block.shape == (min(2, count) if len(positions) else 0, cfg.m)
            assert (positions < cfg.m).all()  # no flag after the stretch's first cycle
            assert index == 0 or len(positions)
    slot_sampler_draws(cfg, cycles)  # laid end to end from cycle 0, they increase strictly within [0, N*m)


def estimate_from_stretches(cfg, flags, cuts):
    """sim._estimate of an (N, m) flag trace fed as (cycles, block) stretches, cut before each cycle of cuts.

    A stretch's block holds its first cycles only through its last busy row,
    a row r being busy when cycle r or r-1 is flagged, and no row when it has
    none: as in _flagged_slot_stretches, every row past a block is quiet.
    """
    bounds = sorted({0, *cuts, len(flags)})
    busy = flags.any(axis=1)
    busy[1:] = busy[1:] | busy[:-1]
    stretches = []
    for start, end in zip(bounds, bounds[1:]):
        rows = np.flatnonzero(busy[start:end])
        stretches.append((end - start, flags[start:end][: rows[-1] + 1 if len(rows) else 0]))
    return sim._estimate(cfg, stretches)


@st.composite
def sparse_flag_runs(draw):
    """(config, (N, m) flags, chunk): a few flagged slots, some on the first, last and chunk-boundary cycles."""
    n = draw(st.integers(min_value=1, max_value=24))
    k = draw(st.sampled_from(divisors(n)))
    m = n // k
    num_cycles = draw(st.integers(min_value=2, max_value=40))
    chunk = draw(st.integers(min_value=1, max_value=num_cycles))
    edges = [0, num_cycles - 1, chunk - 1, min(chunk, num_cycles - 1)]
    cycles = draw(st.lists(st.sampled_from(edges) | st.integers(0, num_cycles - 1), max_size=6))
    groups = draw(st.lists(st.integers(0, m - 1), min_size=len(cycles), max_size=len(cycles)))
    flags = np.zeros((num_cycles, m), dtype=bool)
    flags[cycles, groups] = True
    return validate_config(n, 0.5, k), flags, chunk


def flags_at(num_cycles, m, *slots) -> np.ndarray:
    """An (N, m) flag trace flagged at the given (cycle, group) slots."""
    flags = np.zeros((num_cycles, m), dtype=bool)
    flags[tuple(np.array(slots).T)] = True
    return flags


@settings(deadline=None, max_examples=150)
@given(sparse_flag_runs())
# cut at each flagged cycle, as the slot sampler feeds a run: a leading quiet stretch, the
# back-to-back flagged cycles 2 and 3, and a flagged last cycle; then cycle 0 flagged
@example((validate_config(6, 0.5, 2), flags_at(8, 3, (2, 0), (2, 2), (3, 1), (7, 0)), 3))
@example((validate_config(3, 0.5, 1), flags_at(5, 3, (0, 1), (1, 0), (4, 2)), 2))
def test_fold_fed_stretch_blocks_equals_whole_chunk_fold_and_reference(run):
    # share 0 folds every block whole; share inf gathers the busy rows of every block
    cfg, flags, chunk = run
    j = np.arange(1, cfg.k + 1)
    reference = per_source_age_estimate(1 + j * flags[:, :, None].astype(np.int64))
    cuts = (range(chunk, len(flags), chunk), [], np.flatnonzero(flags.any(axis=1)).tolist())
    for share in (0.0, math.inf):
        with mock.patch.object(sim, "_GATHER_SHARE", share):
            whole = estimate_in_chunks(cfg, flags, None)
            for summary in (whole, *(estimate_from_stretches(cfg, flags, at) for at in cuts)):
                check_reference(summary, reference, share)
                assert np.array_equal(summary.flag_counts, flag_counts_of(cfg, flags))


@st.composite
def gather_chunks(draw):
    """(m, cycles, sorted flat positions, tail_flagged): a few flagged slots, some side by side and on the chunk's edges."""
    m = draw(st.sampled_from([1, 2, 3, 7]))
    cycles = draw(st.integers(min_value=1, max_value=30))
    rows = draw(st.lists(st.sampled_from([0, min(1, cycles - 1), cycles - 1]) | st.integers(0, cycles - 1), max_size=8))
    groups = draw(st.lists(st.integers(0, m - 1), min_size=len(rows), max_size=len(rows)))
    positions = np.unique(np.array(rows, dtype=np.int64) * m + np.array(groups, dtype=np.int64))
    tail_flagged = draw(st.booleans()) or not len(positions)  # _fold skips a chunk with neither
    return m, cycles, positions, tail_flagged


@st.composite
def dense_gather_chunks(draw):
    """(m, cycles, sorted flat positions, tail_flagged): long chunks with up to a third of their slots flagged.

    Flagged rows then often sit one or two apart, so the rows r-1, r and r+1
    around neighbouring flagged rows overlap.
    """
    m = draw(st.integers(min_value=1, max_value=30))
    cycles = draw(st.integers(min_value=100, max_value=400))
    count = draw(st.integers(min_value=0, max_value=cycles * m // 3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    positions = np.sort(rng.choice(cycles * m, size=count, replace=False))
    tail_flagged = draw(st.booleans()) or not len(positions)
    return m, cycles, positions, tail_flagged


@settings(deadline=None, max_examples=200)
@given(gather_chunks() | dense_gather_chunks(), st.sampled_from([1, 2, 3]), st.booleans())
def test_gathered_chunk_folds_as_the_whole_chunk_and_the_reference(case, k, flagged_after):
    # the chunk follows a two-cycle chunk whose last cycle is flagged when tail_flagged, and
    # precedes a one-cycle chunk, flagged when flagged_after; share 0 folds every chunk whole,
    # share inf gathers the busy rows of every chunk
    m, cycles, positions, tail_flagged = case
    cfg = validate_config(m * k, 0.5, k)
    chunk = np.zeros(cycles * m, dtype=bool)
    chunk[positions] = True
    chunk = chunk.reshape(cycles, m)
    before = np.array([[True] + [False] * (m - 1), [False] * (m - 1) + [tail_flagged]])
    flags = np.concatenate((before, chunk, np.full((1, m), flagged_after)))
    j = np.arange(1, k + 1)
    reference = per_source_age_estimate(1 + j * flags[:, :, None].astype(np.int64))
    # m <= _CENSUS_GROUPS folds by the census, wider m by _fold_block
    used, unused = ("_fold_census", "_fold_block")[:: 1 if m <= sim._CENSUS_GROUPS else -1]
    for share in (0.0, math.inf):
        with mock.patch.object(sim, "_GATHER_SHARE", share):
            with mock.patch.object(sim, used, wraps=getattr(sim, used)) as fold, mock.patch.object(sim, unused) as other:
                summary = sim._estimate(cfg, [(2, before), (cycles, chunk), (1, flags[-1:])])
        check_reference(summary, reference, share)
        assert np.array_equal(summary.flag_counts, flag_counts_of(cfg, flags))
        assert not other.called
        block = fold.call_args_list[1].args[0]  # the first chunk is flagged, so it is folded too
        if share == 0.0:
            assert block is chunk
            continue
        # the gathered rows: the rows r-1, r and r+1 of each flagged row r, and row 0 after a flagged tail
        flagged = np.unique(positions // m)
        candidates = np.concatenate((flagged - 1, flagged, flagged + 1, np.zeros(int(tail_flagged), dtype=np.int64)))
        rows = np.unique(candidates[(candidates >= 0) & (candidates < cycles)])
        assert np.array_equal(block, chunk[rows])
        busy = chunk.any(axis=1) | np.concatenate(([tail_flagged], chunk[:-1].any(axis=1)))
        assert set(np.flatnonzero(busy)) <= set(rows.tolist())
        for i, row in enumerate(rows):
            if busy[row]:  # folded after the chunk row before it, or after the previous chunk's last
                assert rows[i - 1] == row - 1 if row else i == 0
            else:  # all clear after an all-clear row, so it folds to C = F = 0 as a quiet row
                assert not block[i].any()
                assert not block[i - 1].any() if i else not tail_flagged


# The widest group count whose dense blocks fold in int32: m^3 < 2^31 <= (m + 1)^3.
INT32_M = 1290


def exact_sums(u: list[int], v: list[int]) -> list[int]:
    """The nine sums of per-row deviations that _add_exact_sums adds, in its order, in Python ints."""
    lagged = range(len(u) - 1)
    return [
        sum(u),
        sum(v),
        sum(a * a for a in u),
        sum(a * b for a, b in zip(u, v)),
        sum(b * b for b in v),
        sum(u[i] * u[i + 1] for i in lagged),
        sum(u[i] * v[i + 1] for i in lagged),
        sum(v[i] * u[i + 1] for i in lagged),
        sum(v[i] * v[i + 1] for i in lagged),
    ]


def check_fold_against_instants(block, prior_row, k, census=False):
    """_fold_block, or _fold_census, on the rows of block after prior_row equals the instants-based oracle.

    The nine sums, head and tail, all that _fold keeps of the rows'
    deviations, are checked against the oracle's per-row pooled sums.
    Returns (counts padded to m + 1, per-group sums, nine sums, head, tail).
    """
    rows, m = block.shape
    suffix = np.cumsum(prior_row[::-1])[::-1]  # flags at or after each group in the prior row
    group_sums = np.zeros((4, m), dtype=np.int64)
    totals = [0] * 9
    fold = sim._fold_census if census else sim._fold_block
    counts, head, tail = fold(block, prior_row, group_sums, totals, k)
    counts = np.pad(counts, (0, m + 1 - len(counts)))
    lengths, per_group, pooled = instants_fold_block(block, m - np.arange(m) + k * suffix, k)
    lengths = np.pad(lengths, (0, m * (k + 1) + 1 - len(lengths)))  # a cycle lasts m + k*F slots
    assert np.array_equal(lengths[m::k], counts)
    assert lengths.sum() == counts.sum() == rows
    sum_c, sum_cc, sum_cf, sum_f = (row.astype(object) for row in group_sums)
    assert list(per_group[0]) == list(rows * m + k * sum_c)
    assert list(per_group[1]) == list(rows * m * m + 2 * m * k * sum_c + k * k * sum_cc)
    assert list(per_group[2]) == list(m * sum_f + k * sum_cf)
    u, v = (pooled - np.array([[k * m * m], [k * m * m * (m + 2)]])).tolist()
    assert totals == exact_sums(u, v)
    assert (head, tail) == ((u[0], v[0]), (u[-1], v[-1]))
    return counts, group_sums, totals, head, tail


def after_row_0(draw, block, prior_row, k):
    """(block, prior row, k), or, when drawn and block has two rows or more, its rows from row 1 on after its row 0."""
    if len(block) > 1 and draw(st.booleans()):
        return block[1:], block[0], k
    return block, prior_row, k


@st.composite
def fold_blocks(draw):
    """(block, prior row, k): random flags at a random density, after a random prior row or after the block's row 0.

    m falls on both sides of 255/256, where the window sums pass from uint8
    to uint16, and of INT32_M, where the sums pass from int32 to int64.
    """
    m = draw(st.sampled_from([1, 2, 3, 7, 30, 127, 128, 255, 256, INT32_M, INT32_M + 1]))
    rows = draw(st.integers(min_value=1, max_value=3 if m >= INT32_M else 40))
    k = draw(st.sampled_from([1, 2, 5, 1000]))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    block = rng.random((rows, m)) < density
    prior_row = rng.random(m) < density
    return after_row_0(draw, block, prior_row, k)


@settings(deadline=None, max_examples=200)
@given(fold_blocks())
def test_fold_block_equals_the_instants_fold(case):
    check_fold_against_instants(*case)


# m = 1 at this k is the widest group _check_int64_totals admits: an all-flagged row's v is within 2^44
# of 2^63, so its products reach 2^126
WIDEST_K = 1_664_509


@st.composite
def census_blocks(draw):
    """(block, prior row, k) at m <= _CENSUS_GROUPS: one row, consecutive rows or a gathered block, as after_row_0.

    A gathered block is _fold's: the rows r-1, r and r+1 of each flagged row
    r of a chunk, and its row 0 after a flagged prior row.
    """
    m = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.sampled_from([1, 2, 1000, 20_000, *([WIDEST_K] if m == 1 else [])]))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    prior_row = np.zeros(m, dtype=bool)
    if draw(st.booleans()):  # a flagged prior row
        prior_row = rng.random(m) < density
        prior_row[rng.integers(m)] = True
    shape = draw(st.sampled_from(["one row", "consecutive", "gathered"]))
    rows = draw(st.integers(min_value=2, max_value=40))
    block = rng.random((1 if shape == "one row" else rows, m)) < density
    if shape == "gathered":
        busy = np.zeros(rows + 1, dtype=bool)
        flagged = np.flatnonzero(block.any(axis=1))
        busy[flagged] = busy[flagged + 1] = True
        busy[0] |= prior_row.any()
        block = block[np.flatnonzero(busy[:-1] | busy[1:])]
        assume(len(block))
    return after_row_0(draw, block, prior_row, k)


@settings(deadline=None, max_examples=300)
@given(census_blocks())
@example((np.ones((3, 1), dtype=bool), np.ones(1, dtype=bool), WIDEST_K))
@example((np.ones((1, 3), dtype=bool), np.ones(3, dtype=bool), 20_000))
def test_census_folds_as_fold_block_and_the_instants_fold(case):
    census = check_fold_against_instants(*case, census=True)
    fold_block = check_fold_against_instants(*case)
    for a, b in zip(census, fold_block, strict=True):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("m", [1, 2, 3])
def test_census_tables_are_built_once_per_m_and_read_only(m):
    tables = sim._census_tables(m)
    assert sim._census_tables(m) is tables
    for array in (tables.row, tables.phi, tables.phi_by_row):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] += 1


@pytest.mark.parametrize("rows", [INT32_M, INT32_M + 1])
def test_fold_block_is_exact_at_the_int32_bound(rows):
    # every slot flagged: each C is m, so a group's sum of C^2 over the rows and a
    # row's are rows*m^2 and m^3; at rows = 1290 both sit just below 2^31 and the
    # block folds in int32, at 1291 rows*m^2 passes 2^31 and it folds in int64
    assert INT32_M**3 < 2**31 <= (INT32_M + 1) ** 3
    assert (rows * INT32_M**2 < 2**31) == (rows == INT32_M)
    block = np.ones((rows, INT32_M), dtype=bool)
    for start in (0, 1):  # after an all-flagged prior row, or from row 1 on after row 0
        check_fold_against_instants(block[start:], np.ones(INT32_M, dtype=bool), 1)


@pytest.mark.parametrize("m, window_type", [(255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)])
def test_fold_block_is_exact_at_the_window_type_bounds(m, window_type):
    # every slot flagged: each C and each row's flag total is m, the largest value of
    # uint8 at m = 255 and of uint16 at m = 65535, and one past it at m = 256 and 65536,
    # where the narrower type would wrap to 0, so each m takes the narrowest type that holds it;
    # _check_int64_totals admits k = 1000 at m = 256, but not k = 40 at m = 65535
    block = np.ones((3, m), dtype=bool)
    for start in (0, 1):  # after an all-flagged prior row, or from row 1 on after row 0
        for k in (1, 1000 if m <= 256 else 20):
            with mock.patch.object(sim, "_window_sums", wraps=sim._window_sums) as window_sums:
                check_fold_against_instants(block[start:], np.ones(m, dtype=bool), k)
            assert window_sums.call_args.args[0].dtype == window_type


# (window type, fewest and most window widths): every uint8 and uint16 width, and one uint32 width
WINDOW_WIDTHS = [(np.uint8, 1, 2**8 - 1), (np.uint16, 2**8, 2**16 - 1), (np.uint32, 2**16 + 1, 2**16 + 1)]


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(WINDOW_WIDTHS).flatmap(lambda w: st.tuples(st.just(w[0]), st.integers(w[1], w[2]))),
    st.integers(min_value=0, max_value=300),
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_window_sums_equal_sliding_window_sums(width, extra, density, seed):
    window_type, m = width
    flags = (np.random.default_rng(seed).random(m + extra) < density).astype(window_type)
    counts = np.concatenate(([0], np.cumsum(flags, dtype=np.int64)))  # counts[i]: the flags before entry i
    windows = sim._window_sums(flags.copy(), m)
    assert windows.dtype == window_type
    assert np.array_equal(windows, counts[m:] - counts[:-m])


@pytest.mark.parametrize("share", [0.0, math.inf])
@pytest.mark.parametrize("m", [INT32_M, INT32_M + 1])
def test_runs_at_the_int32_group_bound_are_exact(m, share):
    # k = 1, so the groups are the sources; m = 1290 folds its dense chunks in
    # int32 and m = 1291 in int64. Share 0 folds every chunk whole, share inf
    # gathers the busy rows of every chunk. 210 cycles are two chunks.
    num_cycles = sim._cycles_per_chunk(validate_config(m, 0.5, 1)) + 7
    with mock.patch.object(sim, "_GATHER_SHARE", share):
        everything = simulate_age(validate_config(m, 1.0, 1), num_cycles, seed=0)
        assert (per_source_ages(everything.interval_sums, 1) == m + 2).all()
        assert everything.overall_age == m + 2
        assert everything.standard_error == 0.0
        assert everything.flag_counts[m] == num_cycles
        cfg = validate_config(m, 0.5, 1)
        assert draws_uniforms(cfg, num_cycles)
        summary = simulate_age(cfg, num_cycles, seed=9)
    reference = per_source_age_estimate(reference_service_times(cfg, num_cycles, seed=9))
    check_reference(summary, reference)
    assert summary.standard_error > 0.0


def test_streaming_peak_memory_is_one_chunk():
    cfg = validate_config(1200, 0.01, 24)
    _, peak = traced_peak(simulate_age, cfg, 12_800, 0)
    assert peak < 64 * 2**20


def test_widest_group_run_keeps_nothing_k_long():
    # m = 1 and k = 1 664 509, the largest group the int64 check admits: its (m, k)
    # per-source estimates once traced 38.9 MiB of this run, its per-group sums take 24 bytes
    cfg = validate_config(1_664_509, 0.5, 1_664_509)
    summary = simulate_age(cfg, 2, 0)
    assert summary.interval_sums.shape == (3, 1)
    assert traced_peak(simulate_age, cfg, 2, 0)[1] < 4 * 2**20


def test_peak_memory_does_not_grow_with_the_cycle_count():
    # about one cycle in 10^5 is flagged at this p, so a run is mostly its
    # uniform draws, in chunks of CHUNK_DRAWS cycles; nothing may be kept per cycle
    cfg = validate_config(1, 1e-5, 1)
    assert draws_uniforms(cfg, 2 * sim.CHUNK_DRAWS) and cfg.p > 0.0
    two_chunks = traced_peak(simulate_age, cfg, 2 * sim.CHUNK_DRAWS, 0)[1]
    long_run = traced_peak(simulate_age, cfg, 1_000_000, 0)[1]
    assert long_run <= two_chunks + 2**20
    assert long_run < 8 * 2**20


def test_near_all_clear_run_memory_follows_its_flags():
    # N*m*qbar = 1e-3: the run draws only its flagged slots, so 10^9 cycles
    # need no per-cycle array; one bool a cycle would take 954 MiB
    cfg = validate_config(1, 1e-12, 1)
    assert not draws_uniforms(cfg, 10**9)
    assert traced_peak(simulate_age, cfg, 10**9, 0)[1] < 2**20


def test_slot_run_memory_does_not_grow_with_its_flagged_cycles():
    # N*m*qbar = 0.9: the run draws only its flagged slots, and each flagged
    # cycle is a stretch of its own, so no fold block holds more than two rows
    cfg = validate_config(50_000, 1.8e-7, 1)
    assert not draws_uniforms(cfg, 100)
    flagged_cycles = {
        seed: sum(block.any() for _, block in sim._flagged_slot_stretches(cfg, seed, 100)) for seed in range(60)
    }
    one = next(seed for seed, count in flagged_cycles.items() if count == 1)
    many = max(flagged_cycles, key=flagged_cycles.get)
    assert flagged_cycles[many] >= 4
    assert traced_peak(simulate_age, cfg, 100, many)[1] <= traced_peak(simulate_age, cfg, 100, one)[1] + 2**16


@st.composite
def deviation_chunks(draw):
    """(2, rows) int64 values 0 <= u <= v, max v of the drawn bit length: 0 to 62, or a limb's width or one bit more."""
    rows = draw(st.integers(min_value=1, max_value=300))
    width = (62 - rows.bit_length()) // 2  # _add_exact_sums' limb width at this row count
    bits = draw(st.sampled_from([0, 1, 8, 20, 31, 40, 62, width, width + 1]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 2**bits, size=rows, dtype=np.int64)
    v[rng.integers(rows)] = 2**bits - 1  # the chunk maximum sits at the top of the range
    u = (v * rng.random(rows)).astype(np.int64)
    return np.stack((np.minimum(u, v), v))


@settings(deadline=None, max_examples=200)
@given(deviation_chunks())
def test_exact_sums_equal_python_integer_sums(deviations):
    totals = [0] * 9
    sim._add_exact_sums(totals, deviations)
    assert totals == exact_sums(*deviations.tolist())


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=0, max_value=2**300),
    st.integers(min_value=1, max_value=2**150),
    st.integers(min_value=1, max_value=2**80) | st.integers(min_value=2**52, max_value=2**53 - 1).map(lambda h: 2 * h + 1),
    st.integers(min_value=-80, max_value=80),
)
def test_standard_error_rounds_its_square_root_once(x, d, j, shift):
    assert sim._rounded_sqrt_ratio(x, d) == nearest_float_sqrt(Fraction(x, d * d))
    square = x * x  # a root that is exact
    assert sim._rounded_sqrt_ratio(square, d) == nearest_float_sqrt(Fraction(square, d * d)) == x / d
    # The divisor divides the scaled root of (j*d)^2, the one case where a rounding boundary can
    # touch [root/d, (root+1)/d). An odd j of 54 bits, scaled by 2^shift, is a tie between two
    # floats, so the square and its neighbours pin the tie-break and the inexact root's side.
    divisor = d << max(0, -shift)
    j <<= max(0, shift)
    for square in ((j * d) ** 2 - 1, (j * d) ** 2, (j * d) ** 2 + 1):
        assert sim._rounded_sqrt_ratio(square, divisor) == nearest_float_sqrt(Fraction(square, divisor * divisor))


def _rows_past_one_int64_dot(cfg):
    # a whole chunk's rows, each with the all-flagged double area's deviation v
    rows = sim._cycles_per_chunk(cfg)
    v = _worst_row_area(cfg) - cfg.k * cfg.m**2 * (cfg.m + 2)
    return rows * v * v


def test_all_flagged_run_past_one_int64_dot_has_exact_age_and_zero_error():
    cfg = validate_config(900, 1.0, 1)  # m = 900: v is about 2.2e9 on every row
    assert _rows_past_one_int64_dot(cfg) > 2**63  # one dot over a chunk's rows would overflow
    summary = simulate_age(cfg, 2 * sim._cycles_per_chunk(cfg) + 5, seed=0)
    m, k = cfg.m, cfg.k
    assert summary.standard_error == 0.0
    assert (per_source_ages(summary.interval_sums, k)[:, 0] == m * (k + 1) / 2 + 2).all()


@pytest.mark.parametrize("chunk", [1, 2, None])
def test_run_past_one_int64_dot_equals_per_source_reference(chunk):
    cfg = validate_config(2000, 0.5, 1)  # v up to about 1e10 on 6 rows
    assert _rows_past_one_int64_dot(cfg) > 2**63
    assert draws_uniforms(cfg, 7)
    reference = per_source_age_estimate(reference_service_times(cfg, 7, seed=4))
    summary = simulate_age_in_chunks(cfg, 7, 4, chunk)
    check_reference(summary, reference)
    assert summary.standard_error > 0.0


# One seeded run per fold path: (n, p, k, cycles, seed) and its standard_error.hex(), the md5 of the
# little-endian bytes of flag_counts and of interval_sums, and overall_age.hex(). The sums' digests
# were taken from the fold of the same flags before the summary kept per-group sums, so they did not
# move, and those of "dense m = 2" and "multi-chunk m = 3" from _fold_block's fold, before the census
# took m <= 3; the CSV digests round to 12 significant digits, so these pin the last bit.
PINNED_RUNS = {
    "dense int32": (
        (120, 0.1, 4, 2000, 1),
        (
            "0x1.f342c6b484d79p-4",
            "9ad1aed3ff171c7b86abb160d80da571",
            "c4b6ba1afcaa816771ff8fcbdf44ba18",
            "0x1.3224399999363p+5",
        ),
    ),
    "limbs": (
        (1200, 0.01, 24, 3000, 1),
        (
            "0x1.640f8e501c81dp-1",
            "ff99c0a7625015a1a5951f45ee4f0aa3",
            "9536c608a315890e091572e82cc5c128",
            "0x1.4a33db0a471eep+7",
        ),
    ),
    "int64 fallback": (
        (2000, 0.5, 1, 300, 1),
        (
            "0x1.586a2f6fc8fe5p-1",
            "ecacc7cc041e8f6ba37225781f9811e9",
            "9efe62d2c643dc090d2d6eebc67f0553",
            "0x1.777eb09dc76ddp+10",
        ),
    ),
    "sparse gathered": (
        (120, 1e-4, 4, 20000, 1),
        (
            "0x1.d1cc0ffca44bap-10",
            "49a9964829a3e3c8a1f33eb83203694c",
            "91d30a86d763505196850d075682b622",
            "0x1.006c57b00bc41p+4",
        ),
    ),
    "slot-drawn": (
        (120, 3e-8, 4, 250000, 2),
        (
            "0x1.11265a1dbd095p-16",
            "cd590e0328281301746ee0dd04693383",
            "53b5328ccdbc27e59ea717dd83bff09e",
            "0x1.00001d91e5e52p+4",
        ),
    ),
    "multi-chunk": (
        (1, 0.3, 1, 3 * sim.CHUNK_DRAWS + 5, 1),
        (
            "0x1.b97bf9c1517f8p-11",
            "cc671785a4fda83ac2cb0f54be41050a",
            "a077249ea8f0608c3cb9a02749a80058",
            "0x1.0402d3183e17cp+1",
        ),
    ),
    # three chunks of one group, each with about 2600 flags, so 2*hits < _GATHER_SHARE*cycles and
    # every chunk is gathered; seed 185, the first of seeds 0-399 whose first chunk's last cycle is
    # flagged, so the second chunk gathers its row 0 after a flagged tail
    "gathered m = 1": (
        (1, 0.01, 1, 3 * sim.CHUNK_DRAWS, 185),
        (
            "0x1.d297cb4c3ec6dp-13",
            "0777f6f6af8898532a9b4bfac3a54f5d",
            "e60ae7a5651737358a77916386e8abb7",
            "0x1.851c5ec8803e9p+0",
        ),
    ),
    # the benchmark's dense m = 2 shape: one chunk, one block of 10 000 rows, folded by the census
    "dense m = 2": (
        (4, 0.5, 2, 10_000, 1),
        (
            "0x1.345925c7a15afp-7",
            "07fe31e05fae48964a344c7406574f42",
            "f34b36da15a3503dd1d181e5ec7ac9ad",
            "0x1.31446d08ee8dap+2",
        ),
    ),
    # three whole chunks of three groups and a five-cycle one, each a census block after the last
    "multi-chunk m = 3": (
        (6, 0.2, 2, 3 * (sim.CHUNK_DRAWS // 3) + 5, 1),
        (
            "0x1.4bf187b16a02ep-9",
            "26b09689b9143b52555601a66d7fc675",
            "832b24789bbda26cbcc2826a8305f0a8",
            "0x1.18e7717e20b24p+2",
        ),
    ),
    # N*m*qbar is about 0.96, so the run draws only its flagged slots; seed 23, the first of seeds
    # 0-2999 with a one-cycle stretch between two others, flags cycles 1, 4 and 5, so cycle 4 is one
    "slot-drawn back to back": (
        (60, 1.6e-3, 2, 10, 23),
        (
            "0x1.2201891818410p-3",
            "2a9b07d5d9223c62f21e01795185b89e",
            "02c268a8d996a7539c6edd8b75092768",
            "0x1.05d37a6f4de9bp+4",
        ),
    ),
    # m = CHUNK_DRAWS, so each chunk holds one cycle: the first chunk is cycle 0 alone, which closes no
    # interval, and each later one-row block folds after the cycle before it
    "dense one-cycle chunks": (
        (sim.CHUNK_DRAWS, 0.3, 1, 4, 1),
        (
            "0x1.569dfc6de11e0p+5",
            "642a1ac69dcaa899e2cc2db874e0bb5c",
            "a360f2c70c6909d7d739f3afcf818aa0",
            "0x1.4cd22f3c9bb54p+17",
        ),
    ),
    # drawn by its flagged slots as "slot-drawn back to back" is; seed 25, the first seed that flags
    # cycle 0, so the run's first stretch starts at a flagged cycle 0
    "slot-drawn flagged cycle 0": (
        (60, 1.6e-3, 2, 10, 25),
        (
            "0x1.84cb7b5fc5f33p-4",
            "fb2130c88f72b9bc48c883db20229020",
            "18832da4036286c85fd5c8ea2000f3e8",
            "0x1.092c6485b060bp+4",
        ),
    ),
}


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_seeded_runs_are_pinned_to_the_last_bit(name):
    (n, p, k, cycles, seed), pinned = PINNED_RUNS[name]
    summary = simulate_age(validate_config(n, p, k), cycles, seed)
    assert (
        summary.standard_error.hex(),
        hashlib.md5(summary.flag_counts.astype("<i8").tobytes()).hexdigest(),
        hashlib.md5(summary.interval_sums.astype("<i8").tobytes()).hexdigest(),
        summary.overall_age.hex(),
    ) == pinned


def test_simulate_age_agrees_with_model_sampling_ops():
    # at k = 1 the simulator's one uniform a group is the model's status draw
    cfg = validate_config(12, 0.4, 1)
    assert cfg.qbar == cfg.p
    assert draws_uniforms(cfg, 5)
    rng = np.random.default_rng(77)
    flags = np.zeros((5, cfg.m), dtype=bool)
    for cycle in range(5):
        statuses = sample_statuses(cfg, rng)
        for i in range(cfg.m):
            flags[cycle, i] = group_outcome(statuses[i], expected_len=cfg.k).has_positive
    assert np.array_equal(simulate_age(cfg, 5, seed=77).flag_counts, flag_counts_of(cfg, flags))


def test_cross_term_correlation_vanishes():
    assert group_cross_term(3, oracle_flags(validate_config(12, 0.0, 3), 100, seed=0)) == 0.0
    assert group_cross_term(3, oracle_flags(validate_config(12, 1.0, 3), 100, seed=0)) == 0.0
    big = group_cross_term(4, oracle_flags(validate_config(120, 0.1, 4), 100_000, seed=2))
    assert big < 0.01
    small = group_cross_term(2, oracle_flags(validate_config(4, 0.5, 2), 100_000, seed=2))
    assert small < 0.02


@settings(deadline=None, max_examples=40)
@given(small_runs())
def test_group_cross_term_equals_per_source_reference(run):
    cfg, num_cycles, seed = run
    per_group = group_cross_term(cfg.k, oracle_flags(cfg, num_cycles, seed))
    per_source = per_source_cross_term(reference_service_times(cfg, num_cycles, seed))
    assert per_group == pytest.approx(per_source, rel=0, abs=1e-12)


def test_estimator_error_halves_with_quadrupled_cycles():
    cfg = validate_config(12, 0.3, 3)
    target = average_age(cfg)
    errors_small, errors_large = [], []
    for seed in range(10):
        small = simulate_age(cfg, 2_000, seed=seed)
        large = simulate_age(cfg, 8_000, seed=1000 + seed)
        errors_small.append(abs(small.overall_age - target))
        errors_large.append(abs(large.overall_age - target))
    assert np.median(errors_large) <= np.median(errors_small)
