import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groupage.analytic import (
    _binomial_window,
    average_age,
    closed_form_moments,
    convolution_oracle,
    cycle_length_second_moment,
    enumeration_oracle,
    expected_cycle_length,
    mean_service_time,
    round_robin_age,
)
from groupage.model import divisors, validate_config

from oracles import (
    expanded_average_age,
    expected_source_service,
    flagged_group_count_pmf,
    mpmath_moments,
    per_group_time_moments,
    per_source_enumeration_moments,
)
from tracing import traced_peak

REL = 1e-9


@st.composite
def configs(draw, max_n=60):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.sampled_from(divisors(n)))
    p = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    return validate_config(n, p, k)


def test_expected_cycle_length_examples():
    assert expected_cycle_length(validate_config(12, 0.0, 3)) == 4.0
    # per-group moment oracle: E[W] = 1 + k(1-q) = 2.5, two groups
    mean_w, _ = per_group_time_moments(0.5, 2)
    assert mean_w == 2.5
    assert expected_cycle_length(validate_config(4, 0.5, 2)) == pytest.approx(2 * mean_w, rel=1e-12)
    for n, p in [(7, 0.3), (50, 0.9)]:
        assert expected_cycle_length(validate_config(n, p, 1)) == pytest.approx(n * (1 + p), rel=1e-12)


def test_cycle_length_second_moment_examples():
    assert cycle_length_second_moment(validate_config(12, 0.0, 3)) == pytest.approx(16.0, rel=1e-12)
    assert cycle_length_second_moment(validate_config(12, 1.0, 3)) == pytest.approx(
        12**2 * 4**2 / 3**2, rel=1e-12
    )
    # i.i.d.-sum identity: E[Y^2] = m Var(W) + (m E[W])^2
    mean_w, second_w = per_group_time_moments(0.5, 2)
    var_w = second_w - mean_w**2
    expected = 2 * var_w + (2 * mean_w) ** 2
    assert expected == 26.5
    assert cycle_length_second_moment(validate_config(4, 0.5, 2)) == pytest.approx(26.5, rel=1e-12)


def test_expected_source_service_examples():
    cfg = validate_config(4, 0.5, 2)
    assert expected_source_service(cfg, 1) == pytest.approx(1.75, rel=1e-12)
    assert expected_source_service(validate_config(9, 0.0, 3), 2) == 1.0
    cfg1 = validate_config(10, 1.0, 5)
    assert expected_source_service(cfg1, 5) == pytest.approx(6.0, rel=1e-12)
    with pytest.raises(ValueError):
        expected_source_service(cfg, 3)
    with pytest.raises(ValueError):
        expected_source_service(cfg, 0)
    with pytest.raises(ValueError):
        expected_source_service(cfg, 1.5)


def test_mean_service_time_examples():
    assert mean_service_time(validate_config(9, 0.0, 3)) == 1.0
    assert mean_service_time(validate_config(9, 1.0, 3)) == pytest.approx(3.0, rel=1e-12)
    assert mean_service_time(validate_config(4, 0.5, 2)) == pytest.approx(2.125, rel=1e-12)


@given(configs())
def test_mean_service_is_average_of_per_source(cfg):
    per_source = sum(expected_source_service(cfg, j) for j in range(1, cfg.k + 1)) / cfg.k
    assert mean_service_time(cfg) == pytest.approx(per_source, rel=1e-12)


def test_average_age_examples():
    assert average_age(validate_config(120, 0.0, 8)) == 8.5
    assert average_age(validate_config(4, 0.5, 2)) == pytest.approx(4.775, rel=1e-12)
    # frozen from the convolution oracle
    assert average_age(validate_config(120, 0.2, 3)) == pytest.approx(51.71231168831169, rel=1e-12)
    assert average_age(validate_config(120, 0.2, 3)) < round_robin_age(120)


def test_round_robin_age_examples():
    assert round_robin_age(120) == 61.0
    assert round_robin_age(2) == 2.0
    assert round_robin_age(1200) == 601.0
    for bad in (0, 120.0, True):
        with pytest.raises(ValueError):
            round_robin_age(bad)


@given(configs())
def test_age_identity_and_moment_invariants(cfg):
    moments = closed_form_moments(cfg)
    assert moments.second_moment_cycle >= moments.mean_cycle**2 * (1 - 1e-12)
    assert cfg.m <= moments.mean_cycle <= cfg.m * (cfg.k + 1) + 1e-9
    composed = moments.second_moment_cycle / (2 * moments.mean_cycle) + moments.mean_service
    assert moments.average_age == pytest.approx(composed, rel=1e-9)
    assert math.isfinite(moments.average_age)


def test_expanded_form_matches_composition_on_grid():
    checked = 0
    for n in range(1, 41):
        for k in divisors(n):
            for i in range(11):
                p = i / 10
                cfg = validate_config(n, p, k)
                assert average_age(cfg) == pytest.approx(expanded_average_age(n, p, k), rel=REL)
                checked += 1
    assert checked >= 1000


def test_age_at_single_group_and_p_zero_is_three_halves():
    for n in (1, 2, 5, 17, 120):
        assert average_age(validate_config(n, 0.0, n)) == 1.5


@given(configs())
def test_convolution_oracle_matches_closed_forms(cfg):
    oracle = convolution_oracle(cfg)
    assert oracle.mean_cycle == pytest.approx(expected_cycle_length(cfg), rel=REL)
    assert oracle.second_moment_cycle == pytest.approx(cycle_length_second_moment(cfg), rel=REL)
    assert oracle.mean_service == pytest.approx(mean_service_time(cfg), rel=REL)
    assert oracle.average_age == pytest.approx(average_age(cfg), rel=REL)


def test_convolution_oracle_hand_computed_case():
    oracle = convolution_oracle(validate_config(4, 0.5, 2))
    assert oracle.mean_cycle == pytest.approx(5.0, rel=1e-12)
    assert oracle.second_moment_cycle == pytest.approx(26.5, rel=1e-12)


def test_convolution_oracle_deterministic_at_p_one():
    cfg = validate_config(12, 1.0, 4)
    oracle = convolution_oracle(cfg)
    assert oracle.mean_cycle == pytest.approx(cfg.m * (cfg.k + 1), rel=1e-12)
    assert oracle.second_moment_cycle == pytest.approx(oracle.mean_cycle**2, rel=1e-12)


def test_enumeration_oracle_examples():
    full = enumeration_oracle(validate_config(4, 0.5, 2))
    conv = convolution_oracle(validate_config(4, 0.5, 2))
    assert full.mean_cycle == pytest.approx(conv.mean_cycle, rel=1e-12)
    assert full.second_moment_cycle == pytest.approx(conv.second_moment_cycle, rel=1e-12)
    assert full.average_age == pytest.approx(conv.average_age, rel=1e-12)

    sure = enumeration_oracle(validate_config(3, 0.0, 3))
    assert sure.mean_cycle == 1.0
    assert sure.average_age == pytest.approx(1.5, rel=1e-12)

    all_pos = enumeration_oracle(validate_config(2, 1.0, 2))
    assert all_pos.mean_cycle == pytest.approx(3.0, rel=1e-12)
    assert all_pos.second_moment_cycle == pytest.approx(9.0, rel=1e-12)


def test_enumeration_oracle_rejects_large_n():
    with pytest.raises(ValueError, match="n <= 20"):
        enumeration_oracle(validate_config(24, 0.1, 4))


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from(divisors(n)))
    ),
    st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
)
def test_enumeration_matches_convolution(nk, p):
    n, k = nk
    cfg = validate_config(n, p, k)
    enum = enumeration_oracle(cfg)
    conv = convolution_oracle(cfg)
    assert enum.mean_cycle == pytest.approx(conv.mean_cycle, rel=REL)
    assert enum.second_moment_cycle == pytest.approx(conv.second_moment_cycle, rel=REL)
    assert enum.mean_service == pytest.approx(conv.mean_service, rel=REL)
    assert enum.average_age == pytest.approx(conv.average_age, rel=REL)


# p at the edges of the domain as well as anywhere inside it
probabilities = st.one_of(st.sampled_from([0.0, 1.0, 1e-12]), st.floats(min_value=0.0, max_value=1.0))


def _assert_moments_match(moments, reference, rel):
    fields = (moments.mean_cycle, moments.second_moment_cycle, moments.mean_service, moments.average_age)
    for value, expected in zip(fields, reference):
        assert abs(value - expected) <= rel * abs(expected), (fields, reference)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=14).flatmap(lambda n: st.tuples(st.just(n), st.sampled_from(divisors(n)))),
    probabilities,
)
def test_enumeration_matches_per_source_reference(nk, p):
    n, k = nk
    cfg = validate_config(n, p, k)
    _assert_moments_match(enumeration_oracle(cfg), per_source_enumeration_moments(cfg), rel=1e-14)


def _assert_matches_mpmath(cfg):
    _assert_moments_match(convolution_oracle(cfg), mpmath_moments(cfg.n, cfg.p, cfg.k), rel=1e-14)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=64), probabilities)
@example(m=3149, k=19, p=0.007564772575354485)  # lgamma terms put E[S] 1.0e-14 from the lgamma reference here
def test_convolution_matches_mpmath(m, k, p):
    _assert_matches_mpmath(validate_config(m * k, p, k))


@pytest.mark.parametrize("p", [0.5, 0.1, 1e-3])
def test_convolution_oracle_holds_at_the_largest_admitted_group_count(p):
    # m = 1 321 122 is the most groups the simulator's int64 check admits at
    # k = 1; here a pmf of lgamma terms was 2.4e-9 short of 1 before it was
    # divided by its sum, and 2.0e-14 off after, at p = 1e-3
    _assert_matches_mpmath(validate_config(1_321_122, p, 1))


@pytest.mark.parametrize("m,p", [(100_000, 1e-12), (2, 5e-5)])
def test_convolution_window_holds_mass_where_sigma_is_below_one(m, p):
    # sigma = sqrt(m*q*qbar) is below one here, so a window of +-40 sigma
    # misses mass that moves the moments: at m = 10**5 (sigma about 3e-4) it
    # holds z = m alone about the mode, while z = m - 1 carries 1e-7 of the
    # mass; at m = 2 (sigma about 0.01) it holds z = 1 and 2 even when rounded
    # outward from the mean, while z = 0 carries 2.5e-9
    _assert_matches_mpmath(validate_config(m, p, 1))


def _window(cfg):
    return _binomial_window(cfg.m, cfg.k * math.log1p(-cfg.p), math.log(cfg.qbar))


@pytest.mark.parametrize("p", [0.5, 0.1, 1e-3])
def test_convolution_window_lies_inside_the_counts_at_many_groups(p):
    cfg = validate_config(100_000, p, 1)
    z, pmf = _window(cfg)
    assert 0 < z[0] and z[-1] <= cfg.m and z.size < cfg.m // 5
    # at p = 1e-3 all m groups are clear with probability q^m = e^-100, within
    # 800 of the mode's log-pmf, so only there the window reaches z = m
    assert (z[-1] == cfg.m) == (p == 1e-3)
    _assert_matches_mpmath(cfg)


@pytest.mark.parametrize(
    "m,k,p,mode",
    [
        (50, 2000, 0.5, "low"),  # q = 0.5**2000 underflows to 0 although p < 1
        (1000, 1, 1e-15, "high"),  # q = 1 - 1e-15
        (100_000, 1, 1e-13, "high"),
    ],
)
def test_convolution_window_with_its_mode_at_an_end(m, k, p, mode):
    cfg = validate_config(m * k, p, k)
    z, _ = _window(cfg)
    assert z[0] == 0 if mode == "low" else z[-1] == m
    if mode == "low":
        assert cfg.q == 0.0 and p < 1.0
    _assert_matches_mpmath(cfg)


@pytest.mark.parametrize("m,k,p", [(3149, 19, 0.007564772575354485), (1000, 1, 0.3), (5000, 64, 0.01)])
def test_convolution_window_pmf_matches_mpmath_term_by_term(m, k, p):
    # terms from lgamma differences were 9.4e-13 to 6.0e-12 off here
    z, pmf = _window(validate_config(m * k, p, k))
    exact = np.array(flagged_group_count_pmf(m, k, p))[m - z]  # z clear groups are m - z flagged ones
    held = pmf >= 1e-6 * pmf.max()
    assert held.sum() > 10
    assert np.all(np.abs(pmf[held] - exact[held]) <= 1e-13 * exact[held])


def test_convolution_oracle_memory_follows_the_window():
    # the pmf over all m + 1 counts of a 1 321 122-group config traced 60.5 MiB
    _, peak = traced_peak(convolution_oracle, validate_config(1_321_122, 0.5, 1))
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n,k", [(1, 1), (720720, 12), (1_664_509, 1_664_509), (10**12, 10**12)])
@pytest.mark.parametrize("p", [0.0, 1e-12, 0.5, 1.0])
def test_convolution_mean_service_holds_at_any_group_size(n, k, p):
    # E[S] comes from the window's mean flagged groups, so nothing is k long: a mean over
    # 1 + j*qbar for j = 1..k traced 25.5 MiB at k = 1 664 509, and could not be held at 10**12
    cfg = validate_config(n, p, k)
    oracle, peak = traced_peak(convolution_oracle, cfg)
    service = oracle.mean_service
    assert abs(service - mean_service_time(cfg)) <= 1e-12 * mean_service_time(cfg)
    assert peak < 2**20


# n up to 1e8 with k any of its divisors, and p log-uniform down to 1e-15 as
# well as anywhere in [1e-15, 1] and at both ends
@st.composite
def wide_configs(draw):
    n = draw(st.one_of(st.integers(min_value=1, max_value=10**8), st.sampled_from([720720, 99991, 10**8])))
    k = draw(st.sampled_from(divisors(n)))
    p = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0, 1e-15]),
            st.floats(min_value=-15.0, max_value=0.0).map(lambda e: 10.0**e),
            st.floats(min_value=1e-15, max_value=1.0),
        )
    )
    return validate_config(n, p, k)


@settings(deadline=None, max_examples=300)
@given(wide_configs())
@example(validate_config(10000, 1e-12, 10000))  # k*p = 1e-8: 1 - q by subtraction kept about 8 digits
def test_closed_forms_match_mpmath_to_1e_12_relative(cfg):
    moments = closed_form_moments(cfg)
    fields = (moments.mean_cycle, moments.second_moment_cycle, moments.mean_service, moments.average_age)
    for value, exact in zip(fields, mpmath_moments(cfg.n, cfg.p, cfg.k)):
        assert abs(value - exact) <= 1e-12 * exact, (cfg, fields)


def test_enumeration_oracle_memory_at_twenty_sources():
    # a (2**20, 20) bit array alone would take 20 MiB as int8 and 160 MiB as int64
    _, peak = traced_peak(enumeration_oracle, validate_config(20, 0.01, 1))
    assert peak < 64 * 2**20


def test_enumeration_oracle_peak_memory_is_one_block():
    _, peak = traced_peak(enumeration_oracle, validate_config(20, 0.01, 1))
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "n,k,p",
    [(20, 20, 0.05), (20, 1, 0.3), (20, 4, 1e-3), (20, 2, 0.9), (18, 1, 0.5), (18, 6, 0.05), (18, 9, 1e-6)],
)
def test_enumeration_matches_mpmath_past_one_block(n, k, p):
    # 2**18 and 2**20 codes are summed over blocks of 2**16; one dot over all
    # 2**20 missed this bound by 2.8e-13 at (20, 20, 0.05)
    moments = enumeration_oracle(validate_config(n, p, k))
    fields = (moments.mean_cycle, moments.second_moment_cycle, moments.mean_service, moments.average_age)
    for value, exact in zip(fields, mpmath_moments(n, p, k)):
        assert abs(value - exact) <= 1e-13 * exact, (n, k, p, fields)


@pytest.mark.parametrize(
    "n,k,p",
    [
        (20, 20, 0.05),
        (20, 1, 0.3),
        (20, 4, 1e-3),
        (20, 2, 0.9),
        (18, 1, 0.5),
        (18, 6, 0.05),
        (18, 9, 1e-6),
        (20, 1, 0.01),  # float dots a block were 5.2e-14 off mpmath here
        (20, 5, 0.2),  # group 3 holds bits 15..19, across the block bit 16
        (16, 4, 0.3),
        (12, 3, 0.7),
        (4, 2, 0.5),
    ],
)
def test_enumeration_census_matches_mpmath_to_1e_14(n, k, p):
    # the census counts codes exactly by (set bits, flagged groups), so its
    # only roundings are the class weights and one math.fsum per moment
    moments = enumeration_oracle(validate_config(n, p, k))
    fields = (moments.mean_cycle, moments.second_moment_cycle, moments.mean_service, moments.average_age)
    for value, exact in zip(fields, mpmath_moments(n, p, k)):
        assert abs(value - exact) <= 1e-14 * exact, (n, k, p, fields)
