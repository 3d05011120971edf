"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own code paths: the expanded age
formula catches transcription errors in the composed form, the per-config
closed forms pin the float operation order of the library's kernel, the
50-digit mpmath moments are the exact values the closed forms and the
convolution oracle must round to, the per-source service mean is the one
the mean service averages, the bisection solver checks the Lambert W
iteration against nothing but monotonicity of x * exp(x), the (2**n, m, k)
status enumeration is the library's exact oracle as first written, the full
flag trace and its per-cycle moments redo the streaming simulator's fold
and sample moments from one (N, m, k) per-source draw, the 50-digit
binomial law of a cycle's, or a run's, flagged groups judges the
convolution oracle's pmf term by term and, with the chi-square tail, the
simulator's own flags, whether drawn one uniform a group or as the flagged
slots alone, the block fold from generation instants is the simulator's
block fold as it was before it counted flags, the standard errors of a
counted series and of the pooled age ratio are computed in exact
rationals, the per-source sampler, timeline views, estimator and
cross-term correlation redo the simulator's work source by source on
(N, m, k) arrays, with no use of the per-group shortcuts, and a summary's
per-source ages and their exact mean follow from its per-group sums.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np


def expanded_average_age(n: int, p: float, k: int) -> float:
    """Average age written out as one explicit expression in (n, p, k)."""
    q = (1.0 - p) ** k
    first = (k * k * (n - k) * q * q + n * (k + 1) ** 2) / (2 * k + 2 * k * k * (1.0 - q))
    second = (2 * n * (k + 1) - k * k) * q / (2 + 2 * k * (1.0 - q))
    third = 1.0 + (k + 1) / 2 * (1.0 - q)
    return first - second + third


def per_config_mean_cycle(config) -> float:
    """E[Y] = m + n*qbar of one SystemConfig, written out apart from the library's kernel.

    The float operations run in the library's order, so the optimizers'
    per-divisor values must equal this exactly; a reordered product in the
    kernel shows as a last-bit difference.
    """
    return config.m + config.n * config.qbar


def per_config_average_age(config) -> float:
    """Average age of one SystemConfig, E[Y^2]/(2 E[Y]) + E[S], in the same fixed float order."""
    n, k, q, qbar = config.n, config.k, config.q, config.qbar
    mean = per_config_mean_cycle(config)
    second = n * k * q * qbar + mean * mean
    service = 1.0 + (k + 1) * qbar / 2.0
    return second / (2.0 * mean) + service


def expected_source_service(config, j: int) -> float:
    """E[S_j] = 1 + j*qbar for the j-th source of a group, j in 1..k."""
    if isinstance(j, bool) or not isinstance(j, numbers.Integral) or not 1 <= j <= config.k:
        raise ValueError(f"source index j must be an integer in [1, k], got j={j!r} for k={config.k}")
    return 1.0 + j * config.qbar


def mpmath_moments(n: int, p: float, k: int) -> tuple:
    """(E[Y], E[Y^2], E[S], age) of (n, p, k) as 50-digit mpf values, from the two moments of one group time.

    W is 1 with probability q = (1-p)^k and k+1 otherwise, Y sums m i.i.d.
    copies, so E[Y] = m E[W] and E[Y^2] = m E[W^2] + m(m-1) E[W]^2; source j
    of a group takes 1 slot, or 1 + j when the group is flagged. The float p
    converts exactly, and 1 - q keeps at least 35 digits for p >= 1e-15.
    """
    with mpmath.workdps(50):
        m = n // k
        q = (1 - mpmath.mpf(p)) ** k
        flagged = 1 - q
        mean_w = q + (k + 1) * flagged
        second_w = q + (k + 1) ** 2 * flagged
        mean = m * mean_w
        second = m * second_w + m * (m - 1) * mean_w**2
        service = q + flagged * (1 + mpmath.mpf(k + 1) / 2)
        return mean, second, service, second / (2 * mean) + service


def per_source_enumeration_moments(config) -> tuple[float, float, float, float]:
    """(E[Y], E[Y^2], E[S], age) over all 2**n status vectors, held as a (2**n, n) bit array and (2**n, m, k) groups.

    Every expectation is one math.fsum of per-vector products, so each sum
    is exactly rounded: float dots here drifted 9.8e-15 from mpmath at
    n = k = 13, p = 1e-4, close to the 1e-14 the library oracle is held to.
    """
    n, m, k, p = config.n, config.m, config.k, config.p
    count = 1 << n
    codes = np.arange(count, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(np.int8)
    ones = bits.sum(axis=1, dtype=np.int64)
    pmf = np.power(p, ones.astype(np.float64)) * np.power(1.0 - p, (n - ones).astype(np.float64))
    positive = bits.reshape(count, m, k).any(axis=2)
    group_times = 1 + k * positive.astype(np.int64)
    cycle = group_times.sum(axis=1)
    mean = math.fsum(pmf * cycle)
    second = math.fsum(pmf * (cycle * cycle))
    service_total = math.fsum(
        math.fsum(pmf * (1.0 + j * positive[:, i])) for i in range(m) for j in range(1, k + 1)
    )
    service = service_total / n
    return mean, second, service, second / (2.0 * mean) + service


def bisect_lambert(y: float, lo: float, hi: float, iterations: int = 200) -> float:
    """Solve x*exp(x) = y by bisection on [lo, hi]; the bracket must straddle y."""

    def f(x: float) -> float:
        return x * math.exp(x)

    f_lo = f(lo)
    f_hi = f(hi)
    if (f_lo - y) * (f_hi - y) > 0:
        raise ValueError(f"bracket [{lo}, {hi}] does not straddle a solution for y={y}")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == y:
            return mid
        if (f_lo - y) * (f_mid - y) <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def brute_force_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def per_group_time_moments(p: float, k: int) -> tuple[float, float]:
    """Mean and second moment of one group's service time W in {1, k+1}."""
    q = (1.0 - p) ** k
    mean = q * 1.0 + (1.0 - q) * (k + 1)
    second = q * 1.0 + (1.0 - q) * (k + 1) ** 2
    return mean, second


@dataclass(frozen=True)
class GroupOutcome:
    """Result of serving one group: whether any source was positive, and the slots used."""

    has_positive: bool
    group_service_time: int


def sample_statuses(config, rng: np.random.Generator) -> np.ndarray:
    """Draw one cycle of i.i.d. Bernoulli(p) statuses as an (m, k) 0/1 array."""
    return (rng.random((config.m, config.k)) < config.p).astype(np.int8)


def group_outcome(group_statuses: Sequence[int], expected_len: int | None = None) -> GroupOutcome:
    """Outcome for one group's statuses: aggregate-only (1 slot) or aggregate plus k individual updates."""
    values = [int(s) for s in group_statuses]
    if expected_len is not None and len(values) != expected_len:
        raise ValueError(f"expected {expected_len} statuses, got {len(values)}")
    if not values:
        raise ValueError("a group must contain at least one source")
    if any(v not in (0, 1) for v in values):
        raise ValueError("statuses must be binary (0 or 1)")
    has_positive = any(v == 1 for v in values)
    return GroupOutcome(has_positive, len(values) + 1 if has_positive else 1)


def source_service_time(has_positive: bool, j: int) -> int:
    """Slots until the j-th source of a group is delivered: 1 if the group is all clear, else j+1."""
    if j < 1:
        raise ValueError(f"source index j must be >= 1, got {j}")
    return j + 1 if has_positive else 1


def oracle_flags(config, num_cycles: int, seed: int) -> np.ndarray:
    """(N, m) group flags of a seeded run, from one (N, m, k) uniform draw: a group is flagged when any draw is below p.

    These are the flags of reference_service_times for the same seed. At
    k = 1 they are also the simulator's, whose one draw a group is then a
    draw of the source's status; for k > 1 the simulator's flags have the
    same law but other values.
    """
    rng = np.random.default_rng(seed)
    return (rng.random((num_cycles, config.m, config.k)) < config.p).any(axis=2)


def flagged_group_count_pmf(m: int, k: int, p: float, terms: int | None = None) -> list[float]:
    """Binomial(m, 1 - (1-p)^k) pmf of a count of flagged groups among m, at 0..m or its first terms values, from 50-digit mpmath."""
    with mpmath.workdps(50):
        flagged = 1 - (1 - mpmath.mpf(p)) ** k
        counts = range(m + 1 if terms is None else min(terms, m + 1))
        return [float(mpmath.binomial(m, z) * flagged**z * (1 - flagged) ** (m - z)) for z in counts]


def chi_square_tail(statistic: float, dof: int) -> float:
    """P(X >= statistic) for X chi-square with dof degrees of freedom (the regularized upper gamma)."""
    return float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(statistic) / 2, mpmath.inf, regularized=True))


def per_trace_moments(config, flags: np.ndarray) -> tuple[float, float, float, float]:
    """(mean L, mean L^2, mean service, plug-in age) of an (N, m) flag trace, from its per-cycle lengths L = m + k*F."""
    n, m, k = config.n, config.m, config.k
    cycles = m + k * flags.sum(axis=1, dtype=np.int64)
    count = len(flags)
    cycle_total = int(cycles.sum())
    mean = float(cycle_total) / count
    second = float((cycles * cycles).sum()) / count
    service_total = count * n + (cycle_total - count * m) // k * (k * (k + 1) // 2)
    service = float(service_total) / (count * n)
    return mean, second, service, second / (2.0 * mean) + service


def exact_standard_error(values, counts) -> float:
    """The ddof=1 standard error of a counted series, in exact rationals, rounded once to a float."""
    pairs = [(Fraction(float(v)), int(c)) for v, c in zip(values, counts) if c]
    total = sum(c for _, c in pairs)
    mean = sum(c * v for v, c in pairs) / total
    squared = sum(c * (v - mean) ** 2 for v, c in pairs) / (total - 1) / total
    with localcontext() as context:
        context.prec = 60
        return float((Decimal(squared.numerator) / Decimal(squared.denominator)).sqrt())


def reference_service_times(config, num_cycles: int, seed: int) -> np.ndarray:
    """(N, m, k) per-source service times, drawn status by status, cycle by cycle, from a seeded stream."""
    rng = np.random.default_rng(seed)
    service = np.empty((num_cycles, config.m, config.k), dtype=np.int64)
    for cycle in range(num_cycles):
        statuses = sample_statuses(config, rng)
        for i in range(config.m):
            outcome = group_outcome(statuses[i], expected_len=config.k)
            service[cycle, i] = [source_service_time(outcome.has_positive, j) for j in range(1, config.k + 1)]
    return service


def group_times(service_times: np.ndarray) -> np.ndarray:
    """(N, m) slots each group takes per cycle: the last source of a group closes its window."""
    return service_times[:, :, -1]


def delivery_offsets(service_times: np.ndarray) -> np.ndarray:
    """(N, m, k) delivery instants from their cycle's start: the group times before group i plus the service time."""
    times = group_times(service_times)
    starts = np.cumsum(times, axis=1) - times
    return starts[:, :, None] + service_times


def generation_instants(service_times: np.ndarray) -> np.ndarray:
    """(N, m, k) generation instants of every source's updates on the absolute time axis."""
    cycle_lengths = group_times(service_times).sum(axis=1)
    cycle_starts = np.zeros(len(service_times), dtype=np.int64)
    np.cumsum(cycle_lengths[:-1], out=cycle_starts[1:])
    return cycle_starts[:, None, None] + (delivery_offsets(service_times) - service_times)


def per_source_age_estimate(service_times: np.ndarray) -> tuple[np.ndarray, Fraction, float]:
    """Per-source renewal-reward age estimate over full (N, m, k) arrays: (per-group interval sums, exact age, SE).

    Each source's generation instants are rebuilt on the absolute time axis;
    the N-1 complete intervals Y between them, each closed by an update with
    service time S, contribute area Y^2/2 + Y*S, and a source's age is its
    summed area over its summed Y. A group's k sources must share their sums
    of Y, Y^2 and Y*F, with F = 1 when the closing update's group is flagged
    (S > 1); these come back as a (3, m) array, and the overall age as the
    exact mean of the m*k per-source ages. The standard error is the delta
    method on the per-interval sums pooled over all sources, with the lag-1
    autocovariance of consecutive intervals, in exact rationals. All sums
    are exact int64.
    """
    _, m, k = service_times.shape
    intervals = np.diff(generation_instants(service_times), axis=0)  # (N-1, m, k)
    interval_sq = intervals * intervals
    interval_service = intervals * service_times[1:]
    sums = np.stack((intervals.sum(axis=0), interval_sq.sum(axis=0), (intervals * (service_times[1:] > 1)).sum(axis=0)))
    assert (sums == sums[:, :, :1]).all(), "a group's sources differ in their interval sums"
    double_areas = sums[1] + 2 * interval_service.sum(axis=0)
    age = sum(Fraction(int(a), 2 * int(y)) for a, y in zip(double_areas.flat, sums[0].flat)) / (m * k)
    pooled_intervals = intervals.sum(axis=(1, 2))
    pooled_double_areas = (interval_sq + 2 * interval_service).sum(axis=(1, 2))
    se = exact_pooled_standard_error(pooled_intervals, pooled_double_areas, m * k)
    return sums[:, :, 0], age, se


def per_source_ages(interval_sums: np.ndarray, k: int) -> np.ndarray:
    """(m, k) per-source age estimates from an AgeSummary's (3, m) interval sums: (sum Y^2/2 + sum Y + j*sum Y*F) / sum Y."""
    interval_sum, interval_sq_sum, interval_flag_sum = (total[:, None] for total in interval_sums)
    return (0.5 * interval_sq_sum + (interval_sum + np.arange(1, k + 1) * interval_flag_sum)) / interval_sum


def exact_overall_age(interval_sums: np.ndarray, k: int) -> Fraction:
    """The exact mean over all m*k sources of their age estimates, from an AgeSummary's (3, m) interval sums."""
    total = sum(Fraction(int(sq) + 2 * int(y) + (k + 1) * int(yf), 2 * int(y)) for y, sq, yf in interval_sums.T)
    return total / interval_sums.shape[1]


def instants_fold_block(block: np.ndarray, carry: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """A block of (rows, m) group flags folded from generation instants: (length counts, per-group sums, pooled).

    One flat cumsum of the group times 1 + k*F, less each time, gives the
    generation instants, and Y is their difference from row to row, plus
    carry, each group's time from its last instant to the end of the row
    before the block, on the first row. The block's cycle lengths are
    counted by np.bincount (index m + k*F), and over every row it sums Y,
    Y^2 and Y*F per group, and per row the pooled sums over all n = m*k
    sources of Y and of the double area Y^2 + 2*Y*S, k*sum Y and
    k*sum (Y^2 + 2Y + (k+1)*Y*F). Everything is int64.
    """
    group_times = block.astype(np.int64) * k + 1
    instants = np.cumsum(group_times).reshape(block.shape) - group_times
    ends = instants[:, -1] + group_times[:, -1]
    y = np.empty_like(instants)
    y[0] = instants[0] + carry
    y[1:] = instants[1:] - instants[:-1]
    length_counts = np.bincount(ends - instants[:, 0])
    f = block.astype(np.int64)
    per_group = np.stack((y.sum(axis=0), (y * y).sum(axis=0), (y * f).sum(axis=0)))
    pooled = k * np.stack((y.sum(axis=1), (y * y + 2 * y + (k + 1) * y * f).sum(axis=1)))
    return length_counts, per_group, pooled


def exact_pooled_standard_error(pooled_intervals, pooled_double_areas, n: int) -> float:
    """Delta-method standard error of the pooled age ratio, in exact rationals, rounded once to a float.

    Over the N-1 intervals with pooled lengths y_i and double areas a_i: the
    residuals r_i = (a_i/2 - age*y_i)/n of the ratio age = sum a / (2 sum y),
    gamma0 = sum r_i^2 / (N-1) and gamma1 = sum r_i*r_(i+1) / (N-1), the
    variance max(gamma0 + 2*gamma1, 0) / (N-1), and its square root over the
    mean interval per source, sum y / (n*(N-1)).
    """
    lengths = [int(v) for v in pooled_intervals]
    areas = [int(v) for v in pooled_double_areas]
    count = len(lengths)
    age = Fraction(sum(areas), 2 * sum(lengths))
    residuals = [(Fraction(a, 2) - age * y) / n for y, a in zip(lengths, areas)]
    gamma0 = sum(r * r for r in residuals) / count
    gamma1 = sum(r * s for r, s in zip(residuals, residuals[1:])) / count
    variance = max(gamma0 + 2 * gamma1, Fraction(0)) / count
    mean_interval = Fraction(sum(lengths), n * count)
    return nearest_float_sqrt(variance / (mean_interval * mean_interval))


def _even_significand(x: float) -> bool:
    return int(math.frexp(x)[0] * 2**53) % 2 == 0


def nearest_float_sqrt(square: Fraction) -> float:
    """The float nearest to sqrt(square), ties to even, for a rational square >= 0.

    A 60-digit decimal square root gives a guess; the guess then steps to the
    float whose rounding interval holds the root, comparing the squares of
    the interval's ends with the square exactly.
    """
    if square == 0:
        return 0.0
    with localcontext() as context:
        context.prec = 60
        guess = float((Decimal(square.numerator) / Decimal(square.denominator)).sqrt())
    while True:
        below = (Fraction(guess) + Fraction(math.nextafter(guess, 0.0))) / 2
        above = (Fraction(guess) + Fraction(math.nextafter(guess, math.inf))) / 2
        if square < below * below or (square == below * below and not _even_significand(guess)):
            guess = math.nextafter(guess, 0.0)
        elif square > above * above or (square == above * above and not _even_significand(guess)):
            guess = math.nextafter(guess, math.inf)
        else:
            return guess


def per_source_cross_term(service_times: np.ndarray) -> float:
    """Largest per-source |correlation| between a renewal interval and the service time of the update closing it.

    Computed source by source over full (N, m, k) arrays; a source whose
    intervals or service times have zero variance reports correlation 0.
    """
    count = len(service_times) - 1
    intervals = np.diff(generation_instants(service_times), axis=0).reshape(count, -1).astype(np.float64)
    services = service_times[1:].reshape(count, -1).astype(np.float64)
    intervals -= intervals.mean(axis=0)
    services -= services.mean(axis=0)
    covariance = (intervals * services).sum(axis=0)
    scale = np.sqrt((intervals * intervals).sum(axis=0) * (services * services).sum(axis=0))
    correlation = np.divide(covariance, scale, out=np.zeros_like(covariance), where=scale > 0)
    return float(np.abs(correlation).max())
