"""Monte Carlo simulation of the pooled-updating timeline.

Cycles run back to back: in each cycle every source draws a fresh status,
groups are served in order 1..m, and a group costs 1 slot when all clear or
k+1 slots otherwise. A source's update is generated when its group's service
window opens and delivered after its service time, so its age sawtooth resets
to the service time at each delivery.

The age estimator is the renewal-reward ratio over complete per-source
renewal intervals: with Y the spacing between consecutive generation instants
and S the service time of the update closing the interval, each interval
contributes area Y^2/2 + Y*S, and the time-average age is the summed area
over the summed interval lengths.

All k sources of a group are generated when the group's window opens, so they
share its intervals Y, and source j's service time is S = 1 + j*F with F the
group's flag (some source positive). A cycle's whole state is therefore its m
group flags, and every per-source sum is affine in j:
sum(Y*S) = sum(Y) + j*sum(Y*F). One accumulator draws the flags chunk by
chunk and folds them, in cycle order, into exact integer per-group sums, the
two per-interval pooled series of the standard error, and a count of cycles
by their number of flagged groups, from which the sample cycle moments
follow exactly. No run keeps its flags; the only per-source array is the
(cycles, m, k) uniform draw of a chunk.

An interval between two all-clear cycles has Y = m and F = 0 in every group,
so the fold only counts it; its work follows the intervals that touch a
flagged cycle, whose generation instants come from one flat cumsum of the
group times 1 + k*F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .model import SystemConfig

__all__ = ["AgeSummary", "empirical_moments", "simulate_age"]

from .analytic import MomentSet

# Uniform draws per chunk (2 MB of float64); a chunk holds max(1, CHUNK_DRAWS // n) cycles.
# Larger chunks measured no faster, and at k = 1 a chunk's per-group arrays are as long as its draws.
CHUNK_DRAWS = 2**18
# _fold gathers a chunk's busy rows when at most this share of its rows can be busy, and
# otherwise takes the whole chunk. Measured on 2 vCPUs (numpy 2.4), the two cost the same
# at a bound of about 0.45 of the rows at m = 1 to 4, 1.0 at m = 30 and 1.3 at m = 10^4.
_GATHER_SHARE = 0.4


@dataclass(frozen=True)
class AgeSummary:
    """Per-source and overall time-average age estimates from one simulation run.

    flag_counts[F] is the number of the run's cycles, the first included, in
    which F of the m groups were flagged; such a cycle lasts m + k*F slots.
    """

    per_source_age: np.ndarray  # (m, k)
    overall_age: float
    standard_error: float
    flag_counts: np.ndarray  # (m + 1,) int64


def _cycles_per_chunk(config: SystemConfig) -> int:
    return max(1, CHUNK_DRAWS // config.n)


def _flag_chunks(config: SystemConfig, seed: int, num_cycles: int) -> Iterator[np.ndarray]:
    """Group flags of num_cycles seeded cycles, (cycles, m) per chunk of up to _cycles_per_chunk cycles.

    A chunk draws (cycles, m, k) uniforms and flags a group when any of its k
    draws is below p, so the stream consumed does not depend on the chunking.
    The flags equal (draws < p).any(axis=2); going through the positions of
    the positive draws is several times faster for small k.
    """
    rng = np.random.default_rng(seed)
    m, k = config.m, config.k
    chunk_cycles = _cycles_per_chunk(config)
    for start in range(0, num_cycles, chunk_cycles):
        cycles = min(chunk_cycles, num_cycles - start)
        positive = np.flatnonzero(rng.random((cycles, m, k)) < config.p)
        flags = np.zeros(cycles * m, dtype=bool)
        flags[positive // k] = True
        yield flags.reshape(cycles, m)


def _fold(config: SystemConfig, num_cycles: int, flag_chunks: Iterable[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Exact integer sums of a run's intervals, from its group flags fed in cycle order.

    Over the N-1 complete intervals it keeps per-group sums of Y, Y^2 and Y*F
    and, per interval, the pooled sums over all n sources of Y and of the
    double area Y^2 + 2*Y*S = sum over groups of k*Y^2 + 2k*Y + k(k+1)*Y*F.
    It counts all N cycles by their length m + k*F.

    Row c of a chunk is the interval that cycle c closes. When cycles c-1
    and c are both all clear, the row is quiet: it adds m and m^2 to each
    group's sums of Y and Y^2 and k*m^2 and k*m^2*(m + 2) to the pooled
    series, and is only counted. Busy rows are computed on a block of
    cycles, the whole chunk or, when few rows can be busy, a gather of the
    busy rows, the cycles before them and the flagged cycles: one flat
    cumsum of the block's group times 1 + k*F, less each time, gives the
    generation instants, and Y is their difference from row to row. Across
    chunks it carries the time from each group's last generation instant to
    the chunk's end, and whether the chunk's last cycle had a flag.
    """
    m, k = config.m, config.k
    sums = np.zeros((3, m), dtype=np.int64)  # per group: sum Y, sum Y^2, sum Y*F
    length_counts = np.zeros(m * (k + 1) + 1, dtype=np.int64)
    # by closing cycle: pooled sum of Y and of the double area, preset to a quiet row's
    pooled = np.empty((2, num_cycles), dtype=np.int64)
    pooled[:] = k * m * m
    pooled[1] *= m + 2  # in int64, as the busy rows' sums
    carry = np.arange(m, 0, -1, dtype=np.int64)  # as after an all-clear cycle
    tail_flagged, busy_rows, end = False, 0, 0
    for flags in flag_chunks:
        start, end = end, end + len(flags)
        first = 1 if start == 0 else 0  # cycle 0 closes no interval
        hits = np.count_nonzero(flags)  # the chunk has at most 2*hits + tail_flagged busy rows
        if 2 * hits + tail_flagged < _GATHER_SHARE * len(flags):
            flagged = np.zeros(len(flags) + 1, dtype=bool)  # cycle c at c + 1, the previous chunk's last at 0
            flagged[0] = tail_flagged
            flagged[np.flatnonzero(flags) // m + 1] = True
            busy = flagged[1:] | flagged[:-1]
            busy[:first] = False
            needed = busy | flagged[1:]
            needed[:-1] |= busy[1:]
            block_rows = np.flatnonzero(needed)
            in_block = np.flatnonzero(busy[block_rows])  # where the busy rows sit in the block
            in_chunk = block_rows[in_block]
            block = flags[block_rows]
        else:
            block, in_block, in_chunk = flags, slice(first, None), slice(first, None)
        tail_flagged = bool(flags[-1].any())
        if not len(block):
            continue
        group_times = block.astype(np.int64)
        group_times *= k
        group_times += 1
        instants = np.cumsum(group_times).reshape(block.shape)
        instants -= group_times
        intervals = np.empty_like(instants)
        intervals[0] = instants[0] + carry
        np.subtract(instants[1:], instants[:-1], out=intervals[1:])
        ends = instants[:, -1] + group_times[:, -1]
        counts = np.bincount(ends - instants[:, 0])
        length_counts[: len(counts)] += counts
        carry = ends[-1] - instants[-1]  # a block's last row is the chunk's, or all clear
        y, w = intervals[in_block], group_times[in_block]
        busy_rows += len(y)
        column_y = np.einsum("ij->j", y)
        sums[0] += column_y
        sums[1] += np.einsum("ij,ij->j", y, y)
        sums[2] += (np.einsum("ij,ij->j", y, w) - column_y) // k  # w = 1 + k*F
        row_y = np.einsum("ij->i", y)
        row_area = k * np.einsum("ij,ij->i", y, y) + (k - 1) * row_y + (k + 1) * np.einsum("ij,ij->i", y, w)
        pooled[:, start:end][:, in_chunk] = k * row_y, row_area
    quiet = num_cycles - 1 - busy_rows
    sums[0] += quiet * m
    sums[1] += quiet * m * m
    length_counts[m] += num_cycles - length_counts.sum()
    return sums, length_counts[m::k].copy(), pooled[0, 1:], pooled[1, 1:]


def _estimate(config: SystemConfig, num_cycles: int, flag_chunks: Iterable[np.ndarray]) -> AgeSummary:
    """Renewal-reward age estimate from a run's group flags, fed in cycle order.

    _fold returns before the standard error builds its two float64 series, so
    its last chunk's arrays are freed by then.
    """
    sums, flag_counts, pooled_intervals, pooled_double_areas = _fold(config, num_cycles, flag_chunks)
    k = config.k
    interval_sum, interval_sq_sum, interval_flag_sum = sums[:, :, None]
    interval_service_sum = interval_sum + np.arange(1, k + 1, dtype=np.int64) * interval_flag_sum
    per_source = (0.5 * interval_sq_sum + interval_service_sum) / interval_sum
    return AgeSummary(
        per_source_age=per_source,
        overall_age=float(per_source.mean()),
        standard_error=_pooled_standard_error(pooled_intervals, pooled_double_areas, config.n),
        flag_counts=flag_counts,
    )


def _pooled_standard_error(pooled_intervals: np.ndarray, pooled_double_areas: np.ndarray, n: int) -> float:
    """Delta-method standard error of the overall age from per-interval pooled sums.

    Residuals of the pooled ratio estimate are exactly mean-zero; consecutive
    intervals share one cycle of randomness, so the variance of their mean
    includes the lag-1 autocovariance. The result is approximate: per-source
    ratios are combined as if their denominators shared the common mean.
    """
    count = len(pooled_intervals)
    total_intervals = int(pooled_intervals.sum())
    total_double_area = float(pooled_double_areas.sum())
    pooled_age = total_double_area / (2.0 * total_intervals)
    residuals = np.multiply(pooled_double_areas, 0.5)
    residuals -= np.multiply(pooled_intervals, pooled_age)
    residuals /= n
    gamma0 = float(residuals @ residuals) / count
    gamma1 = float(residuals[:-1] @ residuals[1:]) / count if count > 1 else 0.0
    variance = max(gamma0 + 2.0 * gamma1, 0.0) / count
    mean_interval = total_intervals / (n * count)
    return math.sqrt(variance) / mean_interval


def _check_int64_totals(config: SystemConfig, num_cycles: int) -> None:
    # The largest int64 total is the pooled double area of the N-1 intervals: a
    # group's interval Y spans m group times, so Y <= m(k+1), and it adds
    # k*Y^2 + 2k*Y + k(k+1)*Y*F <= k*Y^2 + (k^2+3k)*Y to its row (p = 1 attains
    # this). The pooled Y, each group's Y^2 and the counted L^2 <= N*Y^2 stay below.
    m, k = config.m, config.k
    y = m * (k + 1)
    if (num_cycles - 1) * m * (k * y * y + (k * k + 3 * k) * y) > np.iinfo(np.int64).max:
        raise ValueError(f"{num_cycles} cycles of m={m} groups can overflow the standard error's int64 sums")


def simulate_age(config: SystemConfig, num_cycles: int, seed: int) -> AgeSummary:
    """Simulate num_cycles i.i.d. update cycles from a seed and estimate the age (needs >= 2 cycles).

    The N-1 complete per-source renewal intervals between generation instants
    feed the ratio estimator; the partial interval before the first generation
    is discarded. Cycles are drawn and folded in chunks of
    max(1, CHUNK_DRAWS // n) cycles, so memory is one chunk plus O(num_cycles)
    for the two pooled per-interval series. The random stream consumed and the
    estimates, to the last bit, do not depend on the chunk size. A run whose
    int64 sums could overflow is refused.
    """
    if num_cycles < 2:
        raise ValueError("age estimation requires at least 2 cycles")
    _check_int64_totals(config, num_cycles)
    return _estimate(config, num_cycles, _flag_chunks(config, seed, num_cycles))


def empirical_moments(config: SystemConfig, flag_counts: np.ndarray) -> MomentSet:
    """Sample cycle moments and mean service time of a run; age is the plug-in renewal ratio.

    flag_counts is AgeSummary.flag_counts: flag_counts[F] cycles had F
    flagged groups, so they lasted m + k*F slots, and their sources' service
    times sum to n + F*k(k+1)/2. Every total is an exact integer.
    """
    n, m, k = config.n, config.m, config.k
    flagged = np.arange(m + 1, dtype=np.int64)
    lengths = m + k * flagged
    count = int(flag_counts.sum())
    mean = float(int(flag_counts @ lengths)) / count
    second = float(int(flag_counts @ (lengths * lengths))) / count
    service_total = count * n + int(flag_counts @ flagged) * (k * (k + 1) // 2)
    service = float(service_total) / (count * n)
    return MomentSet(
        mean_cycle=mean,
        second_moment_cycle=second,
        mean_service=service,
        average_age=second / (2.0 * mean) + service,
    )
