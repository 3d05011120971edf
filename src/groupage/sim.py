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


def _estimate(config: SystemConfig, flag_chunks: Iterable[np.ndarray]) -> AgeSummary:
    """Renewal-reward age estimate from a run's group flags, fed in cycle order.

    Over the N-1 complete intervals it keeps per-group sums of Y, Y^2 and Y*F
    and, per interval, the pooled sums over all n sources of Y and of the
    double area Y^2 + 2*Y*S = sum over groups of k*Y^2 + 2k*Y + k(k+1)*Y*F.
    It counts all N cycles by their flagged-group count. Across chunks it
    carries only the time from each group's last generation instant to the
    end of that cycle.
    """
    m, k = config.m, config.k
    sums = np.zeros((3, m), dtype=np.int64)  # per group: sum Y, sum Y^2, sum Y*F
    flag_counts = np.zeros(m + 1, dtype=np.int64)
    pooled_intervals: list[np.ndarray] = []
    pooled_double_areas: list[np.ndarray] = []
    carry: np.ndarray | None = None
    for flags in flag_chunks:
        group_times = np.where(flags, k + 1, 1)
        ends = np.cumsum(group_times, axis=1)
        counts = np.bincount((ends[:, -1] - m) // k)  # a cycle lasts m + k*F slots
        flag_counts[: len(counts)] += counts
        intervals = ends - group_times  # start offsets within the cycle
        to_cycle_end = ends[:, -1:] - intervals
        intervals[1:] += to_cycle_end[:-1]
        if carry is None:
            intervals, flags = intervals[1:], flags[1:]
        else:
            intervals[0] += carry
        carry = to_cycle_end[-1]
        squares = intervals * intervals
        flagged = intervals * flags
        for row, term in zip(sums, (intervals, squares, flagged)):
            row += term.sum(axis=0)
        y = intervals.sum(axis=1)
        pooled_intervals.append(k * y)
        pooled_double_areas.append(k * (squares.sum(axis=1) + 2 * y + (k + 1) * flagged.sum(axis=1)))
    interval_sum, interval_sq_sum, interval_flag_sum = sums[:, :, None]
    interval_service_sum = interval_sum + np.arange(1, k + 1, dtype=np.int64) * interval_flag_sum
    per_source = (0.5 * interval_sq_sum + interval_service_sum) / interval_sum
    return AgeSummary(
        per_source_age=per_source,
        overall_age=float(per_source.mean()),
        standard_error=_pooled_standard_error(
            np.concatenate(pooled_intervals), np.concatenate(pooled_double_areas), config.n
        ),
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
    residuals = (0.5 * pooled_double_areas - pooled_age * pooled_intervals) / n
    gamma0 = float(residuals @ residuals) / count
    gamma1 = float(residuals[:-1] @ residuals[1:]) / count if count > 1 else 0.0
    variance = max(gamma0 + 2.0 * gamma1, 0.0) / count
    mean_interval = total_intervals / (n * count)
    return math.sqrt(variance) / mean_interval


def simulate_age(config: SystemConfig, num_cycles: int, seed: int) -> AgeSummary:
    """Simulate num_cycles i.i.d. update cycles from a seed and estimate the age (needs >= 2 cycles).

    The N-1 complete per-source renewal intervals between generation instants
    feed the ratio estimator; the partial interval before the first generation
    is discarded. Cycles are drawn and folded in chunks of
    max(1, CHUNK_DRAWS // n) cycles, so memory is one chunk plus O(num_cycles)
    for the two pooled per-interval series. The random stream consumed and the
    estimates, to the last bit, do not depend on the chunk size.
    """
    if num_cycles < 2:
        raise ValueError("age estimation requires at least 2 cycles")
    return _estimate(config, _flag_chunks(config, seed, num_cycles))


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
