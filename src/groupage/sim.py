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
group flags, a trace is its (N, m) flags, and every per-source sum is affine
in j: sum(Y*S) = sum(Y) + j*sum(Y*F). One accumulator folds the flags, chunk
by chunk in cycle order, into exact integer per-group sums and the two
per-interval pooled series of the standard error. The full-trace and
streaming estimates both run through it, so they are identical to the last
bit. The only per-source array is the (cycles, m, k) uniform draw of a chunk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .model import SystemConfig

__all__ = [
    "CycleTrace",
    "AgeSummary",
    "simulate_cycles",
    "empirical_average_age",
    "empirical_moments",
    "simulate_age",
]

from .analytic import MomentSet

# Uniform draws per chunk (2 MB of float64); a chunk holds max(1, CHUNK_DRAWS // n) cycles.
# Larger chunks measured no faster, and at k = 1 a chunk's per-group arrays are as long as its draws.
CHUNK_DRAWS = 2**18


@dataclass(frozen=True)
class CycleTrace:
    """One simulated realization, stored as its per-cycle group flags.

    flags (N, m) is True where a group has at least one positive source; group
    i then takes k+1 slots in that cycle, otherwise 1. cycle_lengths (N,) sums
    the flags once, on first access; mean_service_times (N,) derives from it.
    """

    config: SystemConfig
    flags: np.ndarray

    @property
    def num_cycles(self) -> int:
        return len(self.flags)

    @functools.cached_property
    def cycle_lengths(self) -> np.ndarray:
        """Slots per cycle, m + k*F with F flagged groups; read-only, since every reader shares it."""
        lengths = self.config.m + self.config.k * self.flags.sum(axis=1, dtype=np.int64)
        lengths.flags.writeable = False
        return lengths

    @property
    def mean_service_times(self) -> np.ndarray:
        """Service time averaged over the n sources, per cycle: (n + F*k(k+1)/2) / n with F flagged groups."""
        n, m, k = self.config.n, self.config.m, self.config.k
        return (n + (self.cycle_lengths - m) // k * (k * (k + 1) // 2)) / n


@dataclass(frozen=True)
class AgeSummary:
    """Per-source and overall time-average age estimates from one simulation run."""

    per_source_age: np.ndarray  # (m, k)
    overall_age: float
    standard_error: float


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


def simulate_cycles(config: SystemConfig, num_cycles: int, seed: int) -> CycleTrace:
    """Simulate num_cycles i.i.d. update cycles, deterministically for a given seed."""
    if num_cycles < 1:
        raise ValueError(f"num_cycles must be >= 1, got {num_cycles}")
    flags = np.concatenate(list(_flag_chunks(config, seed, num_cycles)))
    return CycleTrace(config=config, flags=flags)


def _estimate(config: SystemConfig, flag_chunks: Iterable[np.ndarray]) -> AgeSummary:
    """Renewal-reward age estimate from a run's group flags, fed in cycle order.

    Over the N-1 complete intervals it keeps per-group sums of Y, Y^2 and Y*F
    and, per interval, the pooled sums over all n sources of Y and of the
    double area Y^2 + 2*Y*S = sum over groups of k*Y^2 + 2k*Y + k(k+1)*Y*F.
    Across chunks it carries only the time from each group's last generation
    instant to the end of that cycle.
    """
    m, k = config.m, config.k
    sums = np.zeros((3, m), dtype=np.int64)  # per group: sum Y, sum Y^2, sum Y*F
    pooled_intervals: list[np.ndarray] = []
    pooled_double_areas: list[np.ndarray] = []
    carry: np.ndarray | None = None
    for flags in flag_chunks:
        group_times = np.where(flags, k + 1, 1)
        ends = np.cumsum(group_times, axis=1)
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


def empirical_average_age(trace: CycleTrace) -> AgeSummary:
    """Renewal-reward age estimate from a full trace (needs >= 2 cycles).

    The N-1 complete per-source renewal intervals between generation instants
    feed the ratio estimator, discarding the partial interval before the first
    generation. The trace's flags are folded in the same chunks simulate_age
    draws.
    """
    if trace.num_cycles < 2:
        raise ValueError("age estimation requires at least 2 cycles")
    chunk = _cycles_per_chunk(trace.config)
    flag_chunks = (trace.flags[start : start + chunk] for start in range(0, trace.num_cycles, chunk))
    return _estimate(trace.config, flag_chunks)


def simulate_age(config: SystemConfig, num_cycles: int, seed: int) -> AgeSummary:
    """simulate_cycles + empirical_average_age without keeping the trace.

    Draws and folds cycles in chunks of max(1, CHUNK_DRAWS // n) cycles, so
    memory is one chunk plus O(num_cycles) for the two pooled per-interval
    series. Consumes the random stream identically to simulate_cycles, and
    its estimates do not depend on the chunk size, to the last bit.
    """
    if num_cycles < 2:
        raise ValueError("age estimation requires at least 2 cycles")
    return _estimate(config, _flag_chunks(config, seed, num_cycles))


def empirical_moments(trace: CycleTrace) -> MomentSet:
    """Sample cycle moments and mean service time; age is the plug-in renewal ratio."""
    cycles = trace.cycle_lengths
    count = trace.num_cycles
    n, m, k = trace.config.n, trace.config.m, trace.config.k
    cycle_total = int(cycles.sum())
    mean = float(cycle_total) / count
    second = float((cycles * cycles).sum()) / count
    service_total = count * n + (cycle_total - count * m) // k * (k * (k + 1) // 2)
    service = float(service_total) / (count * n)
    return MomentSet(
        mean_cycle=mean,
        second_moment_cycle=second,
        mean_service=service,
        average_age=second / (2.0 * mean) + service,
    )
