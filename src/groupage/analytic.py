"""Closed-form cycle moments and average age of information.

An update cycle is the time to deliver all n statuses once. It is the sum of
m i.i.d. per-group service times W with P(W=1) = q and P(W=k+1) = 1-q, which
gives closed forms for E[Y] and E[Y^2]. The time-average age then follows the
renewal-reward identity  age = E[Y^2] / (2 E[Y]) + E[S]  with E[S] the mean
per-source service time.

Two exact oracles cross-check the closed forms: a binomial convolution over
the number of all-clear groups, and a full 2**n enumeration of status vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig

__all__ = [
    "MomentSet",
    "expected_cycle_length",
    "cycle_length_second_moment",
    "expected_source_service",
    "mean_service_time",
    "average_age",
    "round_robin_age",
    "closed_form_moments",
    "convolution_oracle",
    "enumeration_oracle",
]

ENUMERATION_MAX_SOURCES = 20


@dataclass(frozen=True)
class MomentSet:
    """Cycle moments and the average age they imply."""

    mean_cycle: float
    second_moment_cycle: float
    mean_service: float
    average_age: float


# The closed forms, written once over plain scalars (n, k, q) of a validated
# SystemConfig: n a Python int (a numpy integer would wrap in n*n), k a divisor
# of n and q its all-clear probability. The public per-config functions below
# call them, so each formula has one home and average_age makes one pass.


def _mean_cycle(n: int, k: int, q: float) -> float:
    return n / k + n * (1.0 - q)


def _cycle_second_moment(n: int, k: int, q: float) -> float:
    return (
        n * (n - k) * q * q
        + (n * n * (k + 1) * (k + 1)) / (k * k)
        - n * (2 * n * (k + 1) - k * k) * q / k
    )


def _mean_service(k: int, q: float) -> float:
    return 1.0 + (k + 1) * (1.0 - q) / 2.0


def expected_cycle_length(config: SystemConfig) -> float:
    """E[Y] = n/k + n(1 - q): aggregate updates plus expected individual follow-ups."""
    return _mean_cycle(config.n, config.k, config.q)


def cycle_length_second_moment(config: SystemConfig) -> float:
    """E[Y^2] = n(n-k)q^2 + n^2(k+1)^2/k^2 - n(2n(k+1) - k^2)q/k."""
    return _cycle_second_moment(config.n, config.k, config.q)


def expected_source_service(config: SystemConfig, j: int) -> float:
    """E[S_j] = 1 + j(1 - q) for the j-th source of a group, j in 1..k."""
    if not 1 <= j <= config.k:
        raise ValueError(f"source index j must lie in [1, k], got j={j} for k={config.k}")
    return 1.0 + j * (1.0 - config.q)


def mean_service_time(config: SystemConfig) -> float:
    """E[S] = 1 + (k+1)(1 - q)/2, the mean of E[S_j] over j = 1..k."""
    return _mean_service(config.k, config.q)


def average_age(config: SystemConfig) -> float:
    """Time-average age of information, E[Y^2]/(2 E[Y]) + E[S]."""
    n, k, q = config.n, config.k, config.q
    return _cycle_second_moment(n, k, q) / (2.0 * _mean_cycle(n, k, q)) + _mean_service(k, q)


def round_robin_age(n: int) -> float:
    """Age of plain one-source-at-a-time updating: n/2 + 1."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return n / 2.0 + 1.0


def closed_form_moments(config: SystemConfig) -> MomentSet:
    """All closed-form quantities bundled into one MomentSet."""
    return MomentSet(
        mean_cycle=expected_cycle_length(config),
        second_moment_cycle=cycle_length_second_moment(config),
        mean_service=mean_service_time(config),
        average_age=average_age(config),
    )


def _binomial_pmf(m: int, z: int, q: float) -> float:
    if q <= 0.0:
        return 1.0 if z == 0 else 0.0
    if q >= 1.0:
        return 1.0 if z == m else 0.0
    log_pmf = (
        math.lgamma(m + 1)
        - math.lgamma(z + 1)
        - math.lgamma(m - z + 1)
        + z * math.log(q)
        + (m - z) * math.log1p(-q)
    )
    return math.exp(log_pmf)


def convolution_oracle(config: SystemConfig) -> MomentSet:
    """Exact moments from the m-fold sum of i.i.d. group times, without the closed-form algebra.

    With z of the m groups all clear, the cycle lasts m(k+1) - kz slots, and z
    is Binomial(m, q); E[Y] and E[Y^2] are the exact binomial sums.
    """
    m, k, q = config.m, config.k, config.q
    mean = 0.0
    second = 0.0
    for z in range(m + 1):
        pmf = _binomial_pmf(m, z, q)
        y = m * (k + 1) - k * z
        mean += pmf * y
        second += pmf * y * y
    service = sum(expected_source_service(config, j) for j in range(1, k + 1)) / k
    return MomentSet(
        mean_cycle=mean,
        second_moment_cycle=second,
        mean_service=service,
        average_age=second / (2.0 * mean) + service,
    )


def enumeration_oracle(config: SystemConfig) -> MomentSet:
    """Exact moments by enumerating all 2**n status vectors with their probabilities.

    Brute force over the raw model semantics (per-group OR, per-source service
    times); limited to n <= 20.
    """
    n, m, k, p = config.n, config.m, config.k, config.p
    if n > ENUMERATION_MAX_SOURCES:
        raise ValueError(f"enumeration requires n <= {ENUMERATION_MAX_SOURCES}, got n={n}")
    count = 1 << n
    codes = np.arange(count, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(np.int8)
    ones = bits.sum(axis=1, dtype=np.int64)
    pmf = np.power(p, ones.astype(np.float64)) * np.power(1.0 - p, (n - ones).astype(np.float64))
    positive = bits.reshape(count, m, k).any(axis=2)
    group_times = 1 + k * positive.astype(np.int64)
    cycle = group_times.sum(axis=1)
    mean = float(pmf @ cycle)
    second = float(pmf @ (cycle * cycle))
    service_total = 0.0
    for i in range(m):
        flagged = positive[:, i].astype(np.float64)
        for j in range(1, k + 1):
            service_total += float(pmf @ (1.0 + j * flagged))
    service = service_total / n
    return MomentSet(
        mean_cycle=mean,
        second_moment_cycle=second,
        mean_service=service,
        average_age=second / (2.0 * mean) + service,
    )
