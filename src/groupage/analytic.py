"""Closed-form cycle moments and average age of information.

An update cycle is the time to deliver all n statuses once: the sum of m
i.i.d. group times W, 1 with probability q and k+1 with qbar = 1 - q, so
E[W] = 1 + k*qbar and Var W = k^2*q*qbar. Hence E[Y] = m + n*qbar and
E[Y^2] = m*Var W + E[Y]^2 = n*k*q*qbar + E[Y]^2, and the time-average age
follows the renewal-reward identity  age = E[Y^2] / (2 E[Y]) + E[S]  with
E[S] = 1 + (k+1)*qbar/2. Every term is a sum of non-negative products of
q and qbar, which the config derives without a subtraction, so the closed
forms keep their digits when k*p << 1.

Two exact oracles cross-check the closed forms without using them: a
binomial convolution over the number of all-clear groups, and a full 2**n
enumeration of status vectors as integer codes. The convolution is one
whole-array numpy expression; the enumeration walks its codes in blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig, _checked_n

__all__ = [
    "MomentSet",
    "expected_cycle_length",
    "cycle_length_second_moment",
    "mean_service_time",
    "average_age",
    "round_robin_age",
    "closed_form_moments",
    "convolution_oracle",
    "enumeration_oracle",
]

ENUMERATION_MAX_SOURCES = 20
_ENUMERATION_BLOCK_BITS = 16


@dataclass(frozen=True)
class MomentSet:
    """Cycle moments and the average age they imply."""

    mean_cycle: float
    second_moment_cycle: float
    mean_service: float
    average_age: float


# The closed forms, written once over the scalars of a validated SystemConfig
# (n a Python int, so n*k cannot wrap); the public per-config functions below
# call them, so each formula has one home and average_age makes one pass.


def _mean_cycle(n: int, m: int, qbar: float) -> float:
    return m + n * qbar


def _cycle_second_moment(n: int, k: int, q: float, qbar: float, mean: float) -> float:
    return n * k * q * qbar + mean * mean


def _mean_service(k: int, qbar: float) -> float:
    return 1.0 + (k + 1) * qbar / 2.0


def expected_cycle_length(config: SystemConfig) -> float:
    """E[Y] = m + n*qbar: one aggregate update per group plus the flagged groups' follow-ups."""
    return _mean_cycle(config.n, config.m, config.qbar)


def cycle_length_second_moment(config: SystemConfig) -> float:
    """E[Y^2] = n*k*q*qbar + E[Y]^2, since Var Y = m Var W = m k^2 q qbar."""
    return _cycle_second_moment(config.n, config.k, config.q, config.qbar, expected_cycle_length(config))


def mean_service_time(config: SystemConfig) -> float:
    """E[S] = 1 + (k+1)*qbar/2, the mean over j = 1..k of E[S_j] = 1 + j*qbar."""
    return _mean_service(config.k, config.qbar)


def average_age(config: SystemConfig) -> float:
    """Time-average age of information, E[Y^2]/(2 E[Y]) + E[S]."""
    n, k, qbar = config.n, config.k, config.qbar
    mean = _mean_cycle(n, config.m, qbar)
    return _cycle_second_moment(n, k, config.q, qbar, mean) / (2.0 * mean) + _mean_service(k, qbar)


def round_robin_age(n: int) -> float:
    """Age of plain one-source-at-a-time updating: n/2 + 1."""
    return _checked_n(n) / 2.0 + 1.0


def closed_form_moments(config: SystemConfig) -> MomentSet:
    """All closed-form quantities bundled into one MomentSet."""
    return MomentSet(
        mean_cycle=expected_cycle_length(config),
        second_moment_cycle=cycle_length_second_moment(config),
        mean_service=mean_service_time(config),
        average_age=average_age(config),
    )


def convolution_oracle(config: SystemConfig) -> MomentSet:
    """Exact moments from the m-fold sum of i.i.d. group times, without the closed-form algebra.

    With z of the m groups all clear, the cycle lasts m(k+1) - kz slots, and z
    is Binomial(m, q); E[Y] and E[Y^2] are the exact binomial sums over
    z = 0..m, whose pmf comes from a table of log-factorials and the logs
    log q = k*log1p(-p) and log(qbar), divided by its own sum: the
    log-factorial differences cancel about m*log(m) ulps, which would leave
    the mass 2.4e-9 short of 1 at m = 1 321 122 and p = 0.5. Source j of a
    group takes 1 + j slots when its group is flagged, so E[S] averages
    1 + j*qbar over j = 1..k.
    """
    m, k, p, q, qbar = config.m, config.k, config.p, config.q, config.qbar
    z = np.arange(m + 1)
    if 0.0 < p < 1.0:
        log_factorial = np.fromiter(map(math.lgamma, range(1, m + 2)), dtype=np.float64, count=m + 1)
        log_choose = log_factorial[m] - log_factorial - log_factorial[::-1]
        pmf = np.exp(log_choose + z * (k * math.log1p(-p)) + (m - z) * math.log(qbar))
        pmf /= pmf.sum()
    else:  # the exact point mass at z = 0 (q = 0) or z = m (q = 1)
        pmf = (z == m * q).astype(np.float64)
    cycle = (m * (k + 1) - k * z).astype(np.float64)
    mean = float(pmf @ cycle)
    second = float(pmf @ (cycle * cycle))
    service = float(np.mean(1.0 + np.arange(1, k + 1) * qbar))
    return MomentSet(
        mean_cycle=mean,
        second_moment_cycle=second,
        mean_service=service,
        average_age=second / (2.0 * mean) + service,
    )


def enumeration_oracle(config: SystemConfig) -> MomentSet:
    """Exact moments by enumerating all 2**n status vectors with their probabilities.

    Brute force over the raw model semantics, on the integer codes of the
    status vectors (bit i is source i, group g holds bits gk..gk+k-1): a
    code with w set bits has probability p^w (1-p)^(n-w); group g is flagged
    when any of its bits is set, which the OR of k shifted copies of the code
    gathers on bit gk; source j of a flagged group takes 1 + j slots, of an
    all-clear one 1. The codes are walked in blocks of 2**16, each block's
    expectations summed by numpy and the blocks' sums added exactly, so
    memory is one block's and n <= 16 is one block. Limited to n <= 20.
    """
    n, m, k, p = config.n, config.m, config.k, config.p
    if n > ENUMERATION_MAX_SOURCES:
        raise ValueError(f"enumeration requires n <= {ENUMERATION_MAX_SOURCES}, got n={n}")
    bits = min(n, _ENUMERATION_BLOCK_BITS)
    ones = np.zeros(1, dtype=np.int8)  # popcount of every code below 2**bits, doubled up one bit at a time
    for _ in range(bits):
        ones = np.concatenate((ones, ones + 1))
    positives = np.arange(n + 1, dtype=np.float64)
    weights = np.power(p, positives) * np.power(1.0 - p, n - positives)  # by the number of set bits
    leaders = sum(1 << (g * k) for g in range(m))
    low, low_mask = np.arange(1 << bits, dtype=np.int32), (1 << bits) - 1
    means, seconds, services = [], [], []
    for high in range(1 << (n - bits)):  # the block's codes share their bits from `bits` up
        codes = low | (high << bits)
        pmf = weights[ones + ones[high]]
        group_any = functools.reduce(np.bitwise_or, (codes >> shift for shift in range(k)))
        leader_bits = group_any & leaders
        flagged = (ones[leader_bits & low_mask] + ones[leader_bits >> bits]).astype(np.float64)
        cycle = m + k * flagged
        means.append(float(pmf @ cycle))
        seconds.append(float(pmf @ (cycle * cycle)))
        # a pairwise sum keeps the service within an ulp or so; a dot product here drifts by up to 1e-14
        services.append(float(np.sum(pmf * (n + flagged * (k * (k + 1) // 2)))))
    mean, second = math.fsum(means), math.fsum(seconds)
    service = math.fsum(services) / n
    return MomentSet(
        mean_cycle=mean,
        second_moment_cycle=second,
        mean_service=service,
        average_age=second / (2.0 * mean) + service,
    )
