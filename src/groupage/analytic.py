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
enumeration of status vectors as integer codes. The convolution sums the
binomial pmf over the window that holds its mass, each term from its
neighbour by their ratio, so its work follows the pmf's spread, not m; the
enumeration walks its codes in blocks and counts them, exactly, by set bits
and flagged groups, so its float work is over at most 21 x 21 classes.
Neither sums by a BLAS dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig, _checked_n, _log_all_clear

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


# The Binomial(trials, q) pmf is log-concave, so past a window end whose
# log-pmf lies this far below the mode's every term is smaller still, and the
# terms a window drops add up to less than trials*e^-800 of the peak: none
# that a double could hold. The window's half-widths start here and double.
_WINDOW_LOG_DROP = 800.0
_WINDOW_START = 16


def _binomial_window(trials: int, log_q: float, log_qbar: float) -> tuple[np.ndarray, np.ndarray]:
    """(z, pmf): the Binomial(trials, q) pmf at the consecutive counts z of the window that holds its mass.

    The window runs from the mode floor((trials + 1)*q) out to the first
    point on each side, at a doubling distance, whose log-pmf (by
    math.lgamma) is _WINDOW_LOG_DROP below the mode's, or to 0 and trials.
    No fixed count of standard deviations would do: at trials = 10**5 and
    q = 1 - 1e-12 the standard deviation is 3e-4, yet z = trials - 1
    carries 1e-7 of the mass. Inside it each term's log-pmf relative to the
    mode's is a cumulative sum, outward from the mode, of the neighbour
    ratios log pmf(z+1) - log pmf(z) = log((trials - z)/(z + 1)) + log q -
    log qbar, so the partial sums stay small where the mass is; the terms'
    exps are divided by their sum. lgamma differences, which cancel about
    trials*log(trials) ulps, would leave about 1e-12 in every term. A log of
    -inf (q = 0 or 1) gives the exact point mass.
    """
    if log_q == -math.inf:
        return np.zeros(1, dtype=np.int64), np.ones(1)
    if log_qbar == -math.inf:
        return np.full(1, trials, dtype=np.int64), np.ones(1)
    log_total = math.lgamma(trials + 1)

    def log_pmf(z: int) -> float:
        return log_total - math.lgamma(z + 1) - math.lgamma(trials - z + 1) + z * log_q + (trials - z) * log_qbar

    mode = min(trials, math.floor((trials + 1) * math.exp(log_q)))
    cutoff = log_pmf(mode) - _WINDOW_LOG_DROP

    def end(sign: int, limit: int) -> int:
        width = _WINDOW_START
        while width < sign * (limit - mode) and log_pmf(mode + sign * width) > cutoff:
            width *= 2
        return mode + sign * min(width, sign * (limit - mode))

    lo, hi = end(-1, 0), end(1, trials)
    z = np.arange(lo, hi + 1)
    steps = np.log((trials - z[:-1]) / (z[:-1] + 1)) + (log_q - log_qbar)  # log pmf(z+1) - log pmf(z)
    below, above = steps[: mode - lo], steps[mode - lo :]
    pmf = np.exp(np.concatenate((-np.cumsum(below[::-1])[::-1], [0.0], np.cumsum(above))))
    return z, pmf / pmf.sum()


def convolution_oracle(config: SystemConfig) -> MomentSet:
    """Exact moments from the m-fold sum of i.i.d. group times, without the closed-form algebra.

    With z of the m groups all clear, the cycle lasts m(k+1) - kz slots, and z
    is Binomial(m, q); E[Y] and E[Y^2] are the binomial sums over the window
    of z that holds the pmf's mass (_binomial_window), from log q =
    k*log1p(-p) and log(qbar), so the work follows the pmf's spread, not m.
    The sums are pairwise numpy sums, not BLAS dots. Source j of a group takes
    1 + j slots when its group is flagged, so E[S] = 1 + E[F]*(k+1)/(2m), with
    E[F] the pmf's mean of the m - z flagged groups, in float64.
    """
    m, k, qbar = config.m, config.k, config.qbar
    z, pmf = _binomial_window(m, _log_all_clear(config.p, k), math.log(qbar) if qbar > 0.0 else -math.inf)
    cycle = (m * (k + 1) - k * z).astype(np.float64)
    mean = float((pmf * cycle).sum())
    second = float((pmf * (cycle * cycle)).sum())
    service = 1.0 + float((pmf * (m - z)).sum()) * (k + 1) / (2 * m)
    return MomentSet(
        mean_cycle=mean,
        second_moment_cycle=second,
        mean_service=service,
        average_age=second / (2.0 * mean) + service,
    )


def _or_of_next_bits(codes, k: int):
    """Bit i of the result is the OR of bits i..i+k-1 of codes (an int or an int array), by doubling spans."""
    width = 1
    while width < k:
        step = min(width, k - width)
        codes = codes | (codes >> step)
        width += step
    return codes


def enumeration_oracle(config: SystemConfig) -> MomentSet:
    """Exact moments by enumerating all 2**n status vectors with their probabilities.

    Brute force over the raw model semantics, on the integer codes of the
    status vectors (bit i is source i, group g holds bits gk..gk+k-1): group
    g is flagged when any of its bits is set, which the OR of k shifted
    copies of the code gathers on bit gk. The codes are walked in blocks of
    2**16 and counted, exactly in int64, by their number w of set bits and f
    of flagged groups; a block's bits from 16 up are shared by its codes, so
    they add one popcount to w, and their flagged leaders one to f, per
    block. A code of class (w, f) has probability p^w (1-p)^(n-w), its cycle
    lasts m + k*f slots, and its sources' services add up to n +
    f*k(k+1)/2; these weights are applied once, to at most 21 x 21 classes,
    and summed by math.fsum. Memory is one block's, n <= 16 is one block,
    and n is limited to 20.
    """
    n, m, k, p = config.n, config.m, config.k, config.p
    if n > ENUMERATION_MAX_SOURCES:
        raise ValueError(f"enumeration requires n <= {ENUMERATION_MAX_SOURCES}, got n={n}")
    bits = min(n, _ENUMERATION_BLOCK_BITS)
    ones = np.zeros(1, dtype=np.int8)  # popcount of every code below 2**bits, doubled up one bit at a time
    for _ in range(bits):
        ones = np.concatenate((ones, ones + 1))
    leaders = sum(1 << (g * k) for g in range(m))
    low_mask = (1 << bits) - 1
    low, low_leaders, high_leaders = np.arange(1 << bits, dtype=np.int32), leaders & low_mask, leaders & ~low_mask
    classes = ones.astype(np.intp) * (m + 1)  # a code's flat (w, f) class, before its flags and its block's w
    census = np.zeros((n + 1, m + 1), dtype=np.int64)  # codes by set bits w and flagged groups f
    for high in range(1 << (n - bits)):
        top = high << bits
        flagged = ones[_or_of_next_bits(low | top, k) & low_leaders]  # leaders below 2**bits may reach into top
        block = np.bincount(classes + flagged, minlength=(bits + 1) * (m + 1)).reshape(bits + 1, m + 1)
        w, f = high.bit_count(), (_or_of_next_bits(top, k) & high_leaders).bit_count()
        census[w : w + bits + 1, f:] += block[:, : m + 1 - f]
    positives = np.arange(n + 1, dtype=np.float64)
    weights = np.power(p, positives) * np.power(1.0 - p, n - positives)  # by the number of set bits
    mass = census * weights[:, None]
    flags = np.arange(m + 1)
    cycle = m + k * flags
    mean = math.fsum((mass * cycle).flat)
    second = math.fsum((mass * (cycle * cycle)).flat)
    service = math.fsum((mass * (n + flags * (k * (k + 1) // 2))).flat) / n
    return MomentSet(
        mean_cycle=mean,
        second_moment_cycle=second,
        mean_service=service,
        average_age=second / (2.0 * mean) + service,
    )
