"""Probabilistic model of pooled status updating.

n sources are split into m = n/k groups of k sources each. Every source
reports a binary status, 1 with probability p, independently of everything
else. A group whose statuses are all zero is covered by a single aggregate
update (1 time slot); otherwise the aggregate update is followed by one
individual update per source, so source j in a flagged group is delivered
after j+1 slots and the whole group takes k+1 slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SystemConfig",
    "all_clear_probability",
    "validate_config",
    "divisors",
]


def all_clear_probability(p: float, k: int) -> float:
    """Probability (1-p)**k that a group of k sources reports all zeros."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    # exp(k*log1p(-p)) keeps full precision at small p, unlike (1-p)**k
    return math.exp(k * math.log1p(-p))


@dataclass(frozen=True)
class SystemConfig:
    """Validated (n, p, k) triple plus derived group count m and all-clear probability q."""

    n: int
    p: float
    k: int
    m: int
    q: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must lie in [1, n], got k={self.k} for n={self.n}")
        if self.n % self.k != 0:
            raise ValueError(f"k must divide n exactly, got n={self.n}, k={self.k}")
        if self.m != self.n // self.k:
            raise ValueError(f"m must equal n // k, got m={self.m}")
        if abs(self.q - all_clear_probability(self.p, self.k)) > 1e-12:
            raise ValueError(f"q={self.q} inconsistent with (1-p)**k")


def validate_config(n: int, p: float, k: int) -> SystemConfig:
    """Check (n, p, k) and build a SystemConfig with m and q filled in."""
    if k < 1:
        raise ValueError(f"k must lie in [1, n], got k={k} for n={n}")
    return SystemConfig(n=n, p=p, k=k, m=n // k, q=all_clear_probability(p, k))


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order, including 1 and n."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    small: list[int] = []
    large: list[int] = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]
