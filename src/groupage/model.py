"""Probabilistic model of pooled status updating.

n sources are split into m = n/k groups of k sources each. Every source
reports a binary status, 1 with probability p, independently of everything
else. A group whose statuses are all zero is covered by a single aggregate
update (1 time slot); otherwise the aggregate update is followed by one
individual update per source, so source j in a flagged group is delivered
after j+1 slots and the whole group takes k+1 slots.

A configuration's independent facts are (n, p, k); SystemConfig checks them
and derives m, the all-clear probability q = (1-p)**k and the flagged one
qbar = 1 - q once, as exp(t) and -expm1(t) of one t = k*log1p(-p), so qbar
keeps its digits when k*p << 1, where 1 - q would cancel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

__all__ = [
    "SystemConfig",
    "validate_config",
    "divisors",
]

# Largest n whose divisors are searched; above it divisors (and every optimizer) raises ValueError.
DIVISORS_MAX_N = 10**12


def _checked_n(n: int) -> int:
    """n as a Python int; ValueError unless it is a positive integer.

    operator.index rejects floats and turns numpy integers into Python ints,
    which cannot wrap in the closed forms' n*n products at large n. Every
    SystemConfig runs it, so a plain int takes the one-test path.
    """
    if type(n) is not int:
        if isinstance(n, bool):
            raise ValueError(f"n must be a positive integer, got n={n!r}")
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"n must be a positive integer, got n={n!r}") from None
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return n


def _log_all_clear(p: float, k: int) -> float:
    # t = log q = k*log1p(-p), which keeps its digits at small p, unlike log((1-p)**k)
    return -math.inf if p >= 1.0 else k * math.log1p(-p)


@dataclass(frozen=True, init=False)
class SystemConfig:
    """Validated (n, p, k) triple; the group count m = n/k, q and qbar = 1 - q are derived once."""

    n: int
    p: float
    k: int
    m: int = field(init=False)
    q: float = field(init=False)
    qbar: float = field(init=False)

    def __init__(self, n: int, p: float, k: int) -> None:
        n = _checked_n(n)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        if type(k) is not int:
            if isinstance(k, bool) or not hasattr(type(k), "__index__"):
                raise ValueError(f"k must be an integer, got k={k!r}")
            k = operator.index(k)
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, n], got k={k} for n={n}")
        if n % k != 0:
            raise ValueError(f"k must divide n exactly, got n={n}, k={k}")
        t = _log_all_clear(p, k)
        # one dict update rather than six object.__setattr__ calls: the
        # optimizers build one config per divisor, about 800 000 a sweep pass
        self.__dict__.update(n=n, p=p, k=k, m=n // k, q=math.exp(t), qbar=-math.expm1(t))


def validate_config(n: int, p: float, k: int) -> SystemConfig:
    """Check (n, p, k) and build its SystemConfig."""
    return SystemConfig(n, p, k)


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order, including 1 and n; ValueError for n > DIVISORS_MAX_N.

    n is factored by trial division over 2, 3 and the numbers 6j - 1 and
    6j + 1, up to the square root of the part not yet factored, and the
    divisors are the products of its prime powers. A prime just under the
    bound takes about 3.3e5 divisions.
    """
    n = _checked_n(n)
    if n > DIVISORS_MAX_N:
        raise ValueError(f"divisor search needs n <= {DIVISORS_MAX_N}, got n={n}")
    found, rest, limit = [1], n, math.isqrt(n)
    factor, step = 2, 1  # 2, 3, 5, 7, 11, 13, ...: from 5 the steps alternate 2 and 4
    while factor <= limit:
        if rest % factor == 0:
            powers = []
            while rest % factor == 0:
                rest //= factor
                powers.append(factor * (powers[-1] if powers else 1))
            found += [d * power for power in powers for d in found]
            limit = math.isqrt(rest)
        factor += step
        step = 6 - step if factor > 5 else 2
    if rest > 1:  # a prime above the square root of what was factored
        found += [d * rest for d in found]
    return sorted(found)
