"""Probabilistic model of pooled status updating.

n sources are split into m = n/k groups of k sources each. Every source
reports a binary status, 1 with probability p, independently of everything
else. A group whose statuses are all zero is covered by a single aggregate
update (1 time slot); otherwise the aggregate update is followed by one
individual update per source, so source j in a flagged group is delivered
after j+1 slots and the whole group takes k+1 slots.

A configuration's independent facts are (n, p, k). validate_config checks
them and builds SystemConfig, the namedtuple (n, p, k, m, q, qbar), deriving
m, the all-clear probability q = (1-p)**k and the flagged one qbar = 1 - q
once, as exp(t) and -expm1(t) of one t = k*log1p(-p), so qbar keeps its
digits when k*p << 1, where 1 - q would cancel. Every way to make a config,
SystemConfig(n, p, k), copy, pickle, _make and _replace, goes through
validate_config's checks.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

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
    which cannot wrap in the closed forms' n*n products at large n. A plain
    int takes the one-test path.
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


class SystemConfig(namedtuple("SystemConfig", "n p k m q qbar")):
    """Validated (n, p, k) with the group count m = n/k, q and qbar = 1 - q derived once.

    n, k and m are Python ints, p, q and qbar floats. A config is an
    immutable tuple of these six values: it equals that plain tuple,
    iterates and unpacks.
    """

    __slots__ = ()

    def __new__(cls, n: int, p: float, k: int) -> SystemConfig:
        return validate_config(n, p, k)

    def __getnewargs__(self) -> tuple:
        return self[:3]

    @classmethod
    def _make(cls, iterable) -> SystemConfig:
        values = tuple(iterable)
        config = validate_config(*values[:3])
        if values != config:
            raise ValueError(f"expected (n, p, k) and the m, q and qbar derived from them, got {values!r}")
        return config

    def _replace(self, **changes) -> SystemConfig:
        fields = {"n": self.n, "p": self.p, "k": self.k}
        if not changes.keys() <= fields.keys():
            raise ValueError(f"only n, p and k can be replaced, got {sorted(changes)}")
        return validate_config(**{**fields, **changes})


_new_tuple = tuple.__new__


def validate_config(n: int, p: float, k: int) -> SystemConfig:
    """Check (n, p, k) and build its SystemConfig, in one Python frame.

    The optimizers build one config per divisor, about 800 000 a sweep pass,
    so a plain int n >= 1 skips _checked_n's call and the tuple is filled by
    tuple.__new__ directly, bypassing SystemConfig.__new__.
    """
    if type(n) is not int or n < 1:
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
    return _new_tuple(SystemConfig, (n, p, k, n // k, math.exp(t), -math.expm1(t)))


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
