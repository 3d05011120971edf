"""Optimal group-size selection and efficiency thresholds.

Two metrics are minimized over the divisors of n: the expected number of
updates per cycle E[Y] (the pooled-testing metric) and the average age of
information. For E[Y] the continuous relaxation has stationary points
expressible through the two real branches of the Lambert W function, which
yields a six-candidate shortcut; the age metric has no tractable stationary
condition, so it is searched exhaustively. The largest p at which grouped
updating still matches round robin is in closed form: for each divisor the
age condition is a quadratic in qbar, solved by its larger root.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from . import analytic
from .lambertw import BRANCH_POINT, lambert_w0, lambert_wm1
from .model import _checked_n, divisors, validate_config

__all__ = [
    "STATIONARY_P_MAX",
    "OptimizationResult",
    "StationaryPoints",
    "group_testing_efficiency_threshold",
    "stationary_group_sizes",
    "optimal_group_size_testing",
    "optimal_group_size_updating",
    "updating_efficiency_threshold",
    "kstar_sweep",
]

# Largest p for which the continuous E[Y] curve has interior stationary
# points: 1 - exp(-4/e^2), about 0.418.
STATIONARY_P_MAX = 1.0 - math.exp(-4.0 / math.e**2)


@dataclass(frozen=True)
class OptimizationResult:
    """Minimizer over the evaluated candidate group sizes; ties go to the smallest k."""

    optimal_k: int
    candidates: tuple[tuple[int, float], ...]
    objective_at_optimum: float


@dataclass(frozen=True)
class StationaryPoints:
    """Real stationary group sizes of the continuous expected-updates curve, when they exist."""

    alpha1: float
    alpha2: float
    exists: bool


def group_testing_efficiency_threshold(k: int) -> float:
    """Largest p at which pooling groups of k beats one update per source: 1 - k**(-1/k)."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return -math.expm1(-math.log(k) / k)


def stationary_group_sizes(p: float) -> StationaryPoints:
    """Both stationary points of the continuous E[Y] curve, via the two Lambert W branches.

    Setting dE[Y]/dk = -n/k^2 - n(1-p)^k log(1-p) to zero reduces to
    x*exp(x) = -sqrt(-log(1-p))/2 with x = (k/2) log(1-p), solvable on both
    real branches while the right side stays >= -1/e, i.e. p <= STATIONARY_P_MAX.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"stationary points require 0 < p < 1, got p={p}")
    log_clear = math.log1p(-p)
    target = -0.5 * math.sqrt(-log_clear)
    if target < BRANCH_POINT:
        return StationaryPoints(alpha1=math.nan, alpha2=math.nan, exists=False)
    alpha1 = 2.0 * lambert_w0(target) / log_clear
    alpha2 = 2.0 * lambert_wm1(target) / log_clear
    return StationaryPoints(alpha1=alpha1, alpha2=alpha2, exists=True)


def _neighbor_divisors(alpha: float, divs: list[int]) -> tuple[int, int]:
    # nearest divisors below and above alpha, clamped to [1, n]
    if alpha < divs[0]:
        return divs[0], divs[0]
    if alpha > divs[-1]:
        return divs[-1], divs[-1]
    below = divs[bisect_right(divs, alpha) - 1]
    above = divs[bisect_left(divs, alpha)]
    return below, above


def _argmin_over(n: int, p: float, ks: list[int], objective) -> OptimizationResult:
    # one validated SystemConfig per candidate k; validate_config also checks p
    evaluated = [(k, objective(validate_config(n, p, k))) for k in ks]
    # min keeps the first of equal values, and ks ascend: ties go to the smallest k
    best_k, best_value = min(evaluated, key=itemgetter(1))
    return OptimizationResult(
        optimal_k=best_k,
        candidates=tuple(evaluated),
        objective_at_optimum=best_value,
    )


def _testing_search(n: int, p: float, divs: list[int]) -> OptimizationResult:
    candidates = divs
    if 0.0 < p < 1.0:
        points = stationary_group_sizes(p)
        if points.exists:
            candidates = [1, n]
            for alpha in (points.alpha1, points.alpha2):
                below, above = _neighbor_divisors(alpha, divs)
                candidates.extend((below, above))
            candidates = sorted(set(candidates))
    return _argmin_over(n, p, candidates, analytic.expected_cycle_length)


def optimal_group_size_testing(n: int, p: float) -> OptimizationResult:
    """Group size minimizing E[Y] over divisors of n.

    When the continuous stationary points exist, only 1, n, and the divisors
    bracketing each stationary point need checking; otherwise (p = 0, p = 1,
    or p above STATIONARY_P_MAX) every divisor is evaluated.
    """
    n = _checked_n(n)
    return _testing_search(n, p, divisors(n))


def optimal_group_size_updating(n: int, p: float) -> OptimizationResult:
    """Group size minimizing the average age, by exhaustive search over divisors of n."""
    n = _checked_n(n)
    return _argmin_over(n, p, divisors(n), analytic.average_age)


def updating_efficiency_threshold(n: int) -> float:
    """Largest p for which grouped updating can still match round-robin age, in closed form.

    With u = qbar, E[Y] = m + n u, E[Y^2] = n k (1-u) u + E[Y]^2 and
    E[S] = 1 + (k+1) u/2, groups of k match n/2 + 1 exactly when
    f(u) = E[Y^2] + 2 E[Y] (E[S] - n/2 - 1) = a u^2 + b u + c <= 0, with the
    exact integers a = n(n+1), b = m(k^2 + 2n + k + 1) - n^2, c = m(m-n).
    As a > 0 and c <= 0 < f(1), that holds for u up to the larger root u+ < 1,
    taken in the form that adds like signs: for p <= 1 - (1 - u+)**(1/k). The
    threshold is the largest of these over the divisors of n.
    """
    n = _checked_n(n)
    if n < 2:
        raise ValueError(f"threshold requires n >= 2, got {n}")
    a, best = n * (n + 1), 0.0
    for k in divisors(n):
        m = n // k
        b, c = m * (k * k + 2 * n + k + 1) - n * n, m * (m - n)
        root = math.sqrt(b * b - 4 * a * c)
        u = (root - b) / (2 * a) if b < 0 else 2 * c / (-b - root)
        best = max(best, -math.expm1(math.log1p(-u) / k))
    return best


def kstar_sweep(n: int, p_values) -> list[tuple[float, int, int]]:
    """Optimal group sizes under both metrics for each p: (p, k for age, k for expected updates)."""
    n = _checked_n(n)
    divs = divisors(n)
    rows = []
    for p in p_values:
        updating = _argmin_over(n, p, divs, analytic.average_age)
        rows.append((p, updating.optimal_k, _testing_search(n, p, divs).optimal_k))
    return rows
