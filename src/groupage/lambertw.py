"""Real Lambert W function on the principal and -1 branches.

Solves w * exp(w) = y. Both branches are real on [-1/e, 0); the principal
branch W0 additionally covers y >= 0. Initial guesses use the series around
the branch point -1/e and log-based asymptotics, refined by Halley's method
(Corless, Gonnet, Hare, Jeffrey, Knuth, "On the Lambert W function", 1996).
Self-contained on purpose so downstream optimizers carry no special-function
dependency.
"""

from __future__ import annotations

import math

__all__ = ["BRANCH_POINT", "lambert_w0", "lambert_wm1"]

# -1/e, where the two real branches meet at W = -1
BRANCH_POINT = -math.exp(-1.0)

_MAX_ITERATIONS = 100
_RESIDUAL_RTOL = 1e-13


def _branch_series(y: float, sign: float) -> float:
    # Series around the branch point in rho = sqrt(2(e*y + 1)); sign +1 gives
    # the principal branch, -1 the -1 branch.
    rho = sign * math.sqrt(2.0 * (math.e * y + 1.0))
    return -1.0 + rho - rho * rho / 3.0 + 11.0 * rho**3 / 72.0 - 43.0 * rho**4 / 540.0


def _halley(y: float, w: float, lo: float, hi: float) -> float:
    tol = _RESIDUAL_RTOL * abs(y)
    for _ in range(_MAX_ITERATIONS):
        ew = math.exp(w)
        residual = w * ew - y
        if abs(residual) <= tol:
            return w
        w1 = w + 1.0
        if w1 == 0.0:
            # at the branch point the linear term vanishes; nudge off it
            w1 = 1e-9
        denom = ew * w1 - (w + 2.0) * residual / (2.0 * w1)
        step = residual / denom
        w_next = min(max(w - step, lo), hi)
        if w_next == w:
            break
        w = w_next
    ew = math.exp(w)
    if abs(w * ew - y) <= 1e-12 * abs(y):
        return w
    raise RuntimeError(f"Lambert W iteration did not converge for y={y!r}")


def lambert_w0(y: float) -> float:
    """Principal branch W0(y) for y >= -1/e; W0 in [-1, 0) on the negative part."""
    if math.isnan(y):
        raise ValueError("argument must not be NaN")
    if y < BRANCH_POINT:
        raise ValueError(f"W0 requires y >= -1/e, got {y!r}")
    if y == BRANCH_POINT:
        return -1.0
    if y == 0.0:
        return 0.0
    if y < 0.0:
        w = _branch_series(y, 1.0) if y <= -0.2 else y
        if w + 1.0 <= 1e-3:
            # the series is already accurate to well below the residual target
            return w
        return _halley(y, min(w, -1e-300), lo=-1.0, hi=0.0)
    if y > math.e:
        log_y = math.log(y)
        w = log_y - math.log(log_y)
    else:
        w = math.log1p(y)
    return _halley(y, w, lo=0.0, hi=math.inf)


def lambert_wm1(y: float) -> float:
    """Lower branch W-1(y) for y in [-1/e, 0); values are <= -1."""
    if math.isnan(y):
        raise ValueError("argument must not be NaN")
    if y < BRANCH_POINT or y >= 0.0:
        raise ValueError(f"W-1 requires -1/e <= y < 0, got {y!r}")
    if y == BRANCH_POINT:
        return -1.0
    if y <= -0.3:
        w = _branch_series(y, -1.0)
        if abs(w + 1.0) <= 1e-3:
            return w
    else:
        log_neg_y = math.log(-y)
        log_log = math.log(-log_neg_y)
        w = log_neg_y - log_log + log_log / log_neg_y
    return _halley(y, min(w, -1.0), lo=-math.inf, hi=-1.0)
