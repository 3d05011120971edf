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
sum(Y*S) = sum(Y) + j*sum(Y*F). A group's k statuses enter only through its
flag, which is set with probability qbar = 1 - (1-p)^k independently of
every other group and cycle, so the simulator draws one uniform per group
and cycle, never a source's status. One accumulator draws the flags chunk by
chunk and folds them, in cycle order, into exact integer per-group sums,
nine exact integer sums from which the standard error follows, and a count
of cycles by their number of flagged groups, from which the sample cycle
moments follow exactly. No run keeps its flags or any per-cycle series, so
a run's memory is one chunk's (cycles, m) group arrays, its per-group sums
and its m + 1 counts of cycles by flag total, whatever N and k are.

A group's interval spans the m group times before the slot that closes it,
so Y = m + k*C, with C <= m the flagged slots among those m. The fold takes
every C of a large block at m <= 127 as an int8 window sum of width m over
the block's flat flags, built from sums over doubling spans, and every C of
any other block from one exclusive flat count of its flags, m slots apart.
It sums C, C^2 and C*F in int32 while no such sum can reach 2^31 (m <= 1290
at the chunk size) and in int64 otherwise; the sums of Y follow by exact
int64 algebra. An interval between two all-clear cycles has C = 0 and F = 0
in every group, so the fold only counts it, and its work follows the
intervals that touch a flagged cycle. Where few rows can be busy, the fold
takes a chunk's flagged slots as flat positions cycle*m + group and builds
only the rows r-1, r and r+1 around each flagged row r, merged from those
three sorted runs by one stable sort. It folds every block as consecutive
rows: a built row whose chunk row before it was left out is all clear, and
so is the built row before it, so it folds to C = F = 0 either way.

A run that expects fewer than SLOT_SAMPLER_FLAGS (one) flagged group-cycle,
N*m*qbar < 1, p = 0 included, draws no uniform per slot: it draws only its
flagged slots, by geometric gaps over the N*m slots in (cycle, group) order,
and feeds their positions to the fold as it draws them, in stretches that
each start at a flagged cycle and hold only its flags, so that no block of
the fold holds more than two rows of m groups, that cycle's and the next.
Its work is O((1 + flags)*m), and its memory does not grow with its flags.
Its flags have the law of the uniform draw but come from a stream of their
own; every run with N*m*qbar >= 1 draws the uniforms.

A run is admitted by _check_int64_totals alone, which refuses every m above
1 321 122 and every n >= 2^21. At the largest admitted shapes, under
tracemalloc, a two-cycle run at p = 0.5 peaks at 102 MiB at m = 1 321 122,
k = 1, and under 1 MiB at m = 1, k = 1 664 509, and a 100-cycle slot-drawn run
at m = 1 321 122 at 118.4 to 119.2 MiB whether one or four of its cycles are
flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from .analytic import MomentSet
from .model import SystemConfig

__all__ = ["AgeSummary", "empirical_moments", "simulate_age"]

# Uniform draws per chunk (2 MB of float64), one a group and cycle; a chunk holds
# max(1, CHUNK_DRAWS // m) cycles. Larger chunks measured no faster.
CHUNK_DRAWS = 2**18
# _fold gathers a chunk's busy rows when at most this share of its rows can be busy, and
# otherwise takes the whole chunk. Measured on 2 vCPUs (numpy 2.4), the two cost the same at
# a bound of about 0.6 to 0.7 of the rows at m = 2, 0.7 at m = 30, 0.75 at m = 50 and 1.2 to
# 1.3 at m = 200, where the blocks of either side that reach _WINDOW_SLOTS take window sums
# (0.7, 0.8 to 0.85, 0.95 to 1.0 and 1.2 to 1.3 with the flat count alone). Per op the choice
# is within noise: the simulator time of the benchmark's validate ops (workload seed 1) was
# 0.131 s at 0.35, 0.141 s at 0.5 and 0.135 s at 0.65, medians of 10 alternating rounds.
_GATHER_SHARE = 0.35
# _fold_block counts a block's intervals by int8 window sums when m < _WINDOW_GROUPS, so that
# no window, at most m flags, wraps, and the block holds at least _WINDOW_SLOTS slots, and by
# one flat count otherwise. Measured per block on 2 vCPUs (numpy 2.4), the two cost the same
# at about 2^11 slots at m = 1 and 2 and 2^12 to 2^13 at m = 30 to 127, where the window
# sums' dozen or so more numpy calls, about 10 us, are paid back; at 2^14 slots the window
# sums are 8 to 40% faster, and on a whole chunk, 2^18 slots, 0.79 against 1.47 ms at m = 30
# and 0.68 against 1.28 ms at m = 127.
_WINDOW_GROUPS = 128
_WINDOW_SLOTS = 2**14
# A run expecting fewer flagged group-cycles than this, N*m*qbar, draws only its flagged slots,
# by _flagged_slot_stretches. At about 1.5 us a flag, the slot draw measured faster than the
# uniform draw up to qbar of about 0.003 (m = 1 to 200, 2 vCPUs), but a wider gate would change
# the stream of few-flag runs whose 3-SE validation legs are not yet calibrated.
SLOT_SAMPLER_FLAGS = 1.0


@dataclass(frozen=True)
class AgeSummary:
    """Per-group sums and the overall time-average age estimate from one simulation run.

    interval_sums[:, g] holds group g's exact sums of Y, Y^2 and Y*F over the
    N-1 intervals, which its k sources share: source j's age is (sum Y^2/2 +
    sum Y + j*sum Y*F) / sum Y, and overall_age averages these over all n
    sources. flag_counts[F] counts the cycles, the first included, in which F
    of the m groups were flagged; such a cycle lasts m + k*F slots.
    """

    overall_age: float
    standard_error: float
    flag_counts: np.ndarray  # (m + 1,) int64
    interval_sums: np.ndarray  # (3, m) int64


def _cycles_per_chunk(config: SystemConfig) -> int:
    return max(1, CHUNK_DRAWS // config.m)


def _flag_chunks(config: SystemConfig, seed: int, num_cycles: int) -> Iterator[np.ndarray]:
    """Group flags of num_cycles seeded cycles, (cycles, m) per chunk of up to _cycles_per_chunk cycles.

    A group is flagged when its one uniform draw is below qbar, the chance
    that some of its k sources is positive. The draws are taken in (cycle,
    group) order, N*m of them, so the stream consumed does not depend on the
    chunking. At k = 1, qbar is p (or one ulp from it), so the flags are a
    draw of every source's status.
    """
    rng = np.random.default_rng(seed)
    chunk_cycles = _cycles_per_chunk(config)
    for start in range(0, num_cycles, chunk_cycles):
        yield rng.random((min(chunk_cycles, num_cycles - start), config.m)) < config.qbar


def _flagged_slot_stretches(config: SystemConfig, seed: int, num_cycles: int) -> Iterator[tuple[int, np.ndarray]]:
    """A seeded run's flagged slots, drawn by geometric gaps, as (cycles, positions) stretches.

    As in _flag_chunks, each of the N*m slots, in (cycle, group) order, is
    flagged with probability qbar independently of the others, so the gap
    from one flagged slot, or from slot -1, to the next is geometric:
    G = 1 + floor(E / -log(1 - qbar)), with E a standard exponential, has
    P(G > g) = (1 - qbar)^g (inversion, Devroye 1986). The draw takes one
    exponential per flag and one more, so its work follows the flags; its
    stream is not _flag_chunks'. At p = 0 it draws nothing. A stretch ends
    where a gap lands in a new cycle: the first starts at cycle 0, and each
    later one at a flagged cycle, whose flags are its only ones. positions
    holds a stretch's flagged slots as sorted flat indices cycle*m + group,
    cycles counted from its first.
    """
    m, start, positions = config.m, 0, []
    if config.qbar > 0.0:
        rng = np.random.default_rng(seed)
        rate = -math.log1p(-config.qbar)
        position, last = -1, num_cycles * m - 1
        while (gap := rng.standard_exponential() / rate) < last - position:
            position += math.floor(gap) + 1
            if (cycle := position // m) > start:
                yield cycle - start, np.array(positions, dtype=np.int64)
                start, positions = cycle, []
            positions.append(position - start * m)
    yield num_cycles - start, np.array(positions, dtype=np.int64)


def _add_exact_sums(totals: list[int], deviations: np.ndarray) -> None:
    """Add the exact sums of a block's (2, rows) int64 values (u, v), 0 <= u <= v, into nine Python ints.

    In order: sum u, sum v; the sums of uu, uv and vv over the rows; and of
    uu, uv, vu and vv over the lag pairs, each row then the next. The values
    are split into as many limbs of (62 - bit length of rows) // 2 bits as
    max v needs (u <= v needs no more), so that each limb sum and limb dot
    over the rows is below 2^62; these are added with their shifts. Values
    that fit in one limb are that limb and take seven dots, and an all-zero
    block none.
    """
    rows = deviations.shape[1]
    width = (62 - rows.bit_length()) // 2
    mask = (1 << width) - 1
    top = int(deviations[1].max())
    if top >> width:
        limbs = [(shift, (deviations >> shift) & mask) for shift in range(0, top.bit_length(), width)]
    else:
        limbs = [(0, deviations)] if top else []
    for shift, (u, v) in limbs:
        totals[0] += int(u.sum()) << shift
        totals[1] += int(v.sum()) << shift
        for other, (x, z) in limbs:
            products = (u @ x, u @ z, v @ z, u[:-1] @ x[1:], u[:-1] @ z[1:], v[:-1] @ x[1:], v[:-1] @ z[1:])
            for i, value in enumerate(products, start=2):
                totals[i] += int(value) << (shift + other)


def _window_sums(flags: np.ndarray, m: int) -> np.ndarray:
    """The sums of every m consecutive entries of a flat int8 array of 0s and 1s, in int8 (m <= 127).

    Doubling spans: floor(log2 m) in-place adds turn the array into its sums
    over spans of 1, 2, 4, ... entries, and the spans of m's set bits, laid
    end to end, add up to each window, popcount(m) - 1 adds. flags is
    overwritten, and the result may be a view of it.
    """
    size, count = len(flags), len(flags) - m + 1
    spans, sums, width = flags, None, 1
    while True:
        taken = False
        if m & width:  # the span of this bit starts after those of the lower set bits
            piece = spans[m & (width - 1) :][:count]
            if sums is None:
                sums, taken = piece, True
            else:
                sums += piece
        if 2 * width > m:
            return sums
        valid = size - 2 * width + 1
        if taken:  # sums is a view of spans: double into a new array
            spans = np.add(spans[:valid], spans[width : width + valid])
        else:
            np.add(spans[:valid], spans[width : width + valid], out=spans[:valid])
        width *= 2


def _fold_block(block: np.ndarray, first_row: int, carry: np.ndarray, sums: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """One block of cycles' group flags: (counts of its cycles by flag total, row deviations), its C sums added to sums.

    Row r's interval in group g spans the m group times before slot (r, g),
    so Y = m + k*C, with C the flags among those m slots. carry holds, per
    group, the flags at or after it in the previous block's last row, and is
    then overwritten with this block's. A block of at least _WINDOW_SLOTS
    slots at m < _WINDOW_GROUPS takes every C as an int8 window sum of width
    m, by _window_sums, over the previous block's last row (carry's
    differences) and this block's flat flags, and each row's flag total as
    the window that covers it; any other block takes C as the difference, m
    slots apart, of one exclusive flat count of its flags that starts at
    -carry. Over its rows from first_row (0 or 1) on, it adds the sums of C,
    C^2, C*F and F per group into the (4, m) int64 sums, sum C telescoping,
    and returns per row the deviations u and v of the pooled sums over all n
    sources of Y and of the double area Y^2 + 2*Y*S, which are k*sum Y and
    k*sum (Y^2 + 2Y + (k+1)*Y*F), from a quiet row's k*m^2 and
    k*m^2*(m + 2). C <= m, so each sum of C, C^2 or C*F is at most m^3 or
    rows*m^2: the counts and those sums run in int32 while both are below
    2^31, and in int64 otherwise. The row deviations follow from them by
    exact int64 algebra. Its (rows, m) arrays die on return.
    """
    rows, m = block.shape
    narrow = np.int32 if max(m**3, rows * m * m) < 2**31 else np.int64
    if m < _WINDOW_GROUPS and rows * m >= _WINDOW_SLOTS:
        flags = np.empty((rows + 1) * m, dtype=np.int8)
        np.subtract(carry[:-1], carry[1:], out=flags[: m - 1], casting="unsafe")  # the previous block's last row
        flags[m - 1] = carry[-1]
        flags[m:] = block.reshape(-1)
        windows = _window_sums(flags, m)  # windows[i]: the flags among flags[i : i + m]
        c = windows[:-1].reshape(rows, m).astype(narrow)
        row_flags = windows[m::m].astype(np.int64)
        # sum C: the flags at or after g in row first_row - 1 (row -1 the previous block's
        # last), in every row from first_row on, less those at or after g in the last row
        first = carry if first_row == 0 else np.cumsum(block[0, ::-1])[::-1]
        last = np.cumsum(block[-1, ::-1])[::-1]
        sums[0] += first - last + row_flags[first_row:].sum()
        carry[:] = last
        del flags, windows  # before the reductions' temporaries
    else:
        counts = np.empty((rows + 1) * m + 1, dtype=narrow)
        np.negative(carry, out=counts[:m])
        counts[m] = 0
        np.cumsum(block, out=counts[m + 1 :])
        before = counts[:-1].reshape(rows + 1, m)  # before[r + 1, g]: the block's flags before slot (r, g)
        c = before[1:] - before[:-1]
        row_flags = np.subtract(counts[2 * m :: m], counts[m:-1:m], dtype=np.int64)
        np.subtract(counts[-1], before[-1], out=carry, casting="same_kind")
        sums[0] += before[-1] - before[first_row]
        del counts, before  # before the reductions' temporaries
    length_counts = np.bincount(row_flags)
    c, f, row_flags = c[first_row:], block[first_row:].astype(narrow), row_flags[first_row:]
    sums[1] += np.einsum("ij,ij->j", c, c)
    sums[2] += np.einsum("ij,ij->j", c, f)
    sums[3] += np.einsum("ij->j", f)
    row_c = np.einsum("ij->i", c)
    row_cc = np.einsum("ij,ij->i", c, c)
    row_cf = np.einsum("ij,ij->i", c, f)
    # u = k^2*sum C and v = k^2*(k*sum C^2 + (k+1)*sum C*F + (2m + 2)*sum C) + k(k+1)*m*F
    deviations = np.empty((2, len(row_c)), dtype=np.int64)
    u, v = deviations
    np.multiply(row_cc, k, out=v, dtype=np.int64)
    np.multiply(row_cf, k + 1, out=u, dtype=np.int64)
    v += u
    np.multiply(row_c, 2 * m + 2, out=u, dtype=np.int64)
    v += u
    v *= k * k
    np.multiply(row_flags, k * (k + 1) * m, out=u)
    v += u
    np.multiply(row_c, k * k, out=u, dtype=np.int64)
    return length_counts, deviations


def _gather(m: int, cycles: int, positions: np.ndarray, tail_flagged: bool) -> tuple[np.ndarray, int, int]:
    """A chunk's (block, first, last), from the sorted flat positions cycle*m + group of its flagged slots.

    Row c is busy when cycle c or c-1 is flagged, cycle -1 being the previous
    chunk's last (flagged when tail_flagged). The block holds, in order, the
    (rows, m) flags of the chunk rows r-1, r and r+1 of each flagged row r,
    and row 0 when the tail is flagged: the busy rows and the row before
    each. first and last are the chunk rows where it starts and ends. A
    block row that is not busy is the row r-1 before a flagged row r: it is
    all clear, and so is the block row before it, or the previous chunk's
    last row when it starts the block, so it folds to C = F = 0 as the chunk
    row before it would give. The runs r-1, r and r+1 over the sorted slots
    are each sorted, so one stable sort of them, timsort on int64, is a
    linear merge. Duplicates and rows outside the chunk are then dropped,
    and each slot finds its row by binary search. The work and memory
    follow the flags, not the chunk's cycles.
    """
    slot_rows = positions // m
    runs = [slot_rows - 1, slot_rows, slot_rows + 1]
    if tail_flagged:
        runs.append(np.zeros(1, dtype=np.int64))
    near = np.concatenate(runs)
    near.sort(kind="stable")
    low, high = np.searchsorted(near, (0, cycles))
    near = near[low:high]  # row -1 lies before the chunk, and row `cycles` after it
    rows = near[np.concatenate(([True], near[1:] != near[:-1]))]
    block = np.zeros((len(rows), m), dtype=bool)
    block[np.searchsorted(rows, slot_rows), positions - slot_rows * m] = True
    return block, int(rows[0]), int(rows[-1])


def _fold(config: SystemConfig, flag_chunks: Iterable[np.ndarray | tuple[int, np.ndarray]]) -> tuple:
    """Exact integer sums of a run's intervals, from its group flags fed in cycle order.

    Each chunk is a (cycles, m) bool array of flags or a (cycles, positions)
    tuple, positions being its flagged slots' sorted flat indices cycle*m +
    group. Over the N-1 complete intervals it keeps per-group sums of C,
    C^2, C*F and F, with Y = m + k*C, and turns them into sums of Y, Y^2 and
    Y*F once, at the end; it counts all N cycles by their flag total F. The
    standard error needs each interval's pooled sums over all n sources of Y
    and of the double area. The fold keeps neither: it takes their
    deviations u and v from a quiet row's k*m^2 and k*m^2*(m + 2), with
    0 <= u <= v since every Y >= m, and adds up as Python ints sum u, sum v,
    the sums of uu, uv and vv, and the lag-1 sums of u_i*u_(i+1),
    u_i*v_(i+1), v_i*u_(i+1) and v_i*v_(i+1). It also keeps (u, v) of the
    run's first and last intervals. Its memory is one chunk's, whatever the
    number of cycles.

    Row c of a chunk is the interval that cycle c closes. When cycles c-1
    and c are both all clear, the row is quiet: it has C = F = 0 in every
    group and u = v = 0, and is only counted. _fold_block folds each chunk
    as one block of consecutive rows: the whole chunk, or, for a tuple and
    for a flag array in which few rows can be busy, the _gather of its
    flagged slots' positions. A gathered block leaves out only quiet rows,
    and a row it holds after a left-out one folds as the quiet row it is, so
    the lag products are taken from row to row of the block, and across
    chunks from the last chunk's last row to the block's first folded row.
    Across chunks it carries, per group, the flagged groups at or after it
    in the chunk's last cycle, whose first entry is that cycle's flag total,
    and (u, v) of the chunk's last row.
    """
    m, k = config.m, config.k
    sums = np.zeros((4, m), dtype=np.int64)  # per group: sum C, sum C^2, sum C*F, sum F
    length_counts = np.zeros(m + 1, dtype=np.int64)
    deviation_sums = [0] * 9  # as _add_exact_sums orders them
    opening = tail = (0, 0)  # (u, v) of the run's first interval and of the last chunk's last row
    carry = np.zeros(m, dtype=np.int32)  # flags at or after each group in the last cycle; none before cycle 0
    end = 0
    for chunk in flag_chunks:
        if isinstance(chunk, tuple):
            cycles, positions = chunk
        else:  # a flag array has at most 2*hits + 1 busy rows, the 1 when the last cycle was flagged
            cycles = len(chunk)
            gather = 2 * np.count_nonzero(chunk) + (carry[0] > 0) < _GATHER_SHARE * cycles
            positions = np.flatnonzero(chunk) if gather else None
        start, end = end, end + cycles
        if positions is None:
            block, first, last = chunk, 0, cycles - 1
        elif not len(positions) and not carry[0]:  # no flag here or in the cycle before: all rows quiet
            tail = (0, 0)
            continue
        else:
            block, first, last = _gather(m, cycles, positions, carry[0] > 0)
        first_row = 1 if start + first == 0 else 0  # cycle 0 closes no interval
        counts, deviations = _fold_block(block, first_row, carry, sums, k)
        length_counts[: len(counts)] += counts
        if not deviations.shape[1]:  # a one-cycle first chunk: no interval, and tail stays (0, 0)
            continue
        _add_exact_sums(deviation_sums, deviations)
        head = deviations[:, 0].tolist()
        deviation_sums[5:] = [total + a * b for total, (a, b) in zip(deviation_sums[5:], product(tail, head))]
        if start + first + first_row == 1:
            opening = tuple(head)
        tail = tuple(deviations[:, -1].tolist()) if last == cycles - 1 else (0, 0)
        del deviations  # so that the next chunk's draw and fold do not overlap it
    length_counts[0] += end - length_counts.sum()
    # over all N-1 intervals, the quiet rows' C = F = 0 included: sum Y, sum Y^2 and sum Y*F
    intervals = end - 1
    sum_c, sum_cc, sum_cf, sum_f = sums
    interval_sums = (
        intervals * m + k * sum_c,
        intervals * m * m + 2 * m * k * sum_c + k * k * sum_cc,
        m * sum_f + k * sum_cf,
    )
    return interval_sums, length_counts, intervals, deviation_sums, opening, tail


def _estimate(config: SystemConfig, flag_chunks: Iterable[np.ndarray | tuple[int, np.ndarray]]) -> AgeSummary:
    """Renewal-reward age estimate from a run's group flags, fed in cycle order."""
    sums, flag_counts, *standard_error_sums = _fold(config, flag_chunks)
    interval_sum, interval_sq_sum, interval_flag_sum = sums
    # each group's mean over its sources j = 1..k of (sum Y^2/2 + sum Y + j*sum Y*F) / sum Y
    group_age = (0.5 * interval_sq_sum + interval_sum + 0.5 * (config.k + 1) * interval_flag_sum) / interval_sum
    return AgeSummary(
        overall_age=float(group_age.mean()),
        standard_error=_pooled_standard_error(config, *standard_error_sums),
        flag_counts=flag_counts,
        interval_sums=np.stack(sums),
    )


def _rounded_sqrt_ratio(x: int, d: int) -> float:
    """sqrt(max(x, 0)) / d for integers x and d > 0, rounded once to the nearest float."""
    if x <= 0:
        return 0.0
    shift = max(0, 56 + d.bit_length() - (x.bit_length() - 1) // 2)  # the quotient gets at least 57 bits
    scaled = x << (2 * shift)
    root = math.isqrt(scaled)
    # int / int rounds once, to nearest (2^shift only scales). At 57 or more quotient bits every
    # rounding boundary is an integer j, and no j*d lies strictly between root and root + 1, so an
    # inexact root rounds as the midpoint (2*root + 1) / (2d) of [root/d, (root+1)/d) does.
    return (2 * root + (root * root != scaled)) / (d << (shift + 1))


def _pooled_standard_error(config: SystemConfig, intervals: int, deviation_sums: list[int], first, last) -> float:
    """Delta-method standard error of the overall age, rounded once from _fold's exact sums.

    With y_i and a_i interval i's pooled length and double area, and S_y and
    S_a their totals, the residuals of the pooled ratio estimate are
    R_i / (2n*S_y) with R_i = S_y*a_i - S_a*y_i, exactly mean-zero.
    Consecutive intervals share one cycle of randomness, so the variance of
    their mean includes the lag-1 autocovariance. The delta-method SE,
    sqrt((gamma0 + 2*gamma1) / (N-1)) over the mean pooled interval, is then
    sqrt(max(sum R_i^2 + 2*sum R_i*R_(i+1), 0)) / (2*S_y^2): n and N-1
    cancel. On deviations from a quiet row (c_y, c_a), R_i = base + rho_i
    with base = S_y*c_a - S_a*c_y and rho_i = S_y*v_i - S_a*u_i, and
    sum rho_i = -(N-1)*base, so both sums of R follow from the deviation sums
    and the first and last intervals. The estimator is approximate: per-source
    ratios are combined as if their denominators shared the common mean.
    """
    m, k = config.m, config.k
    quiet_y, quiet_area = k * m * m, k * m * m * (m + 2)
    sum_u, sum_v, *products = deviation_sums
    s_y = intervals * quiet_y + sum_u
    s_a = intervals * quiet_area + sum_v
    base = s_y * quiet_area - s_a * quiet_y

    def rho_products(uu: int, uv: int, vu: int, vv: int) -> int:
        return s_a * s_a * uu - s_y * s_a * (uv + vu) + s_y * s_y * vv

    def rho(u: int, v: int) -> int:
        return s_y * v - s_a * u

    uu, uv, vv, *lagged_products = products
    squares = rho_products(uu, uv, uv, vv) - intervals * base * base
    lagged = rho_products(*lagged_products) - (intervals + 1) * base * base - base * (rho(*first) + rho(*last))
    return _rounded_sqrt_ratio(squares + 2 * lagged, 2 * s_y * s_y)


def _check_int64_totals(config: SystemConfig, num_cycles: int) -> None:
    # The sums that stay int64: a chunk's per-row pooled double area, before it
    # is split into Python ints, and two totals over the run, each group's sum
    # of Y^2 over the N-1 intervals and empirical_moments' sum of L^2 over the
    # N cycles. A group's interval Y spans m group times and a cycle's length L
    # m of them, so both are <= m(k+1); a row adds k*Y^2 + 2k*Y + k(k+1)*Y*F
    # <= k*Y^2 + (k^2+3k)*Y per group (p = 1 attains both bounds). The other
    # int64 sums stay below these.
    m, k = config.m, config.k
    y = m * (k + 1)
    if max(m * (k * y * y + (k * k + 3 * k) * y), num_cycles * y * y) > np.iinfo(np.int64).max:
        raise ValueError(f"{num_cycles} cycles of m={m} groups can overflow the simulator's int64 sums")


def simulate_age(config: SystemConfig, num_cycles: int, seed: int) -> AgeSummary:
    """Simulate num_cycles i.i.d. update cycles from a seed and estimate the age (needs >= 2 cycles).

    The N-1 complete per-source renewal intervals between generation instants
    feed the ratio estimator; the partial interval before the first generation
    is discarded. Cycles are drawn and folded in chunks of
    max(1, CHUNK_DRAWS // m) cycles, and nothing is kept per cycle, so memory
    is one chunk's whatever num_cycles is. A run expecting fewer than one
    flagged group-cycle, N*m*qbar < SLOT_SAMPLER_FLAGS, draws only its
    flagged slots instead, from a stream of its own, and folds them one
    flagged cycle a stretch, by _flagged_slot_stretches. The
    random stream consumed and the estimates, to the last bit, do not depend
    on the chunk size. A run whose int64 sums could overflow is refused.
    """
    if num_cycles < 2:
        raise ValueError("age estimation requires at least 2 cycles")
    _check_int64_totals(config, num_cycles)
    slot_drawn = num_cycles * config.m * config.qbar < SLOT_SAMPLER_FLAGS
    feed = _flagged_slot_stretches if slot_drawn else _flag_chunks
    return _estimate(config, feed(config, seed, num_cycles))


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
