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
so Y = m + k*C, with C <= m the flagged slots among those m. A row's C, F
and pooled sums follow from its m flags and the previous row's, so the fold
takes a block of consecutive rows after a prior row, the flags of the cycle
before the block; cycle 0 closes no interval and is the first block's prior
row. A block of m <= 3 groups (_CENSUS_GROUPS) is folded by a census: the
prior row's and each row's flags as an m-bit code, one np.bincount of the
codes of each three consecutive rows, at most 2^(3m) = 512 classes, and
tables over the 2^(2m) pairs of consecutive rows, built once per m, that
turn the census into every sum the fold keeps. In a wider block the fold
takes every C as a window sum of width m over the prior row's and the
block's flat flags, built from sums over doubling spans in the narrowest
unsigned type that holds m. It sums C, C^2 and C*F in int32 while no such
sum can reach 2^31 (m <= 1290 at the chunk size) and in int64 otherwise; the
sums of Y follow by exact int64 algebra. An interval between two all-clear
cycles has C = 0 and F = 0 in every group, so the fold only counts it, and
its work follows the intervals that touch a flagged cycle. Both samplers
feed it (cycles, block) chunks, block holding the flags of the chunk's first
cycles, at least through the cycle after its last flagged one. Where few
rows can be busy, the fold keeps only the rows r-1, r and r+1 of each
flagged row r, by one row mask over the block. It folds every block as
consecutive rows: a kept row whose chunk row before it was left out is all
clear, and so is the kept row before it, so it folds to C = F = 0 either
way.

A run that expects fewer than SLOT_SAMPLER_FLAGS (one) flagged group-cycle,
N*m*qbar < 1, p = 0 included, draws no uniform per slot: it draws only its
flagged slots, by geometric gaps over the N*m slots in (cycle, group) order,
and feeds them to the fold as it draws them, in stretches that each start
at a flagged cycle and hold only its flags, so that no block of the fold
holds more than two rows of m groups, that cycle's and the next.
Its work is O((1 + flags)*m), and its memory does not grow with its flags.
Its flags have the law of the uniform draw but come from a stream of their
own; every run with N*m*qbar >= 1 draws the uniforms.

A run is admitted by _check_int64_totals alone, which refuses every m above
1 321 122 and every n >= 2^21. At the largest admitted shapes a run traces
about 100 MiB at m = 1 321 122, k = 1, p = 0.5, 1 MiB at m = 1, k = 1 664 509,
and 110.9 to 111.6 MiB at m = 1 321 122 slot-drawn over 100 cycles, one to four
of them flagged; tests/test_pins.py holds these under 1 GiB, 8 and 120 MiB, and
a dense m = 1 run of three whole chunks, 4.0 MiB, under 6 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product
from operator import mul
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .analytic import MomentSet
from .model import SystemConfig

__all__ = ["AgeSummary", "empirical_moments", "simulate_age"]

# Uniform draws per chunk (2 MB of float64), one a group and cycle; a chunk holds
# max(1, CHUNK_DRAWS // m) cycles. Larger chunks measured no faster.
CHUNK_DRAWS = 2**18
# _fold gathers a chunk's busy rows when at most this share of its rows can be busy, and otherwise
# takes the whole chunk. Measured on one full chunk on 2 vCPUs (numpy 2.4), the two cost the same
# for _fold_block's blocks at a bound of about 0.8 to 0.9 of the rows at m = 30 and 1.1 to 1.2 at
# m = 200. The census blocks of m <= 3 fold a whole chunk faster than its gathered rows from a
# slot density of about 0.03 at m = 2 and 3, and slower at 0.01 and below. Per op the choice is
# within noise: the simulator time of the benchmark's validate ops (workload seed 1) was 0.089 s
# at 0.35, 0.5 and 0.65 alike, medians of 10 alternating rounds.
_GATHER_SHARE = 0.35
# _fold folds the blocks of m <= _CENSUS_GROUPS groups by _fold_census, one census of their
# 2^(3m) lag classes, and wider ones by _fold_block. Measured per block on 2 vCPUs (numpy 2.4),
# the census folds a whole dense chunk 8 to 14 times faster (1.0 against 13.5 ms at m = 1, 0.71
# against 5.9 ms at m = 3) and a two-row block in 46 against 105 us at m = 1 and 69 against 100
# at m = 3; its tables take 50 to 80 us, once per m and process. At m = 4 the tables took 170 to
# 190 us and a two-row block 110 against 99 us, so small m = 4 runs would be slower, and m = 4
# stays on _fold_block although a whole chunk folded 6.6 times faster.
_CENSUS_GROUPS = 3
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


def _flag_chunks(config: SystemConfig, seed: int, num_cycles: int) -> Iterator[tuple[int, np.ndarray]]:
    """(cycles, flags) chunks of num_cycles seeded cycles' (cycles, m) group flags, up to _cycles_per_chunk cycles each.

    A group is flagged when its one uniform draw is below qbar, the chance
    that some of its k sources is positive. The draws are taken in (cycle,
    group) order, N*m of them, so the stream consumed does not depend on the
    chunking. At k = 1, qbar is p (or one ulp from it), so the flags are a
    draw of every source's status.
    """
    rng = np.random.default_rng(seed)
    chunk_cycles = _cycles_per_chunk(config)
    for start in range(0, num_cycles, chunk_cycles):
        cycles = min(chunk_cycles, num_cycles - start)
        yield cycles, rng.random((cycles, config.m)) < config.qbar


def _flagged_slot_stretches(config: SystemConfig, seed: int, num_cycles: int) -> Iterator[tuple[int, np.ndarray]]:
    """A seeded run's flagged slots, drawn by geometric gaps, as (cycles, block) stretches.

    As in _flag_chunks, each of the N*m slots, in (cycle, group) order, is
    flagged with probability qbar independently of the others, so the gap
    from one flagged slot, or from slot -1, to the next is geometric:
    G = 1 + floor(E / -log(1 - qbar)), with E a standard exponential, has
    P(G > g) = (1 - qbar)^g (inversion, Devroye 1986). The draw takes one
    exponential per flag and one more, so its work follows the flags; its
    stream is not _flag_chunks'. At p = 0 it draws nothing. A stretch ends
    where a gap lands in a new cycle: the first starts at cycle 0, and each
    later one at a flagged cycle, whose flags are its only ones. block holds
    a stretch's first min(2, cycles) cycles, that flagged cycle and the all
    clear one after it, or no row for a flagless first stretch.
    """
    m, start, flagged = config.m, 0, []  # flagged: the stretch's flagged groups, all in its first cycle

    def stretch(end: int) -> tuple[int, np.ndarray]:
        block = np.zeros((min(2, end - start) if flagged else 0, m), dtype=bool)
        block.reshape(-1)[flagged] = True
        return end - start, block

    if config.qbar > 0.0:
        rng = np.random.default_rng(seed)
        rate = -math.log1p(-config.qbar)
        position, last = -1, num_cycles * m - 1
        while (gap := rng.standard_exponential() / rate) < last - position:
            position += math.floor(gap) + 1
            if (cycle := position // m) > start:
                yield stretch(cycle)
                start, flagged = cycle, []
            flagged.append(position - start * m)
    yield stretch(num_cycles)


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
    """The sums of every m consecutive entries of a flat array of 0s and 1s, in its unsigned type, which must hold m.

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


def _fold_block(block: np.ndarray, prior: np.ndarray, sums: np.ndarray, totals: list[int], k: int) -> tuple:
    """Fold the rows of block, after the prior row, into sums and totals: (counts of cycles by flag total, head, tail).

    Row r's interval in group g spans the m group times before slot (r, g),
    so Y = m + k*C, with C the flags among those m slots; prior holds the
    flags of the row before the block. It takes every C as a window sum of
    width m, by _window_sums, over prior and the block's flat flags in
    uint8, uint16 or uint32, the narrowest that holds m, and each row's flag
    total as the window that covers it. Over every row it adds the sums of
    C, C^2, C*F and F per group into the (4, m) int64 sums, sum C
    telescoping, and takes per row the deviations u and v of the pooled
    sums over all n sources of Y and of the double area Y^2 + 2*Y*S, which
    are k*sum Y and k*sum (Y^2 + 2Y + (k+1)*Y*F), from a quiet row's k*m^2
    and k*m^2*(m + 2); _add_exact_sums adds their nine sums into totals, and
    head and tail are (u, v) of the first and last rows. C <= m, so each sum
    of C, C^2 or C*F is at most m^3 or rows*m^2: C and those sums run in
    int32 while both are below 2^31, and in int64 otherwise. The row
    deviations follow from them by exact int64 algebra. Its (rows, m) arrays
    die on return. _fold takes it for m > _CENSUS_GROUPS and _fold_census,
    which returns the same, for narrower blocks.
    """
    rows, m = block.shape
    narrow = np.int32 if max(m**3, rows * m * m) < 2**31 else np.int64
    flags = np.empty((rows + 1) * m, dtype=np.uint8 if m < 2**8 else np.uint16 if m < 2**16 else np.uint32)
    flags[:m] = prior
    flags[m:] = block.reshape(-1)
    windows = _window_sums(flags, m)  # windows[i]: the flags among flags[i : i + m]
    c = windows[:-1].reshape(rows, m).astype(narrow)
    row_flags = windows[m::m].astype(np.int64)
    # sum C: the flags at or after g in prior and in every row, less those in the last row,
    # and the flags before g in every row
    sums[0] += np.cumsum(prior[::-1].view(np.int8) - block[-1, ::-1].view(np.int8))[::-1] + row_flags.sum()
    del flags, windows  # before the reductions' temporaries
    length_counts = np.bincount(row_flags)
    f = block.astype(narrow)
    sums[1] += np.einsum("ij,ij->j", c, c)
    sums[2] += np.einsum("ij,ij->j", c, f)
    sums[3] += np.einsum("ij->j", f)
    row_c = np.einsum("ij->i", c)
    row_cc = np.einsum("ij,ij->i", c, c)
    row_cf = np.einsum("ij,ij->i", c, f)
    # u = k^2*sum C and v = k^2*(k*sum C^2 + (k+1)*sum C*F + (2m + 2)*sum C) + k(k+1)*m*F
    deviations = np.empty((2, rows), dtype=np.int64)
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
    _add_exact_sums(totals, deviations)
    return length_counts, tuple(deviations[:, 0].tolist()), tuple(deviations[:, -1].tolist())


class _CensusTables(NamedTuple):
    """What _fold_census reads for each pattern of m <= _CENSUS_GROUPS group flags, for any k.

    A row's code holds group g's flag in bit g; a pair's code is (previous
    row) << m | row, and a lag class's (previous row) << 2m | row << m |
    next row. A pair's features phi are its row's sums over the groups of
    C, C^2, C*F and F: the row's u is k^2*phi[0] and its v a linear form in
    phi, so products of u and v are sums of phi_i*phi_j, at most m^6.
    """

    row: np.ndarray  # (2^(2m), 5m + 21) int64, by pair: per-group C, C^2, C*F, F, a one-hot of F, phi, phi_i*phi_j
    phi: np.ndarray  # (2^m, 2^m, 4) int64: phi by [previous row, row]
    phi_by_row: np.ndarray  # (4, 4^m) int64: phi_i of pair (a, b) in column b*2^m + a
    features: list  # phi of each pair, Python ints


@cache
def _census_tables(m: int) -> _CensusTables:
    """_fold_census' tables for m groups, cached: O(8^m) small read-only int64 values, by numpy 1.24's API."""
    flags = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1  # (2^m, m): each row code's flags
    suffix = np.cumsum(flags[:, ::-1], axis=1)[:, ::-1]  # each row code's flags at or after each group
    # a pair's C in group g: the previous row's flags at or after g and the row's before g
    c = (suffix[:, None] + (np.cumsum(flags, axis=1) - flags)).reshape(-1, m)
    f = np.tile(flags, (1 << m, 1))
    stats = np.concatenate((c, c * c, c * f, f), axis=1)
    phi = stats.reshape(-1, 4, m).sum(axis=2)
    squares = (phi[:, :, None] * phi[:, None, :]).reshape(-1, 16)
    by_pair = phi.reshape(1 << m, 1 << m, 4)
    tables = _CensusTables(
        row=np.concatenate((stats, np.eye(m + 1, dtype=np.int64)[phi[:, 3]], phi, squares), axis=1),
        phi=by_pair,
        phi_by_row=np.ascontiguousarray(by_pair.transpose(2, 1, 0).reshape(4, -1)),
        features=phi.tolist(),
    )
    for array in (tables.row, tables.phi, tables.phi_by_row):
        array.flags.writeable = False
    return tables


def _fold_census(block: np.ndarray, prior: np.ndarray, sums: np.ndarray, totals: list[int], k: int) -> tuple:
    """_fold_block's fold of a block of m <= _CENSUS_GROUPS groups after the prior row, by a census of its lag classes.

    A row's C, F and (u, v) follow from its flags and the previous row's,
    and a lag pair's products from three consecutive rows', so the block is
    prior's and its rows' m-bit codes and one np.bincount of the classes of
    each three consecutive of them, at most 2^(3m). Summed over the third
    row, the census counts the rows but the last, which opens no lag pair,
    by pair; with the last added, those counts times the tables' row give
    the sums that _fold_block adds to sums, the counts of cycles by flag
    total and the sums of phi and phi_i*phi_j over the rows, and two
    products of the census with the tables' phi give the sums of
    phi_i*phi'_j over the lag pairs, phi' the next row's. The nine sums
    follow in Python ints, and so do head and tail, the (u, v) of the first
    and last rows: it returns (counts, head, tail) as _fold_block does.
    """
    rows, m = block.shape
    tables = _census_tables(m)
    codes = np.empty(rows + 1, dtype=np.uint16)  # codes[r + 1]: row r's; codes[0]: prior's
    codes[0] = np.packbits(prior, bitorder="little")[0]
    row_codes = codes[1:]
    row_codes[:] = block[:, 0]
    for g in range(1, m):
        row_codes |= block[:, g].view(np.uint8) << g
    lags = codes[:-2] << 2 * m  # the classes of the lag pairs (r, r + 1)
    lags |= codes[1:-1] << m
    lags |= codes[2:]
    census = np.bincount(lags, minlength=len(tables.row) << m).reshape(1 << m, 1 << m, 1 << m)
    pairs = census.sum(axis=2).reshape(-1)
    previous, final = codes[-2:].tolist()
    pairs[previous << m | final] += 1
    total = pairs @ tables.row
    sums += total[: 4 * m].reshape(4, m)
    # a row's u = k^2*phi[0] and v = weights . phi, as in _fold_block; square and lagged hold the
    # 16 sums of phi_i*phi_j over the rows and of phi_i*phi'_j over the lag pairs, i major, and
    # lagged sums census * phi(a, b)_i * phi(b, c)_j over the classes (a, b, c), one product for each b
    k2 = k * k
    weights = (k2 * (2 * m + 2), k2 * k, k2 * (k + 1), k * (k + 1) * m)

    def v(x):
        return sum(map(mul, weights, x))

    lagged = tables.phi_by_row @ np.matmul(census.transpose(1, 0, 2), tables.phi).reshape(-1, 4)
    values, lagged = total[5 * m + 1 :].tolist(), lagged.ravel().tolist()
    phi, square = values[:4], values[4:]
    square_v, lagged_v = ([v(q[4 * i : 4 * i + 4]) for i in range(4)] for q in (square, lagged))
    nine = (k2 * phi[0], v(phi), k2 * k2 * square[0], k2 * square_v[0], v(square_v))
    nine += (k2 * k2 * lagged[0], k2 * lagged_v[0], k2 * v(lagged[::4]), v(lagged_v))
    for i, value in enumerate(nine):
        totals[i] += value
    before, opening = codes[:2].tolist()
    ends = (tables.features[before << m | opening], tables.features[previous << m | final])
    head, tail = ((k2 * x[0], v(x)) for x in ends)
    return total[4 * m : 5 * m + 1], head, tail


def _fold(config: SystemConfig, chunks: Iterable[tuple[int, np.ndarray]]) -> tuple:
    """Exact integer sums of a run's intervals, from its group flags fed in cycle order.

    Each chunk is a pair (cycles, block): block is a (rows, m) bool array of
    the flags of the chunk's first cycles, enough that every row past it is
    quiet: through the cycle after its last flagged one, or at least cycle 0
    after a flagged previous cycle. Over the N-1 complete intervals it keeps
    per-group sums of C, C^2, C*F and F, with Y = m + k*C, and turns them
    into sums of Y, Y^2 and Y*F once, at the end; it counts all N cycles by
    their flag total F. The standard error needs each interval's pooled sums
    over all n sources of Y and of the double area. The fold keeps neither:
    it takes their deviations u and v from a quiet row's k*m^2 and
    k*m^2*(m + 2), with 0 <= u <= v since every Y >= m, and adds up as
    Python ints sum u, sum v, the sums of uu, uv and vv, and the lag-1 sums
    of u_i*u_(i+1), u_i*v_(i+1), v_i*u_(i+1) and v_i*v_(i+1). It also keeps
    (u, v) of the run's first and last intervals. Its memory is one chunk's,
    whatever the number of cycles.

    Row c of a chunk is the interval that cycle c closes. When cycles c-1
    and c are both all clear, the row is quiet: it has C = F = 0 in every
    group and u = v = 0, and is only counted, as are the rows past block.
    Cycle 0 closes no interval: it is counted and becomes the prior row of
    the first chunk's later rows. Each chunk is folded as one block of
    consecutive rows after a prior row, the last cycle's flags, by
    _fold_census at m <= _CENSUS_GROUPS and by _fold_block otherwise;
    either adds the block's nine sums and returns (u, v) of its first and
    last rows. The block is the whole chunk's or, where few rows can be
    busy, the busy rows (each flagged row, the row after it, and row 0
    after a flagged prior row) and the row before each, kept by one row
    mask. A row so kept after a left-out one is all clear after an
    all-clear row and folds as the quiet row it is, so the lag products are
    taken from row to row of the block, and across chunks from the last
    chunk's last row to the block's first row. Across chunks it keeps the
    block's last row as the next prior row, all clear when the block does
    not hold the chunk's last cycle, and (u, v) of the chunk's last row.
    """
    m, k = config.m, config.k
    fold = _fold_census if m <= _CENSUS_GROUPS else _fold_block
    sums = np.zeros((4, m), dtype=np.int64)  # per group: sum C, sum C^2, sum C*F, sum F
    length_counts = np.zeros(m + 1, dtype=np.int64)
    deviation_sums = [0] * 9  # as _add_exact_sums orders them
    opening = tail = (0, 0)  # (u, v) of the run's first interval and of the last chunk's last row
    prior = np.zeros(m, dtype=bool)  # the last cycle's flags
    end = 0
    for cycles, block in chunks:
        start, end = end, end + cycles
        if not start and len(block):  # cycle 0 closes no interval: count it, and fold the rows after it
            length_counts[np.count_nonzero(block[0])] += 1
            prior, block, start, cycles = block[0].copy(), block[1:], 1, cycles - 1
            if not len(block):
                continue
        hits, prior_flagged = np.count_nonzero(block), prior.any()
        if not hits and not prior_flagged:  # no flag here or in the cycle before: all rows quiet
            tail = (0, 0)
            continue
        first, last = 0, len(block) - 1
        if 2 * hits + prior_flagged < _GATHER_SHARE * cycles:  # at most 2*hits + 1 busy rows
            busy = np.zeros(len(block) + 1, dtype=bool)  # row r is busy when r or r-1 is flagged
            flagged = np.flatnonzero(block) // m
            busy[flagged] = busy[flagged + 1] = True
            busy[0] |= prior_flagged
            kept = np.flatnonzero(busy[:-1] | busy[1:])  # the busy rows and the row before each
            first, last = int(kept[0]), int(kept[-1])
            block = block[kept] if len(kept) < len(block) else block  # a copy only when rows are left out
        counts, head, final = fold(block, prior, sums, deviation_sums, k)
        prior = block[-1].copy()
        length_counts[: len(counts)] += counts
        deviation_sums[5:] = [total + a * b for total, (a, b) in zip(deviation_sums[5:], product(tail, head))]
        if start + first == 1:
            opening = head
        tail = final if last == cycles - 1 else (0, 0)
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


def _estimate(config: SystemConfig, chunks: Iterable[tuple[int, np.ndarray]]) -> AgeSummary:
    """Renewal-reward age estimate from a run's group flags, fed in cycle order."""
    sums, flag_counts, *standard_error_sums = _fold(config, chunks)
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
    Since sum R_i = 0, the SE is exactly 0 at N <= 3 cycles, whatever was
    flagged: R_1 = 0 alone, and sum R_i^2 + 2*R_1*R_2 = (R_1 + R_2)^2 = 0.
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
    flagged slots instead, from a stream of its own, by
    _flagged_slot_stretches, one flagged cycle a stretch. Either feed gives
    _estimate (cycles, block) pairs. The random stream consumed and the
    estimates, to the last bit, do not depend on the chunk size. A run whose
    int64 sums could overflow is refused.
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
