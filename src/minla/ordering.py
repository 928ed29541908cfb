"""Exact minimum-inversion ordering of disjoint blocks.

Given blocks of nodes and their reference positions, find the order of the
blocks that minimizes the number of node pairs placed opposite to their
reference order.  Pairwise preferences between multi-node blocks can be
cyclic, so the minimum is found by dynamic programming.  Singletons (one-node
blocks) need no search: in every optimal order they keep their reference
order, since swapping two inverted singletons strictly lowers the count and
keeps every block contiguous.  The program therefore runs over (subset of the
m multi-node blocks) x (number of trailing singletons): 2^m * (s + 1) states
for s singletons, O(2^m * (m + 1) * (s + 1)) table work plus an
O((m + s) * m) rebuild that reads every head cost off the table's row sums
and singleton tails.  A hard cap on the state count guards the exponential
table.

One numpy table serves a batch of problems, each at its own row offset, the
singleton axis padded to the batch's widest: each numpy operation of the
popcount-layer fill covers every problem's rows, in slices of bounded size,
and a batch closes before its states would pass the cap.  numpy is imported
on first use, so a process whose block orders all have one block (every
full trace) never loads it.  :func:`solve_block_orders` is the one entry
point (:func:`solve_block_order` is its batch of one): it checks each
problem against the cap, then builds the weights and applies the singleton
rule.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError

__all__ = ["CAP_BITS", "cross_weight", "solve_block_order", "solve_block_orders"]

# An exact block-order search may use at most 2^CAP_BITS states.
CAP_BITS = 22
# A popcount layer is tabled in slices of at most this many candidate
# entries (subset, first block, trailing singletons), or one subset's, which
# keeps the temporaries of a slice under 1 MB each.
_SLICE = 1 << 16


def cross_weight(sorted_pos_a: Sequence[int], sorted_pos_b: Sequence[int]) -> int:
    """Pairs (a, b) with a in A, b in B and a's reference position after b's.

    Both inputs must be sorted ascending.  This is the inversion cost of
    laying block A entirely before block B.
    """
    count = 0
    j = 0
    nb = len(sorted_pos_b)
    for a in sorted_pos_a:
        while j < nb and sorted_pos_b[j] < a:
            j += 1
        count += j
    return count


def _layer_rows(ms: tuple[int, ...]) -> tuple[np.ndarray, tuple]:
    """The bits 1 << j for j < max(ms), and per popcount c >= 1 the rows of a
    table laying out 2^m subset rows for each m of ``ms`` in turn that hold
    c blocks, in table order, with their subsets and the block row where
    each row's problem starts."""
    import numpy as np

    counts, top = [1 << m for m in ms], max(ms)
    popcount = np.zeros(1 << top, dtype=np.uint8)
    for i in range(top):
        popcount[1 << i : 2 << i] = popcount[: 1 << i] + 1
    local = np.arange(sum(counts)) - np.repeat([*accumulate(counts[:-1], initial=0)], counts)
    rows = np.argsort(popcount[local], kind="stable")
    bounds = np.cumsum(np.bincount(popcount[local], minlength=top + 1)).tolist()
    local, block0 = local[rows], np.repeat([*accumulate(ms[:-1], initial=0)], counts)[rows]
    layers = [(rows[a:b], local[a:b], block0[a:b]) for a, b in zip(bounds, bounds[1:])]
    return 1 << np.arange(top), tuple(layers)


# Batches of one, cached per block count: the largest m's entry dominates.
_popcount_layers = lru_cache(maxsize=None)(lambda m: _layer_rows((m,)))


def _costs(tables: Sequence[tuple]) -> list[tuple[np.ndarray, ...]]:
    """(g, sums, tail) per (cols, sizes, s), views of one batch table, for
    blocks of ``sizes`` nodes whose columns list the cost of each block, then
    of the last k singletons, before them.  g[t, k] is the least cost of
    ordering the blocks in t and the last k singletons, these in order;
    sums[t, r] that of block r, or for r = M + k the last k singletons,
    before t, M = sums.shape[1] - g.shape[1]; tail[j, k] that of block j
    before the last k singletons.  Columns past k = s pad the batch."""
    import numpy as np

    ms = tuple(len(sizes) for _, sizes, _ in tables)
    top, width = max(ms), max(s for _, _, s in tables) + 1
    cols, all_sizes, int32 = [], [], True
    for (table_cols, sizes, s), m in zip(tables, ms):
        # int32 keeps the table small near the cap; a row sum (accumulated
        # rows included) of 2^31 or more, from about 93k nodes, needs int64.
        int32 &= max(map(sum, zip(*table_cols)), default=0) < 1 << 31
        pad = [0] * (top - m)
        cols += [[*c[:m], *pad, *c[m:], *[c[-1]] * (width - 1 - s)] for c in table_cols]
        all_sizes += sizes
    cols = np.array(cols, dtype=np.int32 if int32 else np.int64).reshape(-1, top + width)
    tail = np.arange(width) * np.array(all_sizes, dtype=np.int64)[:, None] - cols[:, top:]
    offsets = [*accumulate((1 << m for m in ms), initial=0)]
    firsts = [*accumulate(ms, initial=0)]
    sums = np.zeros((offsets[-1], top + width), dtype=cols.dtype)
    for m, at, first in zip(ms, offsets, firsts):
        for i in range(m):
            lo = at + (1 << i)
            np.add(sums[at:lo], cols[first + i], out=sums[lo : lo + (1 << i)])
    # g is filled less the lead costs sums[t, M + k]: a lead step then costs
    # nothing, so g[t, k] is a running minimum over k, and a block's step
    # costs its tail less its own lead costs.
    g = np.zeros((offsets[-1], width), dtype=np.int64)
    step_cost = tail - cols[:, top:]
    bits, layers = _popcount_layers(top) if len(ms) == 1 else _layer_rows(ms)
    if layers:
        # Layer 1 lists every block, in block order, alone: it goes first.
        g[layers[0][0]] = np.minimum.accumulate(step_cost, axis=1)
    for c, (layer, local, block0) in enumerate(layers[1:], 2):
        step = max(1, _SLICE // (c * width))
        for at in range(0, layer.size, step):
            rs = layer[at : at + step]
            # The c members j of every subset t, row by row.
            row, j = np.nonzero(local[at : at + step, None] & bits)
            t = rs[row]
            cand = g.take(t - bits[j], axis=0)
            cand += step_cost.take(block0[at : at + step][row] + j, axis=0)
            cand += sums[t, j][:, None]
            best = cand.reshape(rs.size, c, width).min(axis=1)
            if width > 1:
                np.minimum.accumulate(best, axis=1, out=best)
            g[rs] = best
    g += sums[:, top:]
    return [(g[at : at + (1 << m)], sums[at : at + (1 << m)], tail[first : first + m])
            for m, at, first in zip(ms, offsets, firsts)]


def _solve(batch: list) -> Iterator[tuple[int, list[int]]]:
    """A batch's results: each (multi-node block sequences, (position, node)
    singles, cols, sizes) rebuilt from one table, each ready result as is.
    A rebuild runs front to back from (all blocks, all singletons); the
    candidates are the remaining blocks and the first remaining singleton."""
    tables = [(p[2], p[3], len(p[1])) for p in batch if len(p) == 4]
    views = iter(_costs(tables) if tables else ())
    for entry in batch:
        if len(entry) == 2:
            yield entry
            continue
        (multi, singles, _, _), (g, sums, tail) = entry, next(views)
        m, s = len(multi), len(singles)
        lead = sums.shape[1] - g.shape[1]
        node_at: list[int] = []
        t, k = (1 << m) - 1, s
        while t or k:
            target = g.item(t, k)
            best, best_key = -1, None
            for j in range(m):
                if t >> j & 1:
                    head = tail.item(j, k) + sums.item(t, j)
                    if head + g.item(t ^ 1 << j, k) == target:
                        key = multi[j][0]
                        if best < 0 or key < best_key:
                            best, best_key = j, key
            if k:
                head = sums.item(t, lead + k) - sums.item(t, lead + k - 1)
                if head + g.item(t, k - 1) == target:
                    if best < 0 or singles[s - k][1] < best_key:
                        best = m
            if best < m:
                node_at.extend(multi[best])
                t ^= 1 << best
            else:
                node_at.append(singles[s - k][1])
                k -= 1
        yield g.item(-1, s), node_at


def solve_block_orders(
    problems: Iterable[tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]]],
) -> Iterator[tuple[int, list[int]]]:
    """For each problem ``(seqs, sorted_pos)``, read one batch ahead, yield
    the fewest node pairs inverted against the reference positions by an
    order of the blocks ``seqs``, and the concatenated node sequence.
    ``sorted_pos[i]`` lists block i's reference positions in ascending order.
    Singletons keep their reference order, so only the multi-node blocks are
    searched.  Ties resolve to the lexicographically smallest node sequence:
    each place takes, among the items that begin an optimal rest, the one
    with the smallest leading node.  A single block is returned as it is.
    A problem past 2^CAP_BITS states raises :class:`CapacityError` before
    its weights are built, and its batch yields nothing.
    """
    batch: list = []
    rows = width = 0
    for seqs, sorted_pos in problems:
        if len(seqs) == 1:
            batch.append((0, list(seqs[0])))
            continue
        multi = [i for i, seq in enumerate(seqs) if len(seq) > 1]
        singles = sorted(
            (sorted_pos[i][0], seq[0]) for i, seq in enumerate(seqs) if len(seq) == 1
        )
        m, s = len(multi), len(singles)
        if (s + 1) << m > 1 << CAP_BITS:
            raise CapacityError(
                f"{m} multi-node components and {s} singletons exceed the "
                f"exact-search cap of 2^{CAP_BITS} states"
            )
        if (rows + (1 << m)) * (max(width, s) + 1) > 1 << CAP_BITS:
            yield from _solve(batch)
            batch, rows, width = [], 0, 0
        rows, width = rows + (1 << m), max(width, s)
        blocks = [sorted_pos[i] for i in multi]
        # w[i][j]: block i anywhere before block j.
        w = [
            [0 if i == j else cross_weight(a, b) for j, b in enumerate(blocks)]
            for i, a in enumerate(blocks)
        ]
        # Below each block's column of w: the block nodes left of the last k
        # singletons, the cost of those singletons before the block; the
        # block's other nodes are the cost of the reverse.
        cols = [
            [*col, *accumulate((bisect_left(pos, p) for p, _ in reversed(singles)), initial=0)]
            for col, pos in zip(zip(*w), blocks)
        ]
        batch.append(([seqs[i] for i in multi], singles, cols, [len(pos) for pos in blocks]))
    yield from _solve(batch)


def solve_block_order(
    seqs: Sequence[Sequence[int]], sorted_pos: Sequence[Sequence[int]]
) -> tuple[int, list[int]]:
    """:func:`solve_block_orders` of the one problem ``(seqs, sorted_pos)``."""
    (result,) = solve_block_orders([(seqs, sorted_pos)])
    return result
