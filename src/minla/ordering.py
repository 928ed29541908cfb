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
and singleton tails.  One numpy table serves every size: it is filled a
popcount layer at a time, in slices of bounded size.  A hard cap on the
state count guards the exponential table.

numpy is imported on first use, by the functions that fill the table, so a
process whose block orders all have one block (every full trace) never
loads it.

:func:`solve_block_order` is the one entry point, for ``det`` and the clique
oracle alike: it checks the cap, then builds the weights and applies the
singleton rule.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Sequence

from .errors import CapacityError

__all__ = ["CAP_BITS", "cross_weight", "solve_block_order"]

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


@lru_cache(maxsize=None)
def _popcount_layers(m: int) -> tuple[np.ndarray, ...]:
    """Subset ints grouped by popcount, one array per count 0..m.

    Cached for every block count: the entry at the largest m dominates, so
    keeping the smaller ones at most doubles the memory.
    """
    import numpy as np

    full = 1 << m
    pc = np.zeros(full, dtype=np.uint8)
    for i in range(m):
        lo = 1 << i
        pc[lo : 2 * lo] = pc[:lo] + 1
    order = np.argsort(pc, kind="stable")
    bounds = np.searchsorted(pc[order], np.arange(m + 2))
    return tuple(order[bounds[c] : bounds[c + 1]] for c in range(m + 1))


def _costs(rows, sizes: Sequence[int], s: int) -> tuple[np.ndarray, ...]:
    """(g, sums, tail) for blocks of ``sizes`` nodes and s singletons, from
    ``rows``, the blocks' weight rows then the singletons' in reference
    order.  g[t, k] is the least cost of ordering the blocks in t and the
    last k singletons, the singletons in order; sums[t, r] that of block r
    (r < m), or the last r - m singletons, before t; tail[j, k] that of
    block j before the last k singletons.  Tabled by popcount layer: each
    (subset, first block) pair of a layer is one candidate row."""
    import numpy as np

    m = len(sizes)
    full = 1 << m
    rarr = np.array([*rows[:m], [0] * m, *rows[m:]], dtype=np.int64)
    # Row m + k becomes the sum of the last k singletons' rows (block nodes
    # left of them); the rest of block j's k * |B_j| pairs are its tail.
    rarr[m + 1 :] = np.cumsum(rarr[:m:-1], axis=0)
    tail = (np.arange(s + 1)[:, None] * np.array(sizes, dtype=np.int64) - rarr[m:]).T
    # int32 keeps the table small near the cap; a row sum (accumulated rows
    # included) of 2^31 or more, reachable from about 93k nodes, needs int64.
    if rarr.sum(axis=1).max() < 1 << 31:
        rarr = rarr.astype(np.int32)
    sums = np.zeros((full, m + s + 1), dtype=rarr.dtype)
    for i in range(m):
        lo = 1 << i
        np.add(sums[:lo], rarr[:, i], out=sums[lo : 2 * lo])
    g = np.zeros((full, s + 1), dtype=np.int64)
    bits = 1 << np.arange(m)
    layers = _popcount_layers(m)
    for c in range(1, m + 1):
        step = max(1, _SLICE // (c * (s + 1)))
        for at in range(0, layers[c].size, step):
            rs = layers[c][at : at + step]
            # The c members j of every subset t, row by row.
            row, j = np.nonzero(rs[:, None] & bits)
            t = rs[row]
            cand = g.take(t ^ bits[j], axis=0)
            cand += tail.take(j, axis=0)
            cand += sums[t, j][:, None]
            best = cand.reshape(rs.size, c, s + 1).min(axis=1)
            if s:
                # g[t, k] = min(best[t, k], g[t, k - 1] + lead step k),
                # solved as a running minimum against the lead costs.
                lead = sums.take(rs, axis=0)[:, m:]
                best -= lead
                np.minimum.accumulate(best, axis=1, out=best)
                best += lead
            g[rs] = best
    return g, sums, tail


def solve_block_order(
    seqs: Sequence[Sequence[int]], sorted_pos: Sequence[Sequence[int]]
) -> tuple[int, list[int]]:
    """Lay the blocks ``seqs`` out in the order with the fewest node pairs
    inverted against the reference positions; returns that count and the
    concatenated node sequence.

    ``sorted_pos[i]`` lists block i's reference positions in ascending order.
    Singletons keep their reference order, so only the multi-node blocks are
    searched.  Ties resolve to the lexicographically smallest node sequence:
    each place takes, among the items that begin an optimal rest, the one
    with the smallest leading node.  A single block is returned as it is.
    Raises :class:`CapacityError` beyond 2^CAP_BITS states, before any
    weight is built.
    """
    if len(seqs) == 1:
        return 0, list(seqs[0])
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
    blocks = [sorted_pos[i] for i in multi]
    # w[i][j]: block i anywhere before block j.
    w = [
        [0 if i == j else cross_weight(a, b) for j, b in enumerate(blocks)]
        for i, a in enumerate(blocks)
    ]
    # Block nodes left of each singleton: the cost of the singleton before
    # the block; the block's other nodes are the cost of the reverse.
    w_sb = [[bisect_left(pos, p) for pos in blocks] for p, _ in singles]
    g, sums, tail = _costs([*w, *w_sb], [len(pos) for pos in blocks], s)

    # Rebuild front to back from (all blocks, all singletons); the candidates
    # are the remaining blocks and the first remaining singleton.
    node_at: list[int] = []
    t, k = (1 << m) - 1, s
    while t or k:
        target = g.item(t, k)
        best, best_key = -1, None
        for j in range(m):
            if t >> j & 1:
                head = tail.item(j, k) + sums.item(t, j)
                if head + g.item(t ^ 1 << j, k) == target:
                    key = seqs[multi[j]][0]
                    if best < 0 or key < best_key:
                        best, best_key = j, key
        if k:
            head = sums.item(t, m + k) - sums.item(t, m + k - 1)
            if head + g.item(t, k - 1) == target:
                if best < 0 or singles[s - k][1] < best_key:
                    best = m
        if best < m:
            node_at.extend(seqs[multi[best]])
            t ^= 1 << best
        else:
            node_at.append(singles[s - k][1])
            k -= 1
    return g.item(-1, s), node_at
