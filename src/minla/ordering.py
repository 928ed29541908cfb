"""Exact minimum-inversion ordering of disjoint blocks.

Given blocks of nodes and each node's reference position, find the order of
the blocks that minimizes the number of node pairs placed opposite to their
reference order.  Pairwise preferences between multi-node blocks can be
cyclic, so the minimum is found by dynamic programming.  Singletons (one-node
blocks) need no search: in every optimal order they keep their reference
order, since swapping two inverted singletons strictly lowers the count and
keeps every block contiguous.  The program therefore runs over (subset of the
m multi-node blocks) x (number of trailing singletons): 2^m * (s + 1) states
for s singletons, O(2^m * (m + 1) * (s + 1)) table work plus an
O((m + s) * m) rebuild that reads every step cost off the table's row sums
and ends once every block is placed.  A hard cap on the state count guards
the exponential table.

One numpy table serves a batch of problems, each at its own row offset, the
singleton axis padded to the batch's widest: each numpy operation of the
popcount-layer fill covers every problem's rows, in slices of bounded size,
and a batch closes before its states would pass the cap.  A problem is its
blocks plus the node-to-position lookup ``pos_of``; the weights come from
an array that labels each reference position with its block: the blocks'
prefix counts give every cross weight in one batched matrix product, and
each block's cost against the trailing singletons in one gather and running
sum.  numpy is imported on first use, so a process whose block orders all
have one block (every full trace) never loads it.  :func:`solve_block_orders`
is the one entry point (:func:`solve_block_order` is its batch of one): it
checks each problem against the cap, then labels the positions and applies
the singleton rule.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError

__all__ = ["CAP_BITS", "cross_weight", "solve_block_order", "solve_block_orders"]

# An exact block-order search may use at most 2^CAP_BITS states.
CAP_BITS = 22
# A popcount layer is tabled in slices of at most this many candidate
# entries (subset, first block, trailing singletons), or one subset's, and
# the label arrays are read in slices of about as many (position, block)
# entries, or one problem's: the temporaries of a slice stay under 1 MB.
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


def _costs(tables: Sequence[tuple]) -> list[tuple]:
    """(g, sums, step) per (labels, singles), views of one batch table:
    ``labels[x]`` is the multi-node block (0 to m - 1) at reference position
    x, else -1, and ``singles`` the singleton positions, ascending.  sums[t,
    r] is the cost of block r before the blocks in t.  g[t, k], the least
    cost of ordering the blocks in t and the last k singletons, these in
    order, less that of those singletons before those blocks, is a running
    minimum over k; block j's step costs step[j, k] over its sums entry.
    Columns past k = s pad the batch."""
    import numpy as np

    ms = [max(labels, default=-1) + 1 for labels, _ in tables]
    top, width = max(ms), max([len(singles) for _, singles in tables]) + 1
    span = max([len(labels) for labels, _ in tables]) + 1
    cols = np.zeros((len(ms), top, top), dtype=np.int64)
    step_cost = np.zeros((len(ms), top, width), dtype=np.int64)
    chunk = max(1, _SLICE // (top * span + 1))
    for at in range(0, len(ms), chunk):
        part, part_cols = tables[at : at + chunk], cols[at : at + chunk]
        # Per problem: a blank position, its labels and padding, then the
        # positions of the singletons right to left; position 0 has no
        # block node left of it and pads past the last singleton.
        rows = np.array([[-1, *labels, *[-1] * (span - 1 - len(labels)), *singles[::-1],
                          *[0] * (width - 1 - len(singles))] for labels, singles in part])
        inside = rows[:, :span, None] == np.arange(top)
        # below[q, x, i]: block i's nodes left of reference position x.
        below = np.add.accumulate(inside, axis=1, dtype=np.int64)
        if top > 1:
            # Row j, entry i: block i before block j inverts each node of i
            # with the nodes of j left of it, and block j before itself none.
            np.matmul(below[:, :-1].transpose(0, 2, 1), inside[:, 1:].astype(np.int64),
                      out=part_cols)
            part_cols.reshape(len(part), -1)[:, :: top + 1] = 0
        # A singleton before block j inverts the nodes of j left of it, and
        # after it those right of it.
        ahead = below[np.arange(len(part))[:, None], rows[:, span:]]
        np.add.accumulate(below[:, -1:] - 2 * ahead, axis=1,
                          out=step_cost[at : at + chunk, :, 1:].transpose(0, 2, 1))
    cols, step_cost = cols.reshape(len(ms) * top, top), step_cost.reshape(-1, width)
    if len(ms) > 1:
        # Drop the block rows past each problem's m (a batch of one has none).
        real = (np.arange(top) < np.array(ms)[:, None]).ravel()
        cols, step_cost = cols[real], step_cost[real]
    offsets = [*accumulate((1 << m for m in ms), initial=0)]
    firsts = [*accumulate(ms, initial=0)]
    # A sums entry counts pairs of nodes split by a block: at most span^2 / 4,
    # so int32 holds it below about 93k positions and keeps the table small
    # near the cap.
    sums = np.zeros((offsets[-1], top), np.int32 if span * span < 1 << 33 else np.int64)
    for m, at, first in zip(ms, offsets, firsts):
        for i in range(m):
            lo = at + (1 << i)
            np.add(sums[at:lo], cols[first + i], out=sums[lo : lo + (1 << i)])
    g = np.zeros((offsets[-1], width), dtype=np.int64)
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
    return [(g[at : at + (1 << m)], sums[at : at + (1 << m)], step_cost[first : first + m])
            for m, at, first in zip(ms, offsets, firsts)]


def _solve(batch: list) -> Iterator[tuple[int, list[int]]]:
    """A batch's results: each (multi-node block sequences, (position, node)
    singles, labels) rebuilt from one table, each ready result as is.  A
    rebuild runs front to back from (all blocks, all singletons) over the
    remaining blocks and the first remaining singleton, by leading node,
    until every block is placed; the remaining singletons follow in order."""
    tables = [(p[2], [x for x, _ in p[1]]) for p in batch if len(p) == 3]
    views = iter(_costs(tables) if tables else ())
    for entry in batch:
        if len(entry) == 2:
            yield entry
            continue
        (multi, singles, _), (g, sums, step) = entry, next(views)
        m, s = len(multi), len(singles)
        g_at, sums_at, step_at = g.item, sums.item, step.item
        node_at: list[int] = []
        t, k = (1 << m) - 1, s
        cost = target = g_at(t, k)
        while t:
            # The first optimal candidate by leading node: the next singleton
            # is optimal where the running minimum holds.
            best, single = m, singles[s - k][1] if k else None
            for j in range(m):
                if t >> j & 1:
                    if single is not None and single < multi[j][0]:
                        if g_at(t, k - 1) == target:
                            break
                        single = None
                    rest = g_at(t ^ 1 << j, k)
                    if step_at(j, k) + sums_at(t, j) + rest == target:
                        best = j
                        break
            if best < m:
                node_at.extend(multi[best])
                t, target = t ^ 1 << best, rest
            else:
                node_at.append(singles[s - k][1])
                k -= 1
        # Every block is placed: the last k singletons follow in order.
        node_at.extend(v for _, v in singles[s - k :])
        # g leaves out every singleton before every block: per block, half
        # of s times its size less its step.
        yield cost + sum(s * len(seq) - step_at(j, s) for j, seq in enumerate(multi)) // 2, node_at


def solve_block_orders(
    problems: Iterable[tuple[Sequence[Sequence[int]], Sequence[int]]],
) -> Iterator[tuple[int, list[int]]]:
    """For each problem ``(seqs, pos_of)``, read one batch ahead, yield the
    fewest node pairs inverted against the reference positions ``pos_of``
    (node to position, as :attr:`~minla.perm.Permutation.pos_of`) by an
    order of the blocks ``seqs``, and the concatenated node sequence.
    Singletons keep their reference order, so only the multi-node blocks are
    searched.  Ties resolve to the lexicographically smallest node sequence:
    each place takes, among the items that begin an optimal rest, the one
    with the smallest leading node.  A single block is returned as it is.
    A problem past 2^CAP_BITS states raises :class:`CapacityError` before
    its weights are built, and its batch yields nothing.
    """
    batch: list = []
    rows = width = 0
    for seqs, pos_of in problems:
        if len(seqs) == 1:
            batch.append((0, list(seqs[0])))
            continue
        # The multi-node blocks, numbered by leading node.
        multi = sorted([seq for seq in seqs if len(seq) > 1], key=lambda seq: seq[0])
        singles = sorted([(pos_of[seq[0]], seq[0]) for seq in seqs if len(seq) == 1])
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
        # labels[x]: the multi-node block at reference position x, else -1.
        labels = [-1] * len(pos_of)
        for j, seq in enumerate(multi):
            for v in seq:
                labels[pos_of[v]] = j
        batch.append((multi, singles, labels))
    yield from _solve(batch)


def solve_block_order(
    seqs: Sequence[Sequence[int]], pos_of: Sequence[int]
) -> tuple[int, list[int]]:
    """:func:`solve_block_orders` of the one problem ``(seqs, pos_of)``."""
    (result,) = solve_block_orders([(seqs, pos_of)])
    return result
