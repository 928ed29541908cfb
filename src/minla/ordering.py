"""Exact minimum-inversion ordering of disjoint blocks.

Given blocks of nodes and a reference permutation, find the order of the
blocks that minimizes the number of node pairs placed opposite to their
reference order.  Pairwise preferences between multi-node blocks can be
cyclic, so the minimum is found by dynamic programming.  Singletons (one-node
blocks) need no search: in every optimal order they keep their reference
order, since swapping two inverted singletons strictly lowers the count and
keeps every block contiguous.  The program therefore runs over (subset of the
m multi-node blocks) x (number of trailing singletons): 2^m * (s + 1) states
for s singletons, O(2^m * (m + 1) * (s + 1)) table work plus an
O((m + s) * m^2) reconstruction.  A hard cap on the state count guards the
exponential table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import CapacityError

__all__ = ["check_states", "cross_weight", "solve_block_order"]

_INF = 1 << 60
# From this many states on, the vectorized table pays for itself.  One table
# took 0.97 ms in Python against 0.92 ms in numpy at m=7 with no singletons,
# 0.58 against 0.83 ms at m=6 with one and 0.29 against 0.39 ms at m=4 with
# 7 (128 states each); at 256 states, 2.19 against 1.21 ms at m=8 with
# none, 0.87 against 0.83 ms at m=6 with 3 and 0.55 against 0.39 ms at m=4
# with 15 (2-core x86 VM, Python 3.11, numpy 2.4, warm popcount cache).
_NUMPY_MIN_STATES = 256


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


def check_states(m: int, s: int, cap: int) -> None:
    """Raise :class:`CapacityError` unless m multi-node blocks and s
    singletons fit in at most 2^cap program states."""
    if (s + 1) << m > 1 << cap:
        raise CapacityError(
            f"{m} multi-node components and {s} singletons exceed the "
            f"exact-search cap of 2^{cap} states"
        )


@lru_cache(maxsize=None)
def _popcount_layers(m: int) -> tuple[np.ndarray, ...]:
    """Subset ints grouped by popcount, one array per count 0..m.

    Cached for every block count: the entry at the largest m dominates, so
    keeping the smaller ones at most doubles the memory.
    """
    full = 1 << m
    pc = np.zeros(full, dtype=np.uint8)
    for i in range(m):
        lo = 1 << i
        pc[lo : 2 * lo] = pc[:lo] + 1
    order = np.argsort(pc, kind="stable")
    bounds = np.searchsorted(pc[order], np.arange(m + 2))
    return tuple(order[bounds[c] : bounds[c + 1]] for c in range(m + 1))


def _costs_py(rows, tail, m: int, s: int) -> list[int]:
    """g[t * (s + 1) + k]: least cost of ordering the blocks in t and the
    last k singletons, the singletons in order."""
    width = s + 1
    g = [0] * ((1 << m) * width)
    for t in range(1, 1 << m):
        bits = [j for j in range(m) if t >> j & 1]
        moves = [
            ((t ^ 1 << j) * width, sum(rows[j][i] for i in bits), tail[j])
            for j in bits
        ]
        base = t * width
        for k in range(width):
            best = min(g[prev + k] + head + tj[k] for prev, head, tj in moves)
            if k:
                lead = g[base + k - 1] + sum(rows[m + s - k][i] for i in bits)
                if lead < best:
                    best = lead
            g[base + k] = best
    return g


def _costs_np(rows, tail, m: int, s: int) -> np.ndarray:
    """The table of :func:`_costs_py`, vectorized by popcount layer."""
    full = 1 << m
    # int32 keeps the table small near the cap; a row sum of 2^31 or more
    # (reachable from about 93k nodes) needs int64.
    dtype = np.int32 if max(map(sum, rows), default=0) < 1 << 31 else np.int64
    rarr = np.asarray(rows, dtype=dtype)
    # sums[t, r] = sum of rows[r][i] over the blocks i in t: the cost of
    # placing block r (r < m) or singleton r - m first, before all of t.
    sums = np.zeros((full, m + s), dtype=dtype)
    for i in range(m):
        lo = 1 << i
        sums[lo : 2 * lo] = sums[:lo] + rarr[:, i]
    tarr = np.asarray(tail, dtype=np.int64)
    g = np.zeros((full, s + 1), dtype=np.int64)
    layers = _popcount_layers(m)
    for c in range(1, m + 1):
        rs = layers[c]
        best = np.full((rs.size, s + 1), _INF, dtype=np.int64)
        for j in range(m):
            bit = 1 << j
            mask = (rs & bit) != 0
            sel = rs[mask]
            cand = g[sel ^ bit] + (sums[sel, j][:, None] + tarr[j])
            best[mask] = np.minimum(best[mask], cand)
        if s:
            # g[t, k] = min(best[t, k], g[t, k - 1] + lead step k), solved as
            # a running minimum against the prefix sums of the lead steps.
            lead = np.zeros((rs.size, s + 1), dtype=np.int64)
            np.cumsum(sums[rs, m:][:, ::-1], axis=1, out=lead[:, 1:])
            best -= lead
            np.minimum.accumulate(best, axis=1, out=best)
            best += lead
        g[rs] = best
    return g.ravel()


def solve_block_order(
    w: Sequence[Sequence[int]],
    tie_keys: Sequence[int],
    cap: int = 22,
    w_sb: Sequence[Sequence[int]] = (),
    w_bs: Sequence[Sequence[int]] = (),
) -> tuple[int, list[int]]:
    """Minimum total cross cost and an optimal order of m blocks and s
    singletons, the singletons kept in their index order.

    ``w[i][j]`` is the cost of placing block i anywhere before block j,
    ``w_sb[t][i]`` of singleton t before block i and ``w_bs[i][t]`` of block i
    before singleton t; the singletons' weights among themselves must be 0
    in index order.  The order returned minimizes the sum over all ordered
    pairs and lists block i as i and singleton t as m + t.  Among
    minimum-cost orders, ties resolve to the order whose items appear by
    ascending ``tie_keys`` (blocks first, then singletons) as early as
    possible, which yields the lexicographically smallest concatenation when
    the keys are the items' leading node ids.  Raises :class:`CapacityError`
    beyond 2^cap states.
    """
    m, s = len(w), len(w_sb)
    check_states(m, s, cap)
    width = s + 1
    # tail[i][k]: block i before the last k singletons.
    tail = [[0] * width for _ in range(m)]
    for i in range(m):
        for k in range(1, width):
            tail[i][k] = tail[i][k - 1] + w_bs[i][s - k]
    rows = [*w, *w_sb]
    if width << m >= _NUMPY_MIN_STATES:
        g = _costs_np(rows, tail, m, s)
    else:
        g = _costs_py(rows, tail, m, s)

    # Rebuild front to back from (all blocks, all singletons); the candidates
    # are the remaining blocks and the first remaining singleton.
    order: list[int] = []
    t, k = (1 << m) - 1, s
    while t or k:
        bits = [j for j in range(m) if t >> j & 1]
        target = int(g[t * width + k])
        best_j, best_key = -1, None
        for j in bits:
            head = tail[j][k] + sum(w[j][i] for i in bits)
            if head + int(g[(t ^ 1 << j) * width + k]) == target:
                if best_j < 0 or tie_keys[j] < best_key:
                    best_j, best_key = j, tie_keys[j]
        if k:
            first = m + s - k
            head = sum(rows[first][i] for i in bits)
            if head + int(g[t * width + k - 1]) == target:
                if best_j < 0 or tie_keys[first] < best_key:
                    best_j = first
        order.append(best_j)
        if best_j < m:
            t ^= 1 << best_j
        else:
            k -= 1
    return int(g[-1]), order
