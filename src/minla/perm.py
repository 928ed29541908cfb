"""Permutations over a dense node range and the Kendall-tau distance.

A permutation maps positions to node ids and back.  Both directions are kept
so that position and node lookups are O(1).  Values are immutable.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from .errors import InstanceMismatchError

__all__ = [
    "Permutation",
    "kendall_tau",
    "count_inversions",
]


class Permutation:
    """Bijection between positions ``0..n-1`` and node ids ``0..n-1``.

    ``node_at[i]`` is the node occupying position ``i``; ``pos_of[v]`` is the
    position of node ``v``.  The two tuples are mutually inverse.
    """

    __slots__ = ("node_at", "pos_of")

    def __init__(self, node_at: Iterable[int]):
        node_at = tuple(node_at)
        n = len(node_at)
        pos = [-1] * n
        for i, v in enumerate(node_at):
            if type(v) is not int or not 0 <= v < n or pos[v] != -1:
                raise ValueError(f"not a permutation of 0..{n - 1}: {node_at!r}")
            pos[v] = i
        self.node_at = node_at
        self.pos_of = tuple(pos)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if type(n) is not int:
            raise TypeError(f"identity takes an int n, got {n!r}")
        return cls(range(n))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse the space-separated node-id serialization."""
        return cls(map(int, text.split()))

    def to_text(self) -> str:
        """Space-separated node ids in position order, written by one ``%``
        format, which is faster than ``map(str, ...)``."""
        return " ".join(["%d"] * len(self.node_at)) % self.node_at

    def __len__(self) -> int:
        return len(self.node_at)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.node_at == other.node_at

    def __hash__(self) -> int:
        return hash(self.node_at)

    def __repr__(self) -> str:
        return f"Permutation({list(self.node_at)!r})"


def count_inversions(seq: Sequence[int]) -> int:
    """Number of out-of-order pairs in ``seq``, by sorted insertion: each
    element passes the greater ones among those before it.  O(n log n)
    comparisons by binary search plus O(n^2) element moves that
    ``list.insert`` makes in C; the quadratic pair count in the test suite
    is the independent oracle."""
    seen: list[int] = []
    count = 0
    for i, x in enumerate(seq):
        j = bisect_right(seen, x)
        count += i - j
        seen.insert(j, x)
    return count


def kendall_tau(p: Permutation, q: Permutation) -> int:
    """Minimum number of adjacent swaps turning ``p`` into ``q``.

    Equals the number of unordered node pairs whose relative order differs
    between the two permutations.
    """
    if len(p) != len(q):
        raise InstanceMismatchError(
            f"permutations over different node counts: {len(p)} vs {len(q)}"
        )
    return count_inversions([q.pos_of[v] for v in p.node_at])

