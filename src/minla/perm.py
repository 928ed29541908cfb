"""Permutations over a dense node range and the Kendall-tau distance.

A permutation maps positions to node ids and back.  Both directions are kept
so that position and node lookups are O(1).  Values are immutable.
"""

from __future__ import annotations

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
            if not isinstance(v, int) or not 0 <= v < n or pos[v] != -1:
                raise ValueError(f"not a permutation of 0..{n - 1}: {node_at!r}")
            pos[v] = i
        self.node_at = node_at
        self.pos_of = tuple(pos)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def _trusted(cls, node_at: tuple[int, ...]) -> "Permutation":
        # trusted fast path for laid-out arrangements; skips validation
        pos = [0] * len(node_at)
        for i, v in enumerate(node_at):
            pos[v] = i
        p = cls.__new__(cls)
        p.node_at, p.pos_of = node_at, tuple(pos)
        return p

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse the space-separated node-id serialization."""
        return cls(int(tok) for tok in text.split())

    def to_text(self) -> str:
        """Space-separated node ids in position order."""
        return " ".join(str(v) for v in self.node_at)

    def __len__(self) -> int:
        return len(self.node_at)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.node_at == other.node_at

    def __hash__(self) -> int:
        return hash(self.node_at)

    def __repr__(self) -> str:
        return f"Permutation({list(self.node_at)!r})"


def count_inversions(seq: Sequence[int]) -> int:
    """Number of out-of-order pairs in ``seq``, by merge counting.

    O(n log n); the quadratic pair count is kept in the test suite as the
    independent oracle.
    """
    a = list(seq)
    n = len(a)
    if n < 2:
        return 0
    buf = [0] * n
    count = 0
    width = 1
    while width < n:
        for lo in range(0, n - width, 2 * width):
            mid = lo + width
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if a[i] <= a[j]:
                    buf[k] = a[i]
                    i += 1
                else:
                    buf[k] = a[j]
                    j += 1
                    count += mid - i
                k += 1
            buf[k:hi] = a[i:mid] if i < mid else a[j:hi]
            a[lo:hi] = buf[lo:hi]
        width *= 2
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

