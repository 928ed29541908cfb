"""Permutations over a dense node range, Kendall-tau distance, block edits.

A permutation maps positions to node ids and back.  Both directions are kept
so that position and node lookups are O(1); the block edits rebuild both in
one pass.  All values are immutable: every operation returns a new
:class:`Permutation` together with its exact adjacent-swap cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InstanceMismatchError

__all__ = [
    "Permutation",
    "BlockRange",
    "kendall_tau",
    "move_block",
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
    def _from_node_at(cls, node_at: tuple[int, ...]) -> "Permutation":
        # trusted fast path for internal edits; skips validation
        p = cls.__new__(cls)
        pos = [0] * len(node_at)
        for i, v in enumerate(node_at):
            pos[v] = i
        p.node_at = node_at
        p.pos_of = tuple(pos)
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


@dataclass(frozen=True)
class BlockRange:
    """A contiguous run of positions: ``start`` inclusive, ``length`` positions."""

    start: int
    length: int

    def check_within(self, n: int) -> None:
        if self.length <= 0 or self.start < 0 or self.start + self.length > n:
            raise ValueError(f"block {self} out of range for n={n}")

    @property
    def stop(self) -> int:
        return self.start + self.length


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


def _check_same_n(p: Permutation, q: Permutation) -> None:
    if len(p) != len(q):
        raise InstanceMismatchError(
            f"permutations over different node counts: {len(p)} vs {len(q)}"
        )


def kendall_tau(p: Permutation, q: Permutation) -> int:
    """Minimum number of adjacent swaps turning ``p`` into ``q``.

    Equals the number of unordered node pairs whose relative order differs
    between the two permutations.
    """
    _check_same_n(p, q)
    return count_inversions([q.pos_of[v] for v in p.node_at])


def move_block(
    p: Permutation, block: BlockRange, dest_start: int
) -> tuple[Permutation, int]:
    """Slide a block of positions to ``dest_start``, shifting the nodes it
    jumps over to fill the gap.

    Nodes outside the block keep their relative order.  The swap cost is
    ``block.length * |dest_start - block.start|``, which equals the
    Kendall-tau distance between input and output.
    """
    n = len(p)
    block.check_within(n)
    if not 0 <= dest_start <= n - block.length:
        raise ValueError(f"destination {dest_start} out of range for {block}, n={n}")
    nodes = list(p.node_at)
    seg = nodes[block.start : block.stop]
    del nodes[block.start : block.stop]
    nodes[dest_start:dest_start] = seg
    cost = block.length * abs(dest_start - block.start)
    return Permutation._from_node_at(tuple(nodes)), cost
