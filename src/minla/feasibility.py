"""Arrangement cost and the contiguity characterization of optimal layouts.

For clique collections a permutation minimizes the total edge stretch exactly
when every component occupies contiguous positions; for line collections,
when every component occupies contiguous positions in path order or its
reverse.  The cost-based definition is quadratic and kept as the test oracle;
feasibility checks here use the O(n) characterization.
"""

from __future__ import annotations

from .perm import Permutation
from .trace import ComponentPartition, Model

__all__ = ["arrangement_cost", "is_minla"]


def arrangement_cost(p: Permutation, parts: ComponentPartition) -> int:
    """Sum over edges of the position distance between the endpoints.

    Per the partition's own model, cliques contribute all intra-component
    pairs, lines only consecutive path neighbors.
    """
    pos = p.pos_of
    total = 0
    for root in parts.components():
        if parts.model is Model.CLIQUES:
            qs = sorted(pos[v] for v in parts.nodes_of(root))
            s = len(qs)
            total += sum(q * (2 * i - s + 1) for i, q in enumerate(qs))
        else:
            path = parts.path_of(root)
            total += sum(
                abs(pos[a] - pos[b]) for a, b in zip(path, path[1:])
            )
    return total


def is_minla(p: Permutation, parts: ComponentPartition) -> bool:
    """True iff ``p`` attains the minimum arrangement cost for the partition.

    Checked via contiguity: every component must fill a contiguous span, and
    for lines the span must read as the component's path order or its
    reverse, per the partition's own model.  Size-1 components are vacuously
    contiguous.
    """
    return parts.misplaced_root(p.node_at) is None
