"""Shared brute-force oracles for the test suite.

These stay deliberately naive and independent of the library's fast paths:
quadratic pair counting, full permutation enumeration, literal cost sums,
closed forms.
"""

import itertools

from minla import Model, Permutation, is_minla


def naive_kendall(p: Permutation, q: Permutation) -> int:
    """All-pairs discordance count, O(n^2)."""
    n = len(p)
    count = 0
    for x in range(n):
        for y in range(x + 1, n):
            if (p.pos_of[x] < p.pos_of[y]) != (q.pos_of[x] < q.pos_of[y]):
                count += 1
    return count


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(n))]


def feasible_permutations(parts, model, n: int) -> list[Permutation]:
    """Every permutation the contiguity characterization accepts."""
    return [p for p in all_permutations(n) if is_minla(p, parts, model)]


def ordered_pairs_diff(p: Permutation, q: Permutation) -> int:
    """Ordered pairs (x, y) with x left of y in ``p`` but not in ``q``, counted
    literally in O(n^2); equals the Kendall-tau distance."""
    qpos = q.pos_of
    order = p.node_at
    n = len(order)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if qpos[order[j]] < qpos[order[i]]
    )


def reverse_block(p: Permutation, start: int, length: int) -> Permutation:
    """``p`` with the nodes at positions start..start+length-1 reversed."""
    nodes = list(p.node_at)
    nodes[start : start + length] = nodes[start : start + length][::-1]
    return Permutation(nodes)


def minla_optimum(parts, model) -> int:
    """Closed-form minimum arrangement cost: a clique of size s costs
    (s^3 - s) / 6 when contiguous, a path of size s costs s - 1."""
    total = 0
    for root in parts.components():
        s = parts.size_of(root)
        total += (s * s * s - s) // 6 if model is Model.CLIQUES else s - 1
    return total
