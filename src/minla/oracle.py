"""Ground truth: the optimality test (``is_minla``, the contiguity check of
:meth:`~minla.trace.ComponentPartition.misplaced_root`) and the cost of one
arrangement, the exact offline optimum, tiny-n exhaustive search, and the
closed forms behind the probabilistic and algebraic guarantees.

``dp_opt`` is the comparison baseline used everywhere: the cheapest single
move from the initial permutation to a permutation that stays feasible at
every step.  For lines this is the true offline optimum (sub-paths of a
contiguous path are contiguous); for cliques the always-feasible set is the
laminar family of the merge forest.  No proof in the code shows that this is
optimal over all update schedules: ``exhaustive_opt``, a level-by-level numpy
search over the cached permutation graph of n <= 7, checks the equality only
on criterion 7's 440 random traces and in the tests, all with n <= 7.

The algebraic checks take batches only.  H_S is exact up to S = 10^4 and a
``CapacityError`` past it; below, the harmonic sums are float row sums
outside a certified margin of H_S and integers over an lcm inside it.  The
choice-vector weights are built by doubling; ``tests/conftest.py`` keeps the
literal oracles (heap Dijkstra, ``Fraction`` sums, row products).

numpy is imported on first use, by ``exhaustive_opt`` and the algebraic
checks, so ``dp_opt`` on a trace that ends in one component never loads it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .algorithms import closest_feasible
from .errors import CapacityError, InstanceMismatchError
from .ordering import cross_weight, solve_block_order
from .perm import Permutation, count_inversions
from .trace import ComponentPartition, Model, RevealTrace

__all__ = [
    "arrangement_cost",
    "is_minla",
    "OptResult",
    "dp_opt",
    "exhaustive_opt",
    "left_right_probability",
    "orientation_probability",
    "harmonic_number",
    "check_harmonic_bounds",
    "check_identity_lemmas",
    "bound_for_trace",
]


@dataclass(frozen=True)
class OptResult:
    """Optimal cost plus one witness final permutation."""

    cost: int
    witness: Permutation


def arrangement_cost(p: Permutation, parts: ComponentPartition) -> int:
    """Sum over edges of the position distance between the endpoints.

    Per the partition's own model, cliques contribute all intra-component
    pairs, lines only consecutive path neighbors.
    """
    if len(p) != parts.n:
        raise InstanceMismatchError(f"permutation of {len(p)} nodes, partition of {parts.n}")
    pos = p.pos_of
    total = 0
    for path in parts.nodes.values():
        if parts.model is Model.CLIQUES:
            qs = sorted(pos[v] for v in path)
            s = len(qs)
            total += sum(q * (2 * i - s + 1) for i, q in enumerate(qs))
        else:
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
    if len(p) != parts.n:
        raise InstanceMismatchError(f"permutation of {len(p)} nodes, partition of {parts.n}")
    return parts.misplaced_root(p.node_at) is None


def _clique_opt(t: RevealTrace) -> OptResult:
    """Cheapest permutation keeping every component of every step contiguous.

    Each merge orders its two child blocks independently (the cross cost
    depends only on the node sets), then the forest roots are ordered by
    :func:`solve_block_order` over pi0's positions.
    """
    pos0 = t.pi0.pos_of
    # Per component: sorted reference positions, node sequence, internal cost.
    comp: dict[int, tuple[list[int], list[int], int]] = {
        v: ([pos0[v]], [v], 0) for v in range(t.n)
    }
    for row in t.replay.rows:
        ru, rv = row[2], row[3]  # a merge keeps u's root
        pos_a, seq_a, cost_a = comp.pop(ru)
        pos_b, seq_b, cost_b = comp.pop(rv)
        w_ab = cross_weight(pos_a, pos_b)
        w_ba = len(pos_a) * len(pos_b) - w_ab
        if w_ab < w_ba or (w_ab == w_ba and seq_a[0] < seq_b[0]):
            seq, extra = seq_a + seq_b, w_ab
        else:
            seq, extra = seq_b + seq_a, w_ba
        comp[ru] = (sorted(pos_a + pos_b), seq, cost_a + cost_b + extra)

    roots = sorted(comp)
    internal = sum(comp[r][2] for r in roots)
    cross, node_at = solve_block_order([comp[r][1] for r in roots], pos0)
    return OptResult(cost=internal + cross, witness=Permutation(node_at))


def dp_opt(t: RevealTrace) -> OptResult:
    """Minimum distance from the initial permutation to any permutation that
    is feasible for every revealed step, with a witness.

    The witness realizes the cost in a single move, so
    ``kendall_tau(pi0, witness) == cost``.
    """
    if t.k == 0:
        return OptResult(cost=0, witness=t.pi0)
    if t.model is Model.CLIQUES:
        return _clique_opt(t)
    cost, witness = closest_feasible(t.pi0, t.replay.final)
    return OptResult(cost=cost, witness=witness)


_EXHAUSTIVE_MAX_N = 7


@lru_cache(maxsize=_EXHAUSTIVE_MAX_N + 1)
def _perm_graph(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n! permutations of range(n) as rows in lexicographic order, each
    row's adjacent-transposition neighbours by row index, and each row's node
    positions."""
    import numpy as np

    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    # Rows read as base-n numbers ascend, so a row's index is a binary search.
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = perms @ place
    swapped = keys[:, None] + (perms[:, 1:] - perms[:, :-1]) * (place[:-1] - place[1:])
    return perms, np.searchsorted(keys, swapped), np.argsort(perms, axis=1)


def exhaustive_opt(t: RevealTrace) -> OptResult:
    """Literal offline optimum over all update schedules, for n <= 7.

    Shortest path in the layered graph whose layer-i vertices are the
    permutations feasible for step i, with adjacent-swap distances as edge
    weights.  Every edge of the adjacent-transposition graph weighs 1, so per
    event a multi-source search lowers the neighbours of the rows at
    distance L to L + 1, one level at a time; that realizes the swap metric
    exactly.  A row stays in the next layer when every clique spans no more
    positions than it has nodes, or every path edge has stretch 1 (such a
    path cannot turn back, so it lies in path order or its reverse).  Ties
    go to the lexicographically smallest witness, the first row.
    """
    import numpy as np

    if t.n > _EXHAUSTIVE_MAX_N:
        raise CapacityError(
            f"exhaustive search supports n <= {_EXHAUSTIVE_MAX_N}, got {t.n}"
        )
    perms, neighbors, pos = _perm_graph(t.n)
    inf = 1 << 60
    dist = np.full(len(perms), inf, dtype=np.int64)
    dist[(perms == t.pi0.node_at).all(axis=1)] = 0
    feasible = np.ones(len(perms), dtype=bool)
    members = {v: [v] for v in range(t.n)}  # cliques: each root's nodes
    contiguous: dict[int, np.ndarray] = {}  # cliques: per multi-node root
    for u, v, root, absorbed, *_ in t.replay.rows:
        level = int(dist.min())
        top = int(dist[dist < inf].max())
        while level <= top:
            reach = neighbors[dist == level].ravel()
            reach = reach[dist[reach] > level + 1]
            if reach.size:
                dist[reach] = level + 1
                top = max(top, level + 1)
            level += 1
        if t.model is Model.LINES:
            feasible &= np.abs(pos[:, u] - pos[:, v]) == 1
        else:
            members[root] += members.pop(absorbed)
            contiguous.pop(absorbed, None)
            cols = pos[:, members[root]]
            contiguous[root] = cols.max(axis=1) - cols.min(axis=1) < cols.shape[1]
            feasible = np.logical_and.reduce(list(contiguous.values()))
        dist[~feasible] = inf
    best = int(np.argmin(dist))
    return OptResult(cost=int(dist[best]), witness=Permutation(perms[best].tolist()))


def left_right_probability(
    group_a: Iterable[int], group_b: Iterable[int], pi0: Permutation
) -> Fraction:
    """Probability that group A ends up entirely left of group B, as ruled by
    the initial permutation: the fraction of cross pairs already ordered
    A-before-B there, all pairs less ``cross_weight``'s B-before-A pairs."""
    group_a, group_b = tuple(group_a), tuple(group_b)
    if any(type(v) is not int for v in group_a + group_b):
        raise TypeError(f"group_a and group_b ids must be ints: {group_a!r:.40}, {group_b!r:.40}")
    a = set(group_a)
    b = set(group_b)
    if not a or not b:
        raise ValueError("groups must be nonempty")
    if a & b:
        raise ValueError(f"groups overlap: {sorted(a & b)}")
    if min(a | b) < 0 or max(a | b) >= len(pi0):
        raise ValueError(f"node ids must lie in 0..{len(pi0) - 1}")
    pos = pi0.pos_of
    inverted = cross_weight(sorted(pos[x] for x in a), sorted(pos[y] for y in b))
    return Fraction(len(a) * len(b) - inverted, len(a) * len(b))


def orientation_probability(path_order: Sequence[int], pi0: Permutation) -> Fraction:
    """Probability that a path component, given as its distinct nodes in
    order, keeps that orientation: the fraction of its internal pairs
    already ordered that way initially."""
    if any(type(v) is not int for v in path_order):
        raise TypeError(f"path_order node ids must be ints, got {path_order!r:.80}")
    s = len(path_order)
    if s < 2:
        raise ValueError("orientation is undefined for singleton components")
    if min(path_order) < 0 or max(path_order) >= len(pi0):
        raise ValueError(f"node ids must lie in 0..{len(pi0) - 1}")
    if len(set(path_order)) < s:
        repeated = {v for i, v in enumerate(path_order) if v in path_order[:i]}
        raise ValueError(f"path repeats nodes: {sorted(repeated)}")
    pos = pi0.pos_of
    fwd = s * (s - 1) // 2 - count_inversions([pos[v] for v in path_order])
    return Fraction(fwd, s * (s - 1) // 2)


_EXACT_HARMONIC_MAX = 10_000
_harmonic_cache: list[Fraction] = [Fraction(0)]


def harmonic_number(s: int) -> Fraction:
    """H_s = 1 + 1/2 + ... + 1/s exactly, for an int 1 <= s <= 10^4 (the cap)."""
    if type(s) is not int:
        raise TypeError(f"s must be an int, got {s!r}")
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    if s > _EXACT_HARMONIC_MAX:
        raise CapacityError(f"H_s is exact up to s = {_EXACT_HARMONIC_MAX}, got {s}")
    while len(_harmonic_cache) <= s:
        _harmonic_cache.append(_harmonic_cache[-1] + Fraction(1, len(_harmonic_cache)))
    return _harmonic_cache[s]


def _at_most(nums: Sequence[int], dens: Sequence[int], bound: Fraction) -> bool:
    """sum(nums[i] / dens[i]) <= bound, over the lcm of ``dens``."""
    common = math.lcm(*dens)
    total = sum(x * (common // d) for x, d in zip(nums, dens))
    return total * bound.denominator <= bound.numerator * common


@lru_cache(maxsize=_EXACT_HARMONIC_MAX + 1)
def _harmonic_float(s: int) -> float:
    """H_s correctly rounded: Python's int division rounds the exact pair."""
    return float(harmonic_number(s))


def _pair_sums(num: np.ndarray, p: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Row sums of num / (p (p - 1)) over the valid entries."""
    import numpy as np
    return np.divide(num, p * (p - 1), out=np.zeros_like(num), where=valid).sum(axis=1)


def check_harmonic_bounds(batch: Sequence[Sequence[int]]) -> tuple[np.ndarray, ...]:
    """Verify the harmonic prefix bounds for a batch of positive integer series.

    With prefix sums P_i over the whole series and P'_i over the tail that
    drops the first element:

    * sum_i  s_i / P_i                 <= H_S
    * sum_{i>=2} s_i^2 / C(P_i, 2)     <= 2 H_S
    * sum_{i>=3} s_{i-1} s_i / C(P'_i, 2) <= 2 H_S

    The excluded leading terms have no preceding mass and their pair-count
    denominators can vanish, so the sums start where they are well defined.
    The last two are halved: x / C(P, 2) <= 2 H_S is x / (P (P - 1)) <= H_S.

    ``batch`` is a list of m series of plain ints (else :class:`TypeError`);
    returns three bool arrays of length m.  A total S past 10^4 raises
    :class:`CapacityError` before any sum is taken.  Floats decide a sum only
    far enough from H_S; every other sum is one integer numerator over the
    lcm of its denominators, so every answer is exact.
    """
    import numpy as np

    if len(batch) == 0 or np.ndim(batch[0]) == 0:
        raise ValueError("expected a nonempty batch: a list of series")
    lengths = np.array([len(row) for row in batch])
    flat = [s for row in batch for s in row]
    values = np.array(flat)
    # One string entry turns every entry into a string, which cannot be
    # ordered against 1; operator.index below names it instead.
    if not lengths.all() or (values.dtype.kind not in "SU" and values.min() < 1):
        raise ValueError("series must be nonempty positive integers")
    if {*map(type, flat)} != {int}:
        # Non-integers fail operator.index; bools and numpy ints are refused.
        bad = next(s for s in flat if type(s) is not int)
        operator.index(bad)
        raise TypeError(f"series entries must be ints, got {bad!r}")
    if values.dtype.kind != "i":
        # Integers past int64, kept as Python ints so none is summed as a float.
        values = np.array(flat, dtype=object)
    # Clipped entries sum past the cap exactly when the true ones do.
    clipped = np.minimum(values, _EXACT_HARMONIC_MAX + 1)
    totals = np.add.reduceat(clipped, lengths.cumsum() - lengths).tolist()
    for i, total in enumerate(totals):
        if total > _EXACT_HARMONIC_MAX:
            raise CapacityError(
                f"series {i} sums to {sum(map(int, batch[i]))}; the harmonic "
                f"check is exact up to a total of {_EXACT_HARMONIC_MAX}"
            )
    valid = np.arange(lengths.max()) < lengths[:, None]
    grid = np.zeros(valid.shape)
    grid[valid] = values
    prefix = grid.cumsum(axis=1)
    tail = prefix - grid[:, :1]
    sums = np.stack((
        (grid / prefix).sum(axis=1),
        _pair_sums(grid[:, 1:] ** 2, prefix[:, 1:], valid[:, 1:]),
        _pair_sums(grid[:, 1:-1] * grid[:, 2:], tail[:, 2:], valid[:, 2:]),
    ))
    h = np.array([_harmonic_float(total) for total in totals])
    # Under the cap every entry, prefix sum and product is below 2^27, so each
    # of the at most L terms is one correctly rounded division, and adding
    # them rounds at most L - 1 more times: with u = 2^-53 the float sum is
    # within gamma_L = L u / (1 - L u) of the exact sum, relatively, and
    # h = fl(H_S) is within u of H_S.  Ordering sum and h unlike the exact sum
    # and H_S then needs |sum - h| <= ((1 + gamma_L) / (1 - u) - 1) h, about
    # (L + 1) u h; the margin (L + 2) 2^-52 h is twice that, and sums inside
    # it are decided exactly.
    ok = sums <= h
    exact = np.abs(sums - h) <= (lengths + 2) * 2.0**-52 * h
    for i in np.flatnonzero(exact.any(axis=0)).tolist():
        row = list(map(int, batch[i]))
        prefix = list(itertools.accumulate(row))
        tail = [p - row[0] for p in prefix]
        terms = (
            (row, prefix),
            ([s * s for s in row[1:]], [p * (p - 1) for p in prefix[1:]]),
            ([x * y for x, y in zip(row[1:], row[2:])], [p * (p - 1) for p in tail[2:]]),
        )
        bound = harmonic_number(prefix[-1])
        for k in np.flatnonzero(exact[:, i]).tolist():
            ok[k, i] = _at_most(*terms[k], bound)
    return tuple(ok)


_IDENTITY_MAX_N = 12
# Both checks hold within this tolerance times max(1, rhs); read at every call.
_IDENTITY_TOL = 1e-9


@lru_cache(maxsize=_IDENTITY_MAX_N + 1)
def _choice_matrix(n: int) -> np.ndarray:
    import numpy as np
    rows = np.arange(1 << n, dtype=np.int64)
    return ((rows[:, None] >> np.arange(n)) & 1).astype(np.float64)


def check_identity_lemmas(a: Sequence, b: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate two closed forms over all binary choice vectors t in {0,1}^N.

    With weights prod_j b_j^{t_j} (1-b_j)^{1-t_j} and A = sum(a):

    * equality:   E[ sum_i t_i a_i ] == sum_i a_i b_i
    * inequality: E[ (sum_i t_i a_i) (A - sum_i t_i a_i) ]
                  <= sum_i b_i a_i (A - a_i), for nonnegative a

    ``a`` and ``b`` are (m, N) batches, ``a`` in [0, 1e150 / N] (row sums
    at most 1e150) and ``b`` in [0, 1], else :class:`ValueError`.  Returns
    two bool arrays of length m, each check within ``_IDENTITY_TOL`` times
    max(1, rhs), its nonnegative right side; every row's floats equal, bit
    for bit, those of the row-product reference.
    """
    import numpy as np

    av, bv = (np.asarray(x, dtype=np.float64) for x in (a, b))
    if av.ndim != 2 or av.shape != bv.shape:
        raise ValueError("a and b must be (m, N) batches of equal shape")
    if not 1 <= av.shape[1] <= _IDENTITY_MAX_N:
        raise ValueError(f"N must be in 1..{_IDENTITY_MAX_N}")
    if not ((bv >= 0.0) & (bv <= 1.0)).all():
        raise ValueError("b entries must lie in [0, 1]")
    if not ((av >= 0.0) & (av <= 1e150 / av.shape[1])).all():
        raise ValueError("a entries must be finite and lie in [0, 1e150 / N]")
    lhs_eq, rhs_eq, lhs_le, rhs_le = _identity_sides(av, bv)
    return (np.abs(lhs_eq - rhs_eq) <= _IDENTITY_TOL * np.maximum(1.0, rhs_eq),
            lhs_le <= rhs_le + _IDENTITY_TOL * np.maximum(1.0, rhs_le))


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row of ``x`` dotted with its row of ``y``: a 1-D ``@`` per row."""
    import numpy as np
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _identity_sides(av: np.ndarray, bv: np.ndarray) -> tuple[np.ndarray, ...]:
    """Both sides of the equality, then both sides of the inequality, per row
    of the (m, N) batch.  The weights double over columns j = 0..N-1 (row
    bit j is t_j), multiplying each choice vector's factors in order; the
    choice sums take one matrix-vector product per row.  ``av @ choice.T``
    and ``einsum`` sum in another order and change the last bits."""
    import numpy as np

    weights = np.ones((len(av), 1))
    for bj in bv.T[:, :, None]:
        weights = np.concatenate((weights * (1.0 - bj), weights * bj), axis=1)
    chosen = np.matmul(_choice_matrix(av.shape[1]), av[:, :, None])[:, :, 0]
    total = av.sum(axis=1, keepdims=True)
    return (
        _row_dot(weights, chosen),
        _row_dot(av, bv),
        _row_dot(weights, chosen * (total - chosen)),
        _row_dot(bv, av * (total - av)),
    )


def bound_for_trace(t: RevealTrace, opt: OptResult) -> float:
    """The harmonic cost bound for the trace: 4·H_n·OPT for cliques and
    8·H_n·OPT for lines, with OPT = ``opt.cost``, ``t``'s own (else
    :class:`InstanceMismatchError`)."""
    if len(opt.witness) != t.n:
        raise InstanceMismatchError(f"optimum of {len(opt.witness)} nodes, trace of {t.n}")
    factor = 4 if t.model is Model.CLIQUES else 8
    return float(factor * harmonic_number(t.n) * opt.cost)
