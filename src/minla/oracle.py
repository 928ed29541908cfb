"""Ground truth: exact offline optimum, tiny-n exhaustive search, and the
closed forms behind the probabilistic and algebraic guarantees.

``dp_opt`` is the comparison baseline used everywhere: the cheapest single
move from the initial permutation to a permutation that stays feasible at
every step.  For lines this is the true offline optimum (sub-paths of a
contiguous path are contiguous); for cliques the always-feasible set is the
laminar family of the merge forest, and ``exhaustive_opt`` certifies the
equality on small instances by a literal shortest-path search over all
schedules.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .algorithms import DEFAULT_ITEM_CAP, _order_blocks, closest_feasible
from .errors import CapacityError
from .ordering import cross_weight
from .perm import Permutation, count_inversions, kendall_tau
from .trace import Model, RevealTrace, replay_components

__all__ = [
    "OptResult",
    "dp_opt",
    "exhaustive_opt",
    "left_right_probability",
    "orientation_probability",
    "harmonic_number",
    "HarmonicBounds",
    "check_harmonic_bounds",
    "check_identity_lemmas",
    "bound_for_trace",
]


@dataclass(frozen=True)
class OptResult:
    """Optimal cost plus one witness final permutation."""

    cost: int
    witness: Permutation


def _clique_opt(t: RevealTrace, cap: int) -> OptResult:
    """Cheapest permutation keeping every component of every step contiguous.

    Each merge orders its two child blocks independently (the cross cost
    depends only on the node sets), then the forest roots are ordered by
    :func:`_order_blocks`.
    """
    pos0 = t.pi0.pos_of
    # Per component: sorted reference positions, node sequence, internal cost.
    comp: dict[int, tuple[list[int], list[int], int]] = {
        v: ([pos0[v]], [v], 0) for v in range(t.n)
    }
    parts = replay_components(t, 0)
    for ev in t.events:
        ru, rv = parts.find(ev.u), parts.find(ev.v)
        pos_a, seq_a, cost_a = comp.pop(ru)
        pos_b, seq_b, cost_b = comp.pop(rv)
        w_ab = cross_weight(pos_a, pos_b)
        w_ba = len(pos_a) * len(pos_b) - w_ab
        if w_ab < w_ba or (w_ab == w_ba and seq_a[0] < seq_b[0]):
            seq, extra = seq_a + seq_b, w_ab
        else:
            seq, extra = seq_b + seq_a, w_ba
        root = parts.merge(ev.u, ev.v)
        comp[root] = (sorted(pos_a + pos_b), seq, cost_a + cost_b + extra)

    roots = sorted(comp)
    internal = sum(comp[r][2] for r in roots)
    cross, node_at = _order_blocks(
        [comp[r][1] for r in roots], [comp[r][0] for r in roots], cap
    )
    return OptResult(cost=internal + cross, witness=Permutation(node_at))


def dp_opt(t: RevealTrace, cap: int = DEFAULT_ITEM_CAP) -> OptResult:
    """Minimum distance from the initial permutation to any permutation that
    is feasible for every revealed step, with a witness.

    The witness realizes the cost in a single move, so
    ``kendall_tau(pi0, witness) == cost``.
    """
    if t.k == 0:
        return OptResult(cost=0, witness=t.pi0)
    if t.model is Model.CLIQUES:
        return _clique_opt(t, cap)
    parts = replay_components(t, t.k)
    witness = closest_feasible(t.pi0, parts, Model.LINES, cap=cap)
    return OptResult(cost=kendall_tau(t.pi0, witness), witness=witness)


_EXHAUSTIVE_MAX_N = 7


@lru_cache(maxsize=3)
def _perm_graph(n: int):
    """All permutations of range(n) with adjacent-transposition neighbors."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    neighbors = [
        [index[p[:i] + (p[i + 1], p[i]) + p[i + 2 :]] for i in range(n - 1)]
        for p in perms
    ]
    return perms, index, neighbors


def _feasible_filter(parts, model: Model, n: int):
    comp_of = [parts.find(v) for v in range(n)]
    num = parts.num_components
    if model is Model.CLIQUES:

        def ok(p: tuple[int, ...]) -> bool:
            runs = 0
            last = -1
            for v in p:
                c = comp_of[v]
                if c != last:
                    runs += 1
                    last = c
            return runs == num

        return ok

    paths = {root: tuple(parts.path_of(root)) for root in parts.components()}

    def ok_lines(p: tuple[int, ...]) -> bool:
        start = 0
        runs = 0
        while start < n:
            root = comp_of[p[start]]
            stop = start + 1
            while stop < n and comp_of[p[stop]] == root:
                stop += 1
            runs += 1
            if runs > num:
                return False
            path = paths[root]
            if stop - start != len(path):
                return False
            seg = p[start:stop]
            if seg != path and seg != path[::-1]:
                return False
            start = stop
        return runs == num

    return ok_lines


def exhaustive_opt(t: RevealTrace) -> OptResult:
    """Literal offline optimum over all update schedules, for n <= 7.

    Shortest path in the layered graph whose layer-i vertices are the
    permutations feasible for step i, with adjacent-swap distances as edge
    weights; distances are propagated by multi-source Dijkstra over the
    adjacent-transposition graph, which realizes the swap metric exactly.
    """
    if t.n > _EXHAUSTIVE_MAX_N:
        raise CapacityError(
            f"exhaustive search supports n <= {_EXHAUSTIVE_MAX_N}, got {t.n}"
        )
    perms, index, neighbors = _perm_graph(t.n)
    frontier: dict[int, int] = {index[t.pi0.node_at]: 0}
    parts = replay_components(t, 0)
    inf = 1 << 60
    for ev in t.events:
        parts.merge(ev.u, ev.v)
        dist = [inf] * len(perms)
        heap: list[tuple[int, int]] = []
        for idx, d in frontier.items():
            dist[idx] = d
            heap.append((d, idx))
        heapq.heapify(heap)
        while heap:
            d, idx = heapq.heappop(heap)
            if d > dist[idx]:
                continue
            nd = d + 1
            for nxt in neighbors[idx]:
                if nd < dist[nxt]:
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
        ok = _feasible_filter(parts, t.model, t.n)
        frontier = {i: dist[i] for i, p in enumerate(perms) if ok(p)}
    best_idx = min(frontier, key=lambda i: (frontier[i], perms[i]))
    return OptResult(cost=frontier[best_idx], witness=Permutation(perms[best_idx]))


def left_right_probability(
    group_a: Iterable[int], group_b: Iterable[int], pi0: Permutation
) -> Fraction:
    """Probability that group A ends up entirely left of group B, as ruled by
    the initial permutation: the fraction of cross pairs already ordered
    A-before-B there."""
    a = set(group_a)
    b = set(group_b)
    if not a or not b:
        raise ValueError("groups must be nonempty")
    if a & b:
        raise ValueError(f"groups overlap: {sorted(a & b)}")
    pos = pi0.pos_of
    favorable = sum(1 for x in a for y in b if pos[x] < pos[y])
    return Fraction(favorable, len(a) * len(b))


def orientation_probability(path_order: Sequence[int], pi0: Permutation) -> Fraction:
    """Probability that a path component keeps the given orientation: the
    fraction of its internal pairs already ordered that way initially."""
    s = len(path_order)
    if s < 2:
        raise ValueError("orientation is undefined for singleton components")
    pos = pi0.pos_of
    fwd = s * (s - 1) // 2 - count_inversions([pos[v] for v in path_order])
    return Fraction(fwd, s * (s - 1) // 2)


_EXACT_HARMONIC_MAX = 10_000
_harmonic_cache: list[Fraction] = [Fraction(0)]


def harmonic_number(s: int) -> Fraction | float:
    """H_s = 1 + 1/2 + ... + 1/s, exact up to s = 10^4, double beyond."""
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    if s > _EXACT_HARMONIC_MAX:
        return math.fsum(1.0 / i for i in range(1, s + 1))
    while len(_harmonic_cache) <= s:
        _harmonic_cache.append(
            _harmonic_cache[-1] + Fraction(1, len(_harmonic_cache))
        )
    return _harmonic_cache[s]


@dataclass(frozen=True)
class HarmonicBounds:
    """Truth of the three prefix-ratio inequalities for one series."""

    ratio_sum_ok: bool
    square_sum_ok: bool
    adjacent_sum_ok: bool

    def all_ok(self) -> bool:
        return self.ratio_sum_ok and self.square_sum_ok and self.adjacent_sum_ok


def check_harmonic_bounds(series: Sequence[int]) -> HarmonicBounds:
    """Verify the harmonic prefix bounds for a series of positive integers.

    With prefix sums P_i over the whole series and P'_i over the tail that
    drops the first element:

    * sum_i  s_i / P_i                 <= H_S
    * sum_{i>=2} s_i^2 / C(P_i, 2)     <= 2 H_S
    * sum_{i>=3} s_{i-1} s_i / C(P'_i, 2) <= 2 H_S

    The excluded leading terms have no preceding mass and their pair-count
    denominators can vanish, so the sums start where they are well defined.
    All arithmetic is exact.
    """
    if not series or any(s < 1 for s in series):
        raise ValueError("series must be nonempty positive integers")
    total = sum(series)
    h = harmonic_number(total)
    ratio_sum = Fraction(0)
    square_sum = Fraction(0)
    adjacent_sum = Fraction(0)
    prefix = 0
    tail_prefix = 0
    for i, s in enumerate(series):
        prefix += s
        ratio_sum += Fraction(s, prefix)
        if i >= 1:
            tail_prefix += s
            square_sum += Fraction(s * s * 2, prefix * (prefix - 1))
        if i >= 2:
            adjacent_sum += Fraction(
                series[i - 1] * s * 2, tail_prefix * (tail_prefix - 1)
            )
    return HarmonicBounds(
        ratio_sum_ok=ratio_sum <= h,
        square_sum_ok=square_sum <= 2 * h,
        adjacent_sum_ok=adjacent_sum <= 2 * h,
    )


_IDENTITY_MAX_N = 12


@lru_cache(maxsize=_IDENTITY_MAX_N + 1)
def _choice_matrix(n: int) -> np.ndarray:
    rows = np.arange(1 << n, dtype=np.int64)
    return (rows[:, None] >> np.arange(n)) & 1


def check_identity_lemmas(
    a: Sequence[float], b: Sequence[float], tol: float = 1e-9
) -> tuple[bool, bool]:
    """Evaluate two closed forms over all binary choice vectors t in {0,1}^N.

    With weights prod_j b_j^{t_j} (1-b_j)^{1-t_j} and A = sum(a):

    * equality:   E[ sum_i t_i a_i ] == sum_i a_i b_i
    * inequality: E[ (sum_i t_i a_i) (A - sum_i t_i a_i) ]
                  <= sum_i b_i a_i (A - a_i), for nonnegative a

    Returns (equality holds within tol, inequality holds within tol).
    """
    n = len(a)
    if n != len(b):
        raise ValueError("a and b must have equal length")
    if not 1 <= n <= _IDENTITY_MAX_N:
        raise ValueError(f"N must be in 1..{_IDENTITY_MAX_N}")
    if any(not 0.0 <= x <= 1.0 for x in b):
        raise ValueError("b entries must lie in [0, 1]")
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    t = _choice_matrix(n)
    weights = np.prod(np.where(t == 1, bv, 1.0 - bv), axis=1)
    chosen = t @ av
    total = float(av.sum())
    lhs_eq = float(weights @ chosen)
    rhs_eq = float(av @ bv)
    lhs_le = float(weights @ (chosen * (total - chosen)))
    rhs_le = float(bv @ (av * (total - av)))
    return abs(lhs_eq - rhs_eq) <= tol, lhs_le <= rhs_le + tol


def bound_for_trace(t: RevealTrace, opt: OptResult) -> float:
    """The harmonic cost bound for the trace: the number of node pairs
    ordered differently by the initial permutation and the optimal witness,
    scaled by 4 H_n for cliques and 8 H_n for lines."""
    diff = kendall_tau(t.pi0, opt.witness)
    factor = 4 if t.model is Model.CLIQUES else 8
    return float(factor * harmonic_number(t.n) * diff)
