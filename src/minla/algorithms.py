"""The online algorithms.

Two strategies maintain an optimal arrangement of the revealed graph:

* ``det`` moves to the feasible permutation closest to the initial one,
  found exactly by a subset dynamic program over the components.
* ``rand`` collocates the two merging components by a size-biased coin and,
  for lines, fixes the merged path's orientation by a cost-biased coin.

Coin weights are exact integer rationals and every draw is a uniform integer
below the denominator, so no floating point enters the randomness.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Sequence

from .errors import CapacityError, InvariantError
from .feasibility import is_minla
from .ordering import cross_weight, solve_block_order
from .perm import Permutation, count_inversions, kendall_tau
from .trace import ComponentPartition, Model, RevealEvent, RevealTrace, validate_trace

__all__ = [
    "CoinWeights",
    "RearrangeCoin",
    "StepReport",
    "AlgoState",
    "closest_feasible",
    "det_step",
    "rand_clique_step",
    "rand_line_step",
    "run",
]

DEFAULT_ITEM_CAP = 22


@dataclass(frozen=True)
class CoinWeights:
    """Weights of the moving coin: which merging component travels.

    The component holding the first endpoint moves with probability
    ``move_x_num / denom``; the numerators are the opposite components'
    sizes, so ``move_x_num + move_z_num == denom``.
    """

    move_x_num: int
    move_z_num: int
    denom: int


@dataclass(frozen=True)
class RearrangeCoin:
    """Weights of the orientation coin for the merged line span.

    Each target is chosen with probability proportional to the swap cost of
    the opposite target; the two costs always sum to ``denom``, the number
    of node pairs inside the span.
    """

    forward_num: int
    reversed_num: int
    denom: int


@dataclass(frozen=True)
class StepReport:
    """Per-event record of what an algorithm did and at which exact odds."""

    event_index: int
    move_cost: int
    rearrange_cost: int
    choice: str
    prob_num: int
    prob_den: int
    move_coin: CoinWeights | None = None
    rearrange_coin: RearrangeCoin | None = None

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "event_index": self.event_index,
                "move_cost": self.move_cost,
                "rearrange_cost": self.rearrange_cost,
                "choice": self.choice,
                "prob_num": self.prob_num,
                "prob_den": self.prob_den,
            },
            separators=(",", ":"),
        )


def steplog_to_jsonl(steps: Sequence[StepReport]) -> str:
    return "".join(step.to_json_line() + "\n" for step in steps)


@dataclass
class AlgoState:
    """Mutable per-trial state: permutation, components, cost, log.

    ``node_at`` and ``pos`` hold the permutation, edited in place by the
    ``rand`` steps; ``current`` returns an immutable snapshot of it."""

    model: Model
    pi0: Permutation
    node_at: list[int]
    pos: list[int]
    parts: ComponentPartition
    total_cost: int = 0
    move_cost: int = 0
    rearrange_cost: int = 0
    step_log: list[StepReport] = field(default_factory=list)
    collect_log: bool = True
    item_cap: int = DEFAULT_ITEM_CAP
    _next_event: int = 0

    @classmethod
    def initial(cls, model: Model, pi0: Permutation, **kwargs) -> "AlgoState":
        return cls(
            model=model,
            pi0=pi0,
            node_at=list(pi0.node_at),
            pos=list(pi0.pos_of),
            parts=ComponentPartition(len(pi0), model),
            **kwargs,
        )

    @property
    def current(self) -> Permutation:
        return Permutation._trusted(tuple(self.node_at), tuple(self.pos))

    @current.setter
    def current(self, p: Permutation) -> None:
        self.node_at = list(p.node_at)
        self.pos = list(p.pos_of)

    def _record(self, report: StepReport) -> None:
        self.total_cost += report.move_cost + report.rearrange_cost
        self.move_cost += report.move_cost
        self.rearrange_cost += report.rearrange_cost
        if self.collect_log:
            self.step_log.append(report)
        self._next_event += 1


def _oriented_path(path: Sequence[int], pos0: Sequence[int]) -> list[int]:
    """Orientation of a path with the fewest pairs inverted against the
    reference positions; ties go to the lexicographically smaller sequence."""
    if len(path) == 1:
        return list(path)
    fwd = count_inversions([pos0[v] for v in path])
    rev = len(path) * (len(path) - 1) // 2 - fwd
    if fwd < rev or (fwd == rev and tuple(path) < tuple(path[::-1])):
        return list(path)
    return list(path[::-1])


def _order_blocks(
    seqs: Sequence[Sequence[int]], sorted_pos: Sequence[Sequence[int]], cap: int
) -> tuple[int, list[int]]:
    """Lay the blocks ``seqs`` out in the order with the fewest node pairs
    inverted against the reference positions; returns that count and the
    concatenated node sequence.

    ``sorted_pos[i]`` lists block i's reference positions in ascending order.
    Ties resolve to the lexicographically smallest node sequence.  The cap
    is checked before the O(m^2) weight matrix is built.
    """
    m = len(seqs)
    if m > cap:
        raise CapacityError(f"{m} components exceed the exact-search cap of {cap}")
    w = [
        [0 if i == j else cross_weight(sorted_pos[i], sorted_pos[j]) for j in range(m)]
        for i in range(m)
    ]
    cross, order = solve_block_order(w, [seq[0] for seq in seqs], cap=cap)
    node_at: list[int] = []
    for idx in order:
        node_at.extend(seqs[idx])
    return cross, node_at


def closest_feasible(
    pi0: Permutation,
    parts: ComponentPartition,
    model: Model,
    cap: int = DEFAULT_ITEM_CAP,
) -> Permutation:
    """The feasible permutation for ``parts`` closest to ``pi0``.

    Exact: component-internal layouts are fixed first (cliques take the
    pi0-induced node order, lines the cheaper orientation), then the block
    order is optimized by the subset dynamic program.  Ties resolve to the
    lexicographically smallest node sequence.
    """
    pos0 = pi0.pos_of
    seqs: list[list[int]] = []
    sorted_pos: list[list[int]] = []
    for root in parts.components():
        if model is Model.CLIQUES:
            seq = sorted(parts.nodes_of(root), key=pos0.__getitem__)
        else:
            seq = _oriented_path(parts.path_of(root), pos0)
        seqs.append(seq)
        sorted_pos.append(sorted(pos0[v] for v in seq))
    return Permutation(_order_blocks(seqs, sorted_pos, cap)[1])


def det_step(state: AlgoState, event: RevealEvent) -> AlgoState:
    """Apply one event deterministically: move to the feasible permutation
    closest to the initial one, paying the distance from the current one."""
    state.parts.merge(event.u, event.v)
    target = closest_feasible(state.pi0, state.parts, state.model, cap=state.item_cap)
    cost = kendall_tau(state.current, target)
    state.current = target
    state._record(
        StepReport(
            event_index=state._next_event,
            move_cost=cost,
            rearrange_cost=0,
            choice="closest",
            prob_num=1,
            prob_den=1,
        )
    )
    return state


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def _flip_move_coin(xl: int, zl: int, rng: random.Random) -> tuple[CoinWeights, bool]:
    """The size-biased moving coin: the x-side block moves with probability
    ``zl / (xl + zl)``, even when the blocks are already adjacent."""
    coin = CoinWeights(move_x_num=zl, move_z_num=xl, denom=xl + zl)
    return coin, rng.randrange(coin.denom) < coin.move_x_num


def _write_window(state: AlgoState, lo: int, window: list[int]) -> None:
    """Lay ``window`` out from position ``lo`` and refresh those positions."""
    state.node_at[lo : lo + len(window)] = window
    pos = state.pos
    for i, v in enumerate(window, lo):
        pos[v] = i


def _check(state: AlgoState, lo: int, hi: int, event_index: int) -> None:
    root = state.parts.misplaced_root(state.node_at, lo, hi)
    if root is not None:
        raise InvariantError(event_index, root, state.parts.size_of(root))


def _check_full(state: AlgoState) -> None:
    """:func:`is_minla` on the whole permutation, naming the first bad component."""
    if not is_minla(state.current, state.parts, state.model):
        _check(state, 0, len(state.node_at), state._next_event - 1)


def _collocate(
    state: AlgoState, event: RevealEvent, xs: int, xl: int, zs: int, zl: int,
    x_moved: bool, pair: list[int],
) -> int:
    """Slide the moving block next to the other and return the swap cost.

    Only the window from the left block's start to the right block's end is
    rewritten: ``pair``, the merged blocks' new content, after or before the
    nodes between them.  The components then merge; the window is checked."""
    if xs < zs:
        lo, left_end, right_start, hi = xs, xs + xl, zs, zs + zl
    else:
        lo, left_end, right_start, hi = zs, zs + zl, xs, xs + xl
    between = state.node_at[left_end:right_start]
    if x_moved == (xs < zs):  # the left block moves right
        cost = (left_end - lo) * len(between)
        _write_window(state, lo, between + pair)
    else:
        cost = (hi - right_start) * len(between)
        _write_window(state, lo, pair + between)
    state.parts.merge(event.u, event.v)
    _check(state, lo, hi, state._next_event)
    return cost


def rand_clique_step(
    state: AlgoState, event: RevealEvent, rng: random.Random
) -> AlgoState:
    """Randomized clique merge: one size-biased coin decides which block
    moves next to the other; block contents and bystanders keep their order."""
    parts = state.parts
    pos = state.pos
    x_nodes = parts.nodes_of(parts.find(event.u))
    z_nodes = parts.nodes_of(parts.find(event.v))
    xl, zl = len(x_nodes), len(z_nodes)
    xs = min(map(pos.__getitem__, x_nodes))
    zs = min(map(pos.__getitem__, z_nodes))
    coin, x_moved = _flip_move_coin(xl, zl, rng)
    x_block, z_block = state.node_at[xs : xs + xl], state.node_at[zs : zs + zl]
    pair = x_block + z_block if xs < zs else z_block + x_block
    cost = _collocate(state, event, xs, xl, zs, zl, x_moved, pair)

    num = coin.move_x_num if x_moved else coin.move_z_num
    prob_num, prob_den = _reduced(num, coin.denom)
    state._record(
        StepReport(
            event_index=state._next_event,
            move_cost=cost,
            rearrange_cost=0,
            choice="move_x" if x_moved else "move_z",
            prob_num=prob_num,
            prob_den=prob_den,
            move_coin=coin,
        )
    )
    return state


def rand_line_step(
    state: AlgoState, event: RevealEvent, rng: random.Random
) -> AlgoState:
    """Randomized line merge in two parts: collocate the blocks (same coin
    as for cliques), then fill the joint span with the merged path or its
    reverse, each chosen with probability proportional to the swap cost of
    the opposite filling.

    Both costs come in O(1) from the block positions: each block reads in
    path order or reversed, and the merged path puts x's block first.
    """
    parts = state.parts
    pos = state.pos
    u, v = event.u, event.v
    x_path = parts.path_of(parts.find(u))
    z_path = parts.path_of(parts.find(v))
    xl, zl = len(x_path), len(z_path)
    xs = min(pos[x_path[0]], pos[x_path[-1]])
    zs = min(pos[z_path[0]], pos[z_path[-1]])
    coin, x_moved = _flip_move_coin(xl, zl, rng)

    # The merged path runs through x's path (u last) into z's path (v first).
    merged_seq = (x_path if x_path[-1] == u else x_path[::-1]) + (
        z_path if z_path[0] == v else z_path[::-1]
    )
    inv_x = 0 if pos[u] == xs + xl - 1 else xl * (xl - 1) // 2
    inv_z = 0 if pos[v] == zs else zl * (zl - 1) // 2
    cost_forward = inv_x + inv_z + (0 if xs < zs else xl * zl)
    total_pairs = (xl + zl) * (xl + zl - 1) // 2
    cost_reversed = total_pairs - cost_forward
    rcoin = RearrangeCoin(
        forward_num=cost_reversed, reversed_num=cost_forward, denom=total_pairs
    )
    forward = rng.randrange(total_pairs) < rcoin.forward_num
    rearrange_cost = cost_forward if forward else cost_reversed
    target = list(merged_seq if forward else merged_seq[::-1])
    move_cost = _collocate(state, event, xs, xl, zs, zl, x_moved, target)

    move_num = coin.move_x_num if x_moved else coin.move_z_num
    orient_num = rcoin.forward_num if forward else rcoin.reversed_num
    prob_num, prob_den = _reduced(move_num * orient_num, coin.denom * rcoin.denom)
    state._record(
        StepReport(
            event_index=state._next_event,
            move_cost=move_cost,
            rearrange_cost=rearrange_cost,
            choice=("move_x" if x_moved else "move_z")
            + ("+forward" if forward else "+reversed"),
            prob_num=prob_num,
            prob_den=prob_den,
            move_coin=coin,
            rearrange_coin=rcoin,
        )
    )
    return state


def run(
    algo: str,
    trace: RevealTrace,
    seed: int = 0,
    collect_log: bool = True,
    validate: bool = True,
    item_cap: int = DEFAULT_ITEM_CAP,
) -> AlgoState:
    """Replay every event of ``trace`` with the chosen algorithm and return
    the final state.

    Deterministic for a given (algo, trace, seed).  Each ``rand`` step
    checks exactly the window it rewrote, which keeps the permutation
    feasible, and :func:`is_minla` checks the final one; each ``det`` step is
    checked by :func:`is_minla`.  A failure raises :class:`InvariantError`.
    """
    if algo not in ("det", "rand"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if validate:
        validate_trace(trace)
    state = AlgoState.initial(
        trace.model, trace.pi0, collect_log=collect_log, item_cap=item_cap
    )
    rng = random.Random(seed)
    for event in trace.events:
        if algo == "det":
            det_step(state, event)
            _check_full(state)
        elif trace.model is Model.CLIQUES:
            rand_clique_step(state, event, rng)
        else:
            rand_line_step(state, event, rng)
    if algo == "rand":
        _check_full(state)
    return state
