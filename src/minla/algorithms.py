"""The online algorithms.

Two strategies maintain an optimal arrangement of the revealed graph:

* ``det`` moves to the feasible permutation closest to the initial one,
  found exactly by a dynamic program over the multi-node components, the
  singletons kept in their initial order.
* ``rand`` collocates the two merging components by a size-biased coin and,
  for lines, fixes the merged path's orientation by a cost-biased coin.

Coin weights are exact integer rationals and every draw is a uniform integer
below the denominator, so no floating point enters the randomness.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import InvariantError
from .feasibility import is_minla
from .ordering import check_states, cross_weight, solve_block_order
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
    "run_trials",
]

# An exact block-order search may use at most 2^DEFAULT_ITEM_CAP states.
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


@dataclass(slots=True)
class AlgoState:
    """Mutable per-trial state: permutation, components, costs, log.

    ``node_at`` and ``pos`` hold the permutation, edited in place by the
    ``rand`` engine; ``current`` returns an immutable snapshot of it.  The
    trials of one ``rand`` chunk share one ``parts``, which the engine
    merges once per event for all of them."""

    model: Model
    pi0: Permutation
    node_at: list[int]
    pos: list[int]
    parts: ComponentPartition
    move_cost: int = 0
    rearrange_cost: int = 0
    step_log: list[StepReport] = field(default_factory=list)
    collect_log: bool = True
    item_cap: int = DEFAULT_ITEM_CAP

    @classmethod
    def initial(
        cls, model: Model, pi0: Permutation, parts: ComponentPartition | None = None,
        **kwargs,
    ) -> "AlgoState":
        return cls(
            model=model,
            pi0=pi0,
            node_at=list(pi0.node_at),
            pos=list(pi0.pos_of),
            parts=ComponentPartition(len(pi0), model) if parts is None else parts,
            **kwargs,
        )

    @property
    def total_cost(self) -> int:
        return self.move_cost + self.rearrange_cost

    @property
    def events_done(self) -> int:
        """Events applied so far: each one merged two components."""
        return self.parts.n - self.parts.num_components

    @property
    def current(self) -> Permutation:
        return Permutation._trusted(tuple(self.node_at), tuple(self.pos))

    @current.setter
    def current(self, p: Permutation) -> None:
        self.node_at = list(p.node_at)
        self.pos = list(p.pos_of)


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
    Ties resolve to the lexicographically smallest node sequence.  Singletons
    keep their reference order, so only the multi-node blocks are searched;
    the state cap is checked before any weight is built.
    """
    multi = [i for i, seq in enumerate(seqs) if len(seq) > 1]
    singles = sorted(
        (sorted_pos[i][0], seq[0]) for i, seq in enumerate(seqs) if len(seq) == 1
    )
    check_states(len(multi), len(singles), cap)
    w = [
        [0 if i == j else cross_weight(sorted_pos[i], sorted_pos[j]) for j in multi]
        for i in multi
    ]
    # Block nodes left of each singleton, from the block's sorted positions:
    # the cost of the singleton before the block; the rest is the reverse.
    w_sb = [[bisect_left(sorted_pos[i], p) for i in multi] for p, _ in singles]
    w_bs = [[len(seqs[i]) - row[c] for row in w_sb] for c, i in enumerate(multi)]
    keys = [seqs[i][0] for i in multi] + [v for _, v in singles]
    cross, order = solve_block_order(w, keys, cap, w_sb, w_bs)
    m = len(multi)
    node_at: list[int] = []
    for idx in order:
        if idx < m:
            node_at.extend(seqs[multi[idx]])
        else:
            node_at.append(singles[idx - m][1])
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
    order is optimized by :func:`_order_blocks`.  Ties resolve to the
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
    state.move_cost += cost
    if state.collect_log:
        state.step_log.append(StepReport(state.events_done - 1, cost, 0, "closest", 1, 1))
    return state


def _write_window(state: AlgoState, lo: int, window: list[int]) -> None:
    """Lay ``window`` out from position ``lo`` and refresh those positions."""
    state.node_at[lo : lo + len(window)] = window
    pos = state.pos
    for i, v in enumerate(window, lo):
        pos[v] = i


def _check_full(state: AlgoState) -> None:
    """:func:`is_minla` on the whole permutation, naming the first bad component."""
    if not is_minla(state.current, state.parts, state.model):
        root = state.parts.misplaced_root(state.node_at)
        raise InvariantError(state.events_done - 1, root, state.parts.size_of(root))


def _rand_event(
    parts: ComponentPartition, states: Sequence[AlgoState],
    rngs: Sequence[random.Random], event: RevealEvent,
) -> None:
    """Apply one ``rand`` event to every trial of a chunk sharing ``parts``.

    What the trace fixes is read once: the merging components, their sizes
    and (for lines) paths, the merged path and the coin denominators; then
    ``parts`` merges once.  Each trial draws its coins: the x-side block
    moves with probability ``zl / (xl + zl)``, even when the blocks are
    already adjacent, and for lines the merged path is laid forward or
    reversed with probability proportional to the swap cost of the other
    filling.  Only the window from the left block's start to the right
    block's end is rewritten (``between + pair`` when the left block moves
    right, ``pair + between`` otherwise) and exactly that window is checked.
    Both orientation costs come in O(1) from the block positions: each
    block reads in path order or reversed, and the merged path puts x first.
    """
    u, v = event.u, event.v
    index = states[0].events_done
    ru, rv = parts.find(u), parts.find(v)
    lines = parts.model is Model.LINES
    # x_keys/z_keys: nodes whose least position is where the block starts
    # (a path's two ends, a clique's members).
    if lines:
        x_path, z_path = parts.path_of(ru), parts.path_of(rv)
        xl, zl = len(x_path), len(z_path)
        # The merged path runs through x's path (u last) into z's (v first).
        merged = list(x_path if x_path[-1] == u else x_path[::-1]) + list(
            z_path if z_path[0] == v else z_path[::-1]
        )
        merged_rev = merged[::-1]
        x_keys, z_keys = (x_path[0], x_path[-1]), (z_path[0], z_path[-1])
        inv_x_max, inv_z_max = xl * (xl - 1) // 2, zl * (zl - 1) // 2
        total_pairs = (xl + zl) * (xl + zl - 1) // 2
    else:
        x_keys, z_keys = tuple(parts.nodes_of(ru)), tuple(parts.nodes_of(rv))
        xl, zl = len(x_keys), len(z_keys)
    denom = xl + zl
    parts.merge(u, v)
    misplaced_root = parts.misplaced_root
    for state, rng in zip(states, rngs):
        pos, node_at = state.pos, state.node_at
        xs = min(map(pos.__getitem__, x_keys))
        zs = min(map(pos.__getitem__, z_keys))
        x_moved = rng.randrange(denom) < zl
        if xs < zs:
            lo, left_end, right_start, hi = xs, xs + xl, zs, zs + zl
        else:
            lo, left_end, right_start, hi = zs, zs + zl, xs, xs + xl
        if lines:
            cost_forward = (
                (0 if pos[u] == xs + xl - 1 else inv_x_max)
                + (0 if pos[v] == zs else inv_z_max)
                + (0 if xs < zs else xl * zl)
            )
            cost_reversed = total_pairs - cost_forward
            forward = rng.randrange(total_pairs) < cost_reversed
            pair = merged if forward else merged_rev
            rearrange = cost_forward if forward else cost_reversed
        else:
            pair = node_at[lo:left_end] + node_at[right_start:hi]
            rearrange = 0
        between = node_at[left_end:right_start]
        if x_moved == (xs < zs):  # the left block moves right
            move = (left_end - lo) * len(between)
            _write_window(state, lo, between + pair)
        else:
            move = (hi - right_start) * len(between)
            _write_window(state, lo, pair + between)
        root = misplaced_root(node_at, lo, hi)
        if root is not None:
            raise InvariantError(index, root, parts.size_of(root))
        state.move_cost += move
        state.rearrange_cost += rearrange
        if state.collect_log:
            choice = "move_x" if x_moved else "move_z"
            num = zl if x_moved else xl
            den, rcoin = denom, None
            if lines:
                rcoin = RearrangeCoin(cost_reversed, cost_forward, total_pairs)
                choice += "+forward" if forward else "+reversed"
                num *= cost_reversed if forward else cost_forward
                den *= total_pairs
            g = gcd(num, den)
            state.step_log.append(
                StepReport(index, move, rearrange, choice, num // g, den // g,
                           CoinWeights(zl, xl, denom), rcoin)
            )


def rand_step(state: AlgoState, event: RevealEvent, rng: random.Random) -> AlgoState:
    """Apply one ``rand`` event to one trial: the lockstep engine with a
    chunk of one.  ``rand_clique_step`` and ``rand_line_step`` name it for
    the two models."""
    _rand_event(state.parts, [state], [rng], event)
    return state


rand_clique_step = rand_line_step = rand_step

# Trials stepped in lockstep over one partition.  Bounds what a chunk holds
# at once: a ``random.Random`` alone is about 2.5 KB.
TRIAL_CHUNK = 256


def run_trials(
    trace: RevealTrace, seeds: Iterable[int], collect_log: bool = False,
    validate: bool = True,
) -> Iterator[AlgoState]:
    """Replay ``trace`` with ``rand`` once per seed and yield each trial's
    final state, in seed order.

    The trace is validated once.  Trials run in chunks of
    :data:`TRIAL_CHUNK` that share one :class:`ComponentPartition`, so each
    event merges components once per chunk.  Each step checks exactly the
    window it rewrote and :func:`is_minla` checks every final permutation
    before its state is yielded; a failure raises :class:`InvariantError`.
    """
    if validate:
        validate_trace(trace)
    seeds = iter(seeds)
    while chunk := list(islice(seeds, TRIAL_CHUNK)):
        parts = ComponentPartition(trace.n, trace.model)
        states = [
            AlgoState.initial(trace.model, trace.pi0, parts, collect_log=collect_log)
            for _ in chunk
        ]
        rngs = list(map(random.Random, chunk))
        for event in trace.events:
            _rand_event(parts, states, rngs, event)
        for state in states:
            _check_full(state)
            yield state


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

    Deterministic for a given (algo, trace, seed).  ``rand`` is
    :func:`run_trials` with one seed; each ``det`` step is checked by
    :func:`is_minla`.  A failure raises :class:`InvariantError`.
    """
    if algo == "rand":
        return next(run_trials(trace, (seed,), collect_log, validate))
    if algo != "det":
        raise ValueError(f"unknown algorithm {algo!r}")
    if validate:
        validate_trace(trace)
    state = AlgoState.initial(
        trace.model, trace.pi0, collect_log=collect_log, item_cap=item_cap
    )
    for event in trace.events:
        det_step(state, event)
        _check_full(state)
    return state
