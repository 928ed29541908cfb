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

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

from .errors import InstanceMismatchError, InvariantError
from .ordering import solve_block_order, solve_block_orders
from .perm import Permutation, count_inversions, kendall_tau
from .trace import ComponentPartition, Model, RevealEvent, RevealTrace

__all__ = [
    "AlgoState",
    "closest_feasible",
    "det_step",
    "rand_step",
    "run",
    "run_trials",
]


@dataclass(slots=True)
class AlgoState:
    """Mutable per-trial state: components, costs and the arrangement.

    A ``rand`` trial keeps no permutation and reads pi0 only to start.
    Each component root has a pi0 position ``slot[root]``: a singleton's
    own, and a merge keeps the staying block's.  The mover lands beside
    the staying block and no other pair of blocks changes order, so the
    blocks stand in the order of their slots.  ``slot_sizes`` holds each
    component's size at its slot, 0 elsewhere; ``left_end[root]`` (lines)
    is the path end laid out first, ``blocks[root]`` (cliques) the block's
    node sequence.  ``current`` lays the arrangement out on request; the
    final check reads only these fields (:func:`_check_full`).  ``det``
    keeps its arrangement in ``fixed`` (``None`` while at pi0) and pays
    from ``current``, so it may follow ``rand`` steps; ``rand`` refuses a
    state that ``det`` has stepped.  :meth:`initial` starts at pi0 over a new
    all-singleton partition; only such a state steps, and :func:`run` and
    :func:`run_trials` return finished states over the trace's read-only replay."""

    pi0: Permutation
    parts: ComponentPartition
    slot: list[int]
    slot_sizes: list[int]
    left_end: list[int] | None
    blocks: list[tuple[int, ...] | None] | None
    fixed: Permutation | None = None
    move_cost: int = 0
    rearrange_cost: int = 0

    @classmethod
    def initial(cls, pi0: Permutation, model: Model) -> "AlgoState":
        n, lines = len(pi0), model is Model.LINES
        return cls(
            pi0=pi0,
            parts=ComponentPartition(n, model),
            slot=list(pi0.pos_of),
            slot_sizes=[1] * n,
            left_end=list(range(n)) if lines else None,
            blocks=None if lines else [(v,) for v in range(n)],
        )

    @property
    def total_cost(self) -> int:
        return self.move_cost + self.rearrange_cost

    @property
    def events_done(self) -> int:
        """Events applied so far: each one merged two components."""
        return self.parts.n - len(self.parts.nodes)

    @property
    def current(self) -> Permutation:
        if self.fixed is not None:
            return self.fixed
        return Permutation(_layout(self))


def _layout(state: AlgoState) -> list[int]:
    """A ``rand`` trial's arrangement: the blocks in the order of their
    slots, each path from its left end, each clique as its recorded
    sequence."""
    nodes = state.parts.nodes
    # Slots are distinct positions, so the key alone fixes the order.
    roots = sorted(nodes, key=state.slot.__getitem__)
    if state.left_end is None:
        return [v for root in roots for v in state.blocks[root]]
    node_at: list[int] = []
    for root in roots:
        path = nodes[root]
        node_at.extend(path if path[0] == state.left_end[root] else path[::-1])
    return node_at


def _component_block(nodes: Sequence[int], pos0: Sequence[int],
                     lines: bool) -> tuple[list[int], int]:
    """A component's nodes as :func:`closest_feasible` lays them out, and the
    pairs the sequence inverts against the reference positions: a clique in
    pi0 order, a path in the orientation that inverts fewer pairs, ties to
    the lexicographically smaller sequence."""
    if not lines:
        return sorted(nodes, key=pos0.__getitem__), 0
    fwd = count_inversions([pos0[v] for v in nodes])
    rev = len(nodes) * (len(nodes) - 1) // 2 - fwd
    if fwd < rev or (fwd == rev and tuple(nodes) < tuple(nodes[::-1])):
        return list(nodes), fwd
    return list(nodes[::-1]), rev


def closest_feasible(pi0: Permutation, parts: ComponentPartition) -> tuple[int, Permutation]:
    """The feasible permutation for ``parts`` closest to ``pi0``, under the
    partition's own model, with its distance from ``pi0``.

    Exact: component-internal layouts are fixed first (cliques take the
    pi0-induced node order, lines the cheaper orientation), then the block
    order is optimized by :func:`solve_block_order`, a batch of one, over
    the components' blocks in root order and pi0's positions.  The
    distance is that order's cross cost plus the pairs each path inverts.
    Ties resolve to the lexicographically smallest node sequence, so the
    target, and ``det``'s cost, depend on node labels, not on pi0 alone.
    """
    if len(pi0) != parts.n:
        raise InstanceMismatchError(f"permutation of {len(pi0)} nodes, partition of {parts.n}")
    pos0, lines = pi0.pos_of, parts.model is Model.LINES
    blocks = [_component_block(nodes, pos0, lines) for nodes in parts.nodes.values()]
    cross, node_at = solve_block_order([seq for seq, _ in blocks], pos0)
    return cross + sum(inverted for _, inverted in blocks), Permutation(node_at)


def _check_full(state: AlgoState) -> None:
    """A ``rand`` state's final check, naming the first bad component in
    root order: each clique block must hold exactly its component's nodes
    and each path's left end be a path end.  :func:`_layout` puts those
    blocks and oriented paths side by side, so ``is_minla`` accepts it."""
    parts, left_end, blocks = state.parts, state.left_end, state.blocks
    if left_end is not None:
        for root, path in parts.nodes.items():
            if left_end[root] != path[0] and left_end[root] != path[-1]:
                raise InvariantError(state.events_done - 1, root, len(path))
    else:
        for root, nodes in parts.nodes.items():
            if len(blocks[root]) != len(nodes) or not set(blocks[root]).issuperset(nodes):
                raise InvariantError(state.events_done - 1, root, len(nodes))


def det_step(state: AlgoState, event: RevealEvent) -> AlgoState:
    """Apply one event deterministically: move to the feasible permutation
    closest to the initial one, paying the distance from the state's
    current arrangement, which ``rand`` steps may have laid out.  The block
    order is solved as a batch of one (:func:`run` batches a whole trace's),
    and ties go by node label, as :func:`closest_feasible` breaks them.
    ``merge`` rejects a bad event (out of range, self, joined, inner path
    node) before the state changes; the new arrangement is walked as
    :func:`~minla.oracle.is_minla` walks it (else :class:`InvariantError`)."""
    return _det_move(state, event)


def _det_move(state: AlgoState, event: RevealEvent,
              target: Permutation | None = None) -> AlgoState:
    """:func:`det_step`, given its ``target`` if it was solved ahead."""
    # Every swap is charged, so a state that has paid nothing is at pi0.
    before = state.current if state.total_cost else state.pi0
    state.parts.merge(event.u, event.v)
    if target is None:
        _, target = closest_feasible(state.pi0, state.parts)
    state.move_cost += kendall_tau(before, target)
    state.fixed = target
    if (root := state.parts.misplaced_root(target.node_at)) is not None:
        raise InvariantError(state.events_done - 1, root, len(state.parts.nodes[root]))
    return state


def _coin_rows(rows: Iterable[tuple]) -> list[tuple]:
    """Replay rows as :func:`_step_rows` reads them: each coin's bound and bit
    width put in, and the orientation cost terms C(xl, 2), C(zl, 2), xl * zl."""
    return [(u, v, ru, rv, xl, zl, xl + zl, (xl + zl).bit_length(), x_ends, z_ends, ends,
             (pairs := (xl + zl) * (xl + zl - 1) // 2), pairs.bit_length(),
             xl * (xl - 1) // 2, zl * (zl - 1) // 2, xl * zl)
            for u, v, ru, rv, xl, zl, x_ends, z_ends, ends in rows]


def _step_rows(
    state: AlgoState, rows: Sequence[tuple], rng: random.Random, index: int
) -> None:
    """Apply :func:`_coin_rows` rows, the first being event ``index``, to
    one ``rand`` trial.

    The rows fix the merging components, their sizes, path ends and coin
    constants.  Each step checks in O(1) that both components' slots hold
    their sizes and, for lines, that both left ends are path ends (else
    :class:`InvariantError`).  It then draws its coins: x's block moves
    with probability ``zl / (xl + zl)``, even when adjacent, and a merged
    path is laid forward or reversed with probability proportional to the
    swap cost of the other filling.  Per :class:`AlgoState`, x's block is
    left of z's exactly when x's slot comes first, and the mover jumps the
    components whose slots lie between the two.  A coin with bound b draws
    ``getrandbits(b.bit_length())`` (its coin row holds both) until the
    word is below b, as ``random.Random.randrange(b)`` does.
    """
    slot, sizes = state.slot, state.slot_sizes
    left_end, blocks = state.left_end, state.blocks
    lines = left_end is not None
    bits = rng.getrandbits
    move_cost = rearrange_cost = 0
    for index, (u, v, ru, rv, xl, zl, denom, k_move, x_ends, z_ends, ends, total_pairs,
                k_orient, x_pairs, z_pairs, cross) in enumerate(rows, index):
        a, b = slot[ru], slot[rv]
        if lines:
            x_left, z_left = left_end[ru], left_end[rv]
        if sizes[a] != xl or lines and x_left not in x_ends:
            raise InvariantError(index, ru, xl)
        if sizes[b] != zl or lines and z_left not in z_ends:
            raise InvariantError(index, rv, zl)
        r = bits(k_move)
        while r >= denom:
            r = bits(k_move)
        x_moved = r < zl
        between = sum(sizes[a + 1 : b]) if a < b else sum(sizes[b + 1 : a])
        if x_moved:
            move_cost += xl * between
            sizes[a], sizes[b] = 0, denom
            slot[ru] = b
        else:
            move_cost += zl * between
            sizes[a], sizes[b] = denom, 0
        if lines:
            cost_forward = (
                (x_pairs if x_left == u else 0)
                + (0 if z_left == v else z_pairs)
                + (0 if a < b else cross)
            )
            cost_reversed = total_pairs - cost_forward
            r = bits(k_orient)
            while r >= total_pairs:
                r = bits(k_orient)
            if r < cost_reversed:
                left_end[ru] = ends[0]
                rearrange_cost += cost_forward
            else:
                left_end[ru] = ends[1]
                rearrange_cost += cost_reversed
        else:
            x_block, z_block = blocks[ru], blocks[rv]
            blocks[ru] = x_block + z_block if a < b else z_block + x_block
            blocks[rv] = None
    state.move_cost += move_cost
    state.rearrange_cost += rearrange_cost


def rand_step(state: AlgoState, event: RevealEvent, rng: random.Random) -> AlgoState:
    """Apply one ``rand`` event to a state of either model built by
    :meth:`AlgoState.initial`: merge its own partition, which rejects a bad
    event (out of range, self, joined, inner path node) before the state
    changes, and step the resulting one-row table with the code
    :func:`run_trials` runs.  A finished state's read-only replay and a state
    that ``det`` has moved (kept in ``fixed``) raise :class:`ValueError` first."""
    if state.fixed is not None:
        raise ValueError("rand_step cannot step a state that det_step has moved")
    index = state.events_done
    _step_rows(state, _coin_rows((state.parts.merge(event.u, event.v),)), rng, index)
    return state


def run_trials(trace: RevealTrace, seeds: Iterable[int]) -> Iterator[AlgoState]:
    """Replay ``trace`` with ``rand`` once per seed and yield each trial's
    final state, in seed order.

    Each trial steps alone over the trace's
    :attr:`~minla.trace.RevealTrace.replay`, from one generator reseeded per
    trial.  Seeds are exactly ints (else :class:`TypeError` before a draw), and
    for a seed ``s`` the base class's ``seed(s)`` gives ``random.Random(s)``'s
    stream (``Random.seed`` adds only a reset of the gauss cache, which no
    coin reads).  Each step checks its trial's state in O(1), and each final
    state is checked per component without a layout (:func:`_check_full`)
    before it is yielded.  A failure raises :class:`InvariantError`.
    The yielded states share the replay's read-only partition and cannot step.
    """
    pi0, parts, rows = trace.pi0, trace.replay.final, _coin_rows(trace.replay.rows)
    start = AlgoState.initial(pi0, trace.model)
    slot, sizes, left_end, blocks = start.slot, start.slot_sizes, start.left_end, start.blocks
    # Seeded, so that building it reads no OS entropy; each trial reseeds it.
    rng = random.Random(0)
    reseed = super(random.Random, rng).seed
    for seed in seeds:
        if type(seed) is not int:
            raise TypeError(f"seed must be an int, got {seed!r}")
        reseed(seed)
        # Blocks are tuples, so a shallow copy is the trial's own.
        state = AlgoState(pi0, parts, slot[:], sizes[:],
                          left_end and left_end[:], blocks and blocks[:])
        _step_rows(state, rows, rng, 0)
        _check_full(state)
        yield state


def _words(script: Iterable[int]) -> SimpleNamespace:
    """A word source: ``getrandbits(k)`` appends ``k`` to its ``widths`` and
    returns the next word of ``script``, raising StopIteration past its end."""
    script, widths = iter(script), []

    def getrandbits(k: int) -> int:
        widths.append(k)
        return next(script)

    return SimpleNamespace(getrandbits=getrandbits, widths=widths)


def _step_law(state: AlgoState, row: tuple, index: int) -> list[tuple[AlgoState, Fraction]]:
    """Every outcome of one ``_step_rows`` step of coin row ``row`` (event
    ``index``) from ``state``, which stays as it is, each with its probability.

    All-zero words, which every draw accepts, give each draw's width from
    the engine's ``getrandbits`` calls.  Each tuple of one word per draw
    steps a copy; one the step reads past holds a rejected word and is
    dropped.  No draw's bound reads another's word, so every accepted tuple
    weighs one over their number."""

    def step(source: SimpleNamespace) -> AlgoState:
        after = replace(state, slot=state.slot[:], slot_sizes=state.slot_sizes[:],
                        left_end=state.left_end and state.left_end[:],
                        blocks=state.blocks and state.blocks[:])
        _step_rows(after, (row,), source, index)
        return after

    zeros = _words(itertools.repeat(0))
    step(zeros)
    outcomes = []
    for script in itertools.product(*(range(1 << k) for k in zeros.widths)):
        try:
            outcomes.append(step(_words(script)))
        except StopIteration:  # the step rejected a word
            pass
    return [(after, Fraction(1, len(outcomes))) for after in outcomes]


def _trace_law(trace: RevealTrace) -> dict[tuple[tuple[int, ...], int], Fraction]:
    """The exact law of ``rand``'s final (layout, total cost) on ``trace``:
    :func:`_step_law` folded over the replay rows from the initial state,
    equal states (slots, slot sizes, left ends or blocks, costs) merged
    after every step."""
    start = replace(AlgoState.initial(trace.pi0, trace.model), parts=trace.replay.final)
    law = {None: [start, Fraction(1)]}
    for index, row in enumerate(_coin_rows(trace.replay.rows)):
        stepped: dict = {}
        for state, p in law.values():
            for after, q in _step_law(state, row, index):
                key = (tuple(after.slot), tuple(after.slot_sizes),
                       tuple(after.left_end or after.blocks),
                       after.move_cost, after.rearrange_cost)
                stepped.setdefault(key, [after, 0])[1] += p * q
        law = stepped
    final: dict[tuple[tuple[int, ...], int], Fraction] = {}
    for state, p in law.values():
        key = (tuple(_layout(state)), state.total_cost)
        final[key] = final.get(key, 0) + p
    return final


def run(algo: str, trace: RevealTrace, seed: int = 0) -> AlgoState:
    """Replay every event of ``trace`` with the chosen algorithm and return
    the final state, which shares the trace's read-only replay and cannot
    step.  ``rand`` returns :func:`run_trials`' trial for ``seed``.  ``det``
    solves every step's block order, stated from the replay rows, in one
    :func:`~minla.ordering.solve_block_orders` call, then pays and checks
    each step on a private partition as :func:`det_step` does.  Merging each
    event again there is deliberate: that partition, not the replay the
    problems were read from, is what each target is checked against.

    Deterministic for a given (algo, trace, seed).  The seed is exactly
    an int (else :class:`TypeError`); ``det`` ignores it.  ``det`` checks every
    step's arrangement and ``rand`` every step and its final state (else
    :class:`InvariantError`).  ``det``'s cost depends on node labels, by
    :func:`closest_feasible`'s tie-break.
    """
    if algo not in ("det", "rand"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if type(seed) is not int:
        raise TypeError(f"seed must be an int, got {seed!r}")
    if algo == "rand":
        return next(run_trials(trace, (seed,)))
    state = AlgoState.initial(trace.pi0, trace.model)
    solved = solve_block_orders(_det_problems(trace))
    for event, (_, node_at) in zip(trace.events, solved):
        _det_move(state, event, Permutation(node_at))
    state.parts = trace.replay.final
    return state


def _det_problems(trace: RevealTrace) -> Iterator[tuple[list, Sequence[int]]]:
    """Each ``det`` step's block-order problem, its blocks and pi0's
    positions, read off the trace's replay rows with one block per root, in
    ascending order: a merge drops the absorbed root's block and re-lays x's
    block, turned to end at u, followed by z's, turned to start at v."""
    pos0, lines = trace.pi0.pos_of, trace.model is Model.LINES
    blocks = {v: [v] for v in range(trace.n)}
    for u, v, ru, rv, *_ in trace.replay.rows:
        x, z = blocks[ru], blocks.pop(rv)
        merged = (x if x[-1] == u else x[::-1]) + (z if z[0] == v else z[::-1])
        blocks[ru] = _component_block(merged, pos0, lines)[0]
        yield list(blocks.values()), pos0
