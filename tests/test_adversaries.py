import itertools
import random
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import minla.adversaries
from conftest import replay_components
from minla import (
    AlgoState,
    ComponentPartition,
    ConfigError,
    MiddleLineAdversary,
    Model,
    Permutation,
    ProtocolError,
    RevealEvent,
    RevealTrace,
    TreeAdversaryConfig,
    det_step,
    dp_opt,
    duel,
    kendall_tau,
    random_trace,
    run,
    tree_adversary,
    validate_trace,
)
from minla.adversaries import NODE_BOUND


class TestTreeAdversary:
    def leaf_order(self, trace):
        parts = replay_components(trace, trace.k)
        [path] = parts.nodes.values()
        return list(path)

    def test_depth_one(self):
        trace = tree_adversary(TreeAdversaryConfig(q=1, seed=0))
        assert trace.k == 1

    def test_depth_two_event_pattern(self):
        trace = tree_adversary(TreeAdversaryConfig(q=2, seed=7))
        leaves = self.leaf_order(trace)
        expected = [
            (leaves[0], leaves[1]),
            (leaves[2], leaves[3]),
            (leaves[1], leaves[2]),
        ]
        assert [(e.u, e.v) for e in trace.events] == expected

    def test_traces_validate_and_end_in_sampled_path(self):
        for q in (1, 2, 3, 4):
            for seed in range(5):
                trace = tree_adversary(TreeAdversaryConfig(q=q, seed=seed))
                validate_trace(trace)
                n = 1 << q
                assert trace.k == n - 1
                rng = random.Random(seed)
                leaves = list(range(n))
                rng.shuffle(leaves)
                assert self.leaf_order(trace) == leaves

    def test_level_one_spells_the_target_path(self):
        # Each level's joins come in subtree order, so the first n/2 events,
        # read as ordered pairs, list the final path's nodes in order.
        for q in range(1, 7):
            trace = tree_adversary(TreeAdversaryConfig(q=q, seed=q))
            level_one = trace.events[: trace.n // 2]
            assert [v for ev in level_one for v in (ev.u, ev.v)] == self.leaf_order(trace)

    def test_levels_merge_equal_sizes(self):
        q = 4
        trace = tree_adversary(TreeAdversaryConfig(q=q, seed=3))
        parts = replay_components(trace, 0)
        idx = 0
        for level in range(1, q + 1):
            size = 1 << (level - 1)
            for _ in range(1 << (q - level)):
                ev = trace.events[idx]
                assert len(parts.nodes[parts.find(ev.u)]) == size
                assert len(parts.nodes[parts.find(ev.v)]) == size
                parts.merge(ev.u, ev.v)
                idx += 1

    def test_opt_closed_form(self):
        # one final path: the optimum is the cheaper of its two orientations
        for seed in range(6):
            trace = tree_adversary(TreeAdversaryConfig(q=3, seed=seed))
            leaves = self.leaf_order(trace)
            as_path = Permutation(leaves)
            expected = min(
                kendall_tau(trace.pi0, as_path),
                kendall_tau(trace.pi0, Permutation(leaves[::-1])),
            )
            opt = dp_opt(trace)
            assert opt.cost == expected
            n = trace.n
            assert opt.cost <= n * (n - 1) // 2

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            tree_adversary(TreeAdversaryConfig(q=0, seed=1))


class TestMiddleLineAdversary:
    def test_first_event_joins_middle_neighbors(self):
        adv = MiddleLineAdversary(5)
        ev = adv.next_event(Permutation.identity(5))
        assert (ev.u, ev.v) == (1, 3)

    def test_requires_odd_n(self):
        for bad in (4, 3, 0):
            with pytest.raises(ConfigError):
                MiddleLineAdversary(bad)

    def test_protocol_error_on_infeasible_permutation(self):
        adv = MiddleLineAdversary(5)
        adv.next_event(Permutation.identity(5))
        # grown component {1, 3} is not contiguous in the identity
        with pytest.raises(ProtocolError):
            adv.next_event(Permutation.identity(5))

    @pytest.mark.parametrize("arrangements, side", [
        (("2 1 3 0 4", "2 0 1 3 4"), "left"),
        (("0 1 3 2 4", "0 1 3 4 2"), "right"),
    ])
    def test_side_exhausted_before_the_duel_ends(self, arrangements, side):
        # n = 5, x = 2: after the first event (1, 3), an arrangement that
        # puts x on the same side twice runs that side out of nodes.
        adv = MiddleLineAdversary(5)
        adv.next_event(Permutation.identity(5))
        first, second = map(Permutation.from_text, arrangements)
        adv.next_event(first)
        with pytest.raises(ProtocolError, match=f"{side} side exhausted before the duel ended"):
            adv.next_event(second)
        assert adv.sides == [side[0].upper()] * 2

    def test_duel_meets_alternation_floor(self):
        for n in (5, 9, 13):
            report = duel(n)
            assert report.induced_trace.k == n - 2
            assert report.alternations >= (n - 3) // 2
            assert report.ratio >= 1

    def test_induced_trace_replays_identically(self):
        report = duel(9)
        validate_trace(report.induced_trace)
        replay = run("det", report.induced_trace)
        assert replay.total_cost == report.algo_cost

    def test_final_partition_shape(self):
        report = duel(7)
        parts = replay_components(report.induced_trace, report.induced_trace.k)
        sizes = sorted(map(len, parts.nodes.values()))
        assert sizes == [1, 6]


class ReferenceMiddleLineAdversary:
    """The middle-line adversary written out with one field per end and a
    mirrored branch per side, each with its own exhaustion check: a literal
    oracle for :class:`MiddleLineAdversary`, which grows either end by one rule."""

    def __init__(self, n):
        self.n = n
        self.sides = []
        self.x = self._left_end = self._right_end = n // 2

    def next_event(self, current):
        if self._right_end - self._left_end == self.n - 1:
            return None
        if self._left_end == self._right_end:
            ev = RevealEvent(self.x - 1, self.x + 1)
            self._left_end, self._right_end = self.x - 1, self.x + 1
        else:
            side = self._observe_side(current)
            self.sides.append(side)
            if side == "L":
                nxt = self._left_end - 1
                if nxt < 0:
                    raise ProtocolError("left side exhausted before the duel ended")
                ev = RevealEvent(nxt, self._left_end)
                self._left_end = nxt
            else:
                nxt = self._right_end + 1
                if nxt >= self.n:
                    raise ProtocolError("right side exhausted before the duel ended")
                ev = RevealEvent(nxt, self._right_end)
                self._right_end = nxt
        return ev

    def _observe_side(self, current):
        pos = current.pos_of
        grown = range(self._left_end, self._right_end + 1)
        block = [pos[v] for v in grown if v != self.x]
        lo, hi = min(block), max(block)
        if hi - lo + 1 != len(block):
            raise ProtocolError("opposing permutation does not keep the grown "
                                "component contiguous")
        return "L" if pos[self.x] < lo else "R"


def _outcome(adv, current):
    """The adversary's next event, or the type and text of what it raised."""
    try:
        return adv.next_event(current)
    except ProtocolError as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(5, 14, 2))
    def test_every_side_sequence(self, n):
        # The grown block is tracked from the events alone.  Before each
        # adaptive request the arrangement keeps it contiguous (turned on
        # every other step) with x on the scripted side, the untouched nodes
        # below it in front and those above it behind.  A script with more
        # than n // 2 - 1 steps on one side runs that side out of nodes, so
        # every script ends in None, after n - 2 events, or in an error.
        x = n // 2
        for script in itertools.product("LR", repeat=n - 3):
            got, want = MiddleLineAdversary(n), ReferenceMiddleLineAdversary(n)
            current = Permutation.identity(n)
            lo = hi = x
            # Neither the first request nor the closing None reads a side.
            for step, side in enumerate([None, *script, None]):
                if side is not None:
                    block = [v for v in range(lo, hi + 1) if v != x]
                    if step % 2:
                        block.reverse()
                    block = [x, *block] if side == "L" else [*block, x]
                    current = Permutation([*range(lo), *block, *range(hi + 1, n)])
                a, b = _outcome(got, current), _outcome(want, current)
                assert a == b, (script, step)
                assert got.sides == want.sides
                if not isinstance(a, RevealEvent):
                    assert (a is None) == (step == n - 2)
                    break
                lo, hi = min(lo, a.u, a.v), max(hi, a.u, a.v)
            else:
                pytest.fail(f"{script} did not end")

    @pytest.mark.parametrize("n", range(5, 42, 2))
    def test_det_duel(self, n):
        adv = ReferenceMiddleLineAdversary(n)
        pi0 = Permutation.identity(n)
        state = AlgoState.initial(pi0, ComponentPartition(n, Model.LINES))
        events = []
        while (ev := adv.next_event(state.current)) is not None:
            events.append(ev)
            det_step(state, ev)
        induced = RevealTrace(model=Model.LINES, n=n, pi0=pi0, events=tuple(events))
        report = duel(n)
        assert report.induced_trace == induced
        assert report.sides == tuple(adv.sides)
        assert (report.algo_cost, report.opt_cost) == (state.total_cost, dp_opt(induced).cost)


class TestRandomTrace:
    def test_single_node(self):
        trace = random_trace(Model.LINES, 1, seed=1)
        assert trace.k == 0

    def test_deterministic_given_seed(self):
        a = random_trace(Model.CLIQUES, 7, seed=42)
        b = random_trace(Model.CLIQUES, 7, seed=42)
        assert a == b

    def test_sweep_validates(self):
        rng = random.Random(33)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(500):
                n = rng.randint(1, 10)
                k = rng.randint(0, n - 1)
                trace = random_trace(model, n, seed=rng.randrange(1 << 30), events=k)
                validate_trace(trace)
                assert trace.k == k

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_non_positive_n(self, n):
        with pytest.raises(ConfigError, match=f"n must be positive, got {n}"):
            random_trace(Model.CLIQUES, n, seed=1)

    def test_rejects_bad_event_count(self):
        with pytest.raises(ConfigError):
            random_trace(Model.LINES, 4, seed=1, events=4)


class TestNodeBound:
    """Each generator checks its size against ``NODE_BOUND`` before it builds
    anything: past the bound it raises at once, at the bound it starts."""

    @pytest.fixture(autouse=True)
    def no_building(self, monkeypatch):
        # The random generators' first step is their seeded draw.
        def built(seed):
            raise AssertionError("the generator started building")

        monkeypatch.setattr(minla.adversaries, "random", SimpleNamespace(Random=built))

    @pytest.mark.parametrize("past", [NODE_BOUND + 1, 1 << 62], ids=["bound+1", "2^62"])
    @pytest.mark.parametrize("build", [
        lambda n: random_trace(Model.LINES, n, seed=0),
        lambda n: tree_adversary(TreeAdversaryConfig(q=(n - 1).bit_length(), seed=0)),
        lambda n: MiddleLineAdversary(n | 1),
    ], ids=["random", "tree", "middle-line"])
    def test_refused_before_allocation(self, build, past):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"must be at most {NODE_BOUND}, got"):
                build(past)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_the_bound_itself_is_accepted(self):
        for start in (
            lambda: random_trace(Model.CLIQUES, NODE_BOUND, seed=0),
            lambda: tree_adversary(TreeAdversaryConfig(q=NODE_BOUND.bit_length() - 1, seed=0)),
        ):
            with pytest.raises(AssertionError, match="started building"):
                start()
        assert MiddleLineAdversary(NODE_BOUND - 1).x == NODE_BOUND // 2 - 1


_NOT_INTS = pytest.mark.parametrize(
    "size", [7.0, True, np.int64(7), "7"], ids=["float", "bool", "numpy", "str"]
)


def _refused(name, size):
    return pytest.raises(TypeError, match=rf"^{name} must be an int, got {re.escape(repr(size))}$")


class TestSizesArePlainInts:
    """Each generator refuses a size that is not a plain int before its range
    checks, with a TypeError naming the argument, as a partition refuses
    such an n."""

    @_NOT_INTS
    def test_middle_line_n(self, size):
        for build in (MiddleLineAdversary, duel):
            with _refused("n", size):
                build(size)

    @_NOT_INTS
    def test_tree_depth(self, size):
        with _refused("tree depth q", size):
            tree_adversary(TreeAdversaryConfig(q=size, seed=1))

    @_NOT_INTS
    def test_random_trace_n(self, size):
        for model in Model:
            with _refused("n", size):
                random_trace(model, size, seed=1)

    @_NOT_INTS
    def test_random_trace_events(self, size):
        for model in Model:
            with _refused("events", size):
                random_trace(model, 8, seed=1, events=size)
