import copy
import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

import minla.algorithms
from conftest import (
    TRACE_SETTINGS,
    ScriptedRandom,
    closest_targets,
    det_spread,
    feasible_permutations,
    literal_minla,
    make_trace,
    mirror,
    reference_layout,
    reference_rand,
    relabel,
    replay_components,
    sorted_positions,
    stepped_state,
    valid_traces,
)
from minla import (
    AlgoState,
    CapacityError,
    ComponentPartition,
    InstanceMismatchError,
    InvariantError,
    Model,
    Permutation,
    RevealEvent,
    closest_feasible,
    det_step,
    is_minla,
    kendall_tau,
    derive_trial_seed,
    dp_opt,
    exhaustive_opt,
    rand_step,
    random_trace,
    run,
    run_trials,
    tree_adversary,
    TreeAdversaryConfig,
)
from minla.algorithms import (
    _check_full, _coin_rows, _component_block, _det_problems, _step_law, _trace_law, _words,
)
from minla.bench import _FREQUENCY_TRACES
from minla.ordering import solve_block_orders


def initial_state(model, pi0):
    return AlgoState.initial(pi0, ComponentPartition(len(pi0), model))


class TestDetStep:
    def test_already_feasible_costs_nothing(self):
        trace = make_trace(Model.CLIQUES, 4, [(0, 1)])
        result = run("det", trace)
        assert result.current == Permutation([0, 1, 2, 3])
        assert result.total_cost == 0

    def test_tie_breaks_lexicographically(self):
        trace = make_trace(Model.CLIQUES, 3, [(0, 2)])
        result = run("det", trace)
        # both [0,2,1] and [1,0,2] sit at distance 1; lexicographic rule wins
        assert result.current == Permutation([0, 2, 1])
        assert result.total_cost == 1

    def test_lines_can_return_home(self):
        trace = make_trace(Model.LINES, 4, [(1, 2), (0, 1)])
        result = run("det", trace)
        # after (0,1) the initial permutation is feasible again
        assert result.current == Permutation([0, 1, 2, 3])
        mid = run("det", make_trace(Model.LINES, 4, [(1, 2)]))
        second_step = result.move_cost - mid.move_cost
        assert second_step == kendall_tau(mid.current, Permutation([0, 1, 2, 3]))

    def test_closest_member_and_lex_order_vs_enumeration(self):
        rng = random.Random(11)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(25):
                n = rng.randint(2, 7)
                trace = random_trace(model, n, seed=rng.random())
                state = initial_state(model, trace.pi0)
                for ev in trace.events:
                    det_step(state, ev)
                    feasible = feasible_permutations(state.parts, model, n)
                    best = min(kendall_tau(trace.pi0, f) for f in feasible)
                    assert kendall_tau(trace.pi0, state.current) == best
                    lex_best = min(
                        f.node_at
                        for f in feasible
                        if kendall_tau(trace.pi0, f) == best
                    )
                    assert state.current.node_at == lex_best

    @TRACE_SETTINGS
    @given(valid_traces(max_n=6))
    def test_closest_feasible_matches_enumeration(self, trace):
        # Against every permutation feasible for the final partition: the
        # least distance from pi0, and the lexicographically smallest
        # permutation at that distance.
        parts = trace.replay.final
        distance, target = closest_feasible(trace.pi0, parts)
        feasible = {f.node_at: kendall_tau(trace.pi0, f)
                    for f in feasible_permutations(parts, trace.model, trace.n)}
        best = min(feasible.values())
        assert distance == best
        assert target.node_at == min(p for p, d in feasible.items() if d == best)

    @TRACE_SETTINGS
    @given(valid_traces(max_n=6))
    def test_det_step_matches_enumeration_along_the_trace(self, trace):
        # After every event of a whole trace: the least distance from pi0
        # of any feasible permutation, and the lexicographically smallest
        # permutation at that distance.
        state = initial_state(trace.model, trace.pi0)
        for ev, (best, tied) in zip(trace.events, closest_targets(trace)):
            det_step(state, ev)
            assert kendall_tau(trace.pi0, state.current) == best
            assert state.current.node_at == tied[0]

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    @pytest.mark.parametrize("node_at", [[0, 1, 2], [5, 0, 1, 2, 3, 4]])
    def test_closest_feasible_rejects_a_pi0_of_another_size(self, model, node_at):
        # The 6-node pi0 once came back as (0, identity(5)).
        parts = ComponentPartition(5, model)
        parts.merge(3, 4)
        with pytest.raises(InstanceMismatchError, match="permutation of"):
            closest_feasible(Permutation(node_at), parts)

    def test_closest_feasible_reports_its_distance(self):
        # The block order's cross cost plus each path's inverted pairs is
        # the target's distance from pi0, after every prefix of a trace.
        rng = random.Random(13)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(30):
                n = rng.randint(1, 24)
                trace = random_trace(model, n, seed=rng.random(), events=rng.randint(0, n - 1))
                order = list(range(n))
                rng.shuffle(order)
                for pi0 in (trace.pi0, Permutation(order)):
                    for k in range(trace.k + 1):
                        distance, target = closest_feasible(pi0, replay_components(trace, k))
                        assert distance == kendall_tau(pi0, target)

    def test_capacity_cap(self):
        # At the default budget of 2^22 states, 12 pairs and 1024 singletons
        # trip the cap; the 12th pair is merged by the step itself.
        state = initial_state(Model.CLIQUES, Permutation.identity(1048))
        for i in range(0, 22, 2):
            state.parts.merge(i, i + 1)
        with pytest.raises(
            CapacityError, match="12 multi-node components and 1024 singletons"
        ):
            det_step(state, RevealEvent(22, 23))

    def test_capacity_checked_before_weights(self, monkeypatch):
        # The weights must not be built for an over-cap input: 23 pairs and
        # 954 singletons, the last pair merged by the step itself.
        def no_weights(*args):
            raise AssertionError("weights built for an over-cap input")

        state = initial_state(Model.CLIQUES, Permutation.identity(1000))
        for i in range(0, 44, 2):
            state.parts.merge(i, i + 1)
        monkeypatch.setattr(minla.ordering, "_costs", no_weights)
        with pytest.raises(CapacityError):
            det_step(state, RevealEvent(44, 45))

    @pytest.mark.parametrize("n", [32, 40])
    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_full_traces_past_the_old_cap(self, model, n, monkeypatch):
        # Every step of a full trace, checked by is_minla inside run; each
        # step's target, from run's one batched solve, equals the plain
        # subset program wherever it has at most 16 components.
        compared = []

        def checked(problems):
            problems = list(problems)
            for (seqs, pos_of), result in zip(
                problems, solve_block_orders(problems), strict=True
            ):
                if len(seqs) <= 16:
                    assert result == reference_layout(seqs, sorted_positions(seqs, pos_of))
                    compared.append(len(seqs))
                yield result

        solve_block_orders = minla.algorithms.solve_block_orders
        monkeypatch.setattr(minla.algorithms, "solve_block_orders", checked)
        trace = random_trace(model, n, seed=n)
        result = run("det", trace)
        assert len(result.parts.nodes) == 1
        assert len(compared) == 16

    def test_triangle_bound_per_run(self):
        rng = random.Random(12)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(10):
                trace = random_trace(model, rng.randint(2, 10), seed=rng.random())
                state = initial_state(model, trace.pi0)
                farthest = 0
                for ev in trace.events:
                    det_step(state, ev)
                    farthest = max(farthest, kendall_tau(trace.pi0, state.current))
                assert state.total_cost <= trace.k * 2 * farthest


class TestDetSpread:
    """``det`` may break its ties any way: over every sequence of tied
    closest targets its cost spans ``det_spread``.  The library's
    lexicographic rule lies inside, and even the dearest sequence stays
    within 2(n - 1)·OPT, since a step pays at most D_{i-1} + D_i <= 2·OPT,
    where D_i is pi0's distance to step i's closest feasible arrangement."""

    @TRACE_SETTINGS
    @given(valid_traces(max_n=6))
    def test_det_lies_in_its_spread_within_the_bound(self, trace):
        cheapest, dearest = det_spread(trace)
        assert cheapest <= run("det", trace).total_cost <= dearest
        assert dearest <= 2 * (trace.n - 1) * dp_opt(trace).cost


class TestDetRun:
    """``run("det")`` solves every step's block order in one batched call,
    then pays and checks each step: it must equal a ``det_step`` loop."""

    @staticmethod
    def loop(trace):
        """A det_step loop over ``trace``: its state and target per step."""
        state = initial_state(trace.model, trace.pi0)
        targets = []
        for ev in trace.events:
            det_step(state, ev)
            targets.append(state.current)
        return state, targets

    def test_matches_a_det_step_loop(self, monkeypatch):
        solved = []
        solve_block_orders = minla.algorithms.solve_block_orders

        def recorded(problems):
            for result in solve_block_orders(problems):
                solved.append(Permutation(result[1]))
                yield result

        monkeypatch.setattr(minla.algorithms, "solve_block_orders", recorded)
        rng = random.Random(14)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(30):
                n = rng.randint(1, 24)
                events = rng.choice([None, rng.randint(0, n - 1)])
                trace = random_trace(model, n, seed=rng.random(), events=events)
                solved.clear()
                state = run("det", trace)
                expected, targets = self.loop(trace)
                assert solved == targets
                assert (state.move_cost, state.rearrange_cost) == (expected.move_cost, 0)
                assert state.current == expected.current

    @TRACE_SETTINGS
    @given(valid_traces())
    def test_carried_blocks_match_a_fresh_replay(self, trace):
        # run's problems carry each component's block across steps; every
        # step must state, root by root, the blocks of a partition replayed
        # to it, over pi0's positions.
        problems = list(_det_problems(trace))
        assert len(problems) == trace.k
        pos0, lines = trace.pi0.pos_of, trace.model is Model.LINES
        for i, (seqs, pos_of) in enumerate(problems, 1):
            parts = replay_components(trace, i)
            assert pos_of == pos0
            assert seqs == [_component_block(nodes, pos0, lines)[0]
                            for nodes in parts.nodes.values()]

    @TRACE_SETTINGS
    @given(valid_traces())
    def test_run_matches_the_loop_on_every_trace(self, trace):
        state = run("det", trace)
        expected, targets = self.loop(trace)
        solved = solve_block_orders(_det_problems(trace))
        assert [Permutation(node_at) for _, node_at in solved] == targets
        assert (state.move_cost, state.rearrange_cost) == (expected.move_cost, 0)
        assert state.current == expected.current

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_capacity_error_matches_the_loop(self, model, monkeypatch):
        # At a cap of 2^6 states a full trace at n = 24 trips the cap
        # part way; run raises what the loop raises at that event.
        monkeypatch.setattr(minla.ordering, "CAP_BITS", 6)
        trace = random_trace(model, 24, seed=5)
        state = initial_state(model, trace.pi0)
        with pytest.raises(CapacityError) as from_loop:
            for ev in trace.events:
                det_step(state, ev)
        assert 0 < state.events_done < trace.k
        with pytest.raises(CapacityError) as from_run:
            run("det", trace)
        assert str(from_run.value) == str(from_loop.value)


def _step_costs(state, event, rng):
    """Apply one ``rand`` step; returns its (move, rearrange) costs."""
    move, rearrange = state.move_cost, state.rearrange_cost
    rand_step(state, event, rng)
    return state.move_cost - move, state.rearrange_cost - rearrange


class TestRandCliqueStep:
    _PREFIX = make_trace(Model.CLIQUES, 5, [(3, 4)])

    def _paired_state(self):
        return stepped_state("rand", self._PREFIX, seed=0)

    def _law(self, event):
        return _trace_law(make_trace(Model.CLIQUES, 5, [(3, 4), event]))

    def test_singleton_moves_to_pair(self):
        state = self._paired_state()
        assert _step_costs(state, RevealEvent(0, 3), _words([0])) == (2, 0)
        assert state.current == Permutation([1, 2, 0, 3, 4])
        assert self._law((0, 3))[(1, 2, 0, 3, 4), 2] == Fraction(2, 3)

    def test_pair_moves_to_singleton(self):
        state = self._paired_state()
        assert _step_costs(state, RevealEvent(0, 3), _words([2])) == (4, 0)
        assert state.current == Permutation([0, 3, 4, 1, 2])
        assert self._law((0, 3))[(0, 3, 4, 1, 2), 4] == Fraction(1, 3)

    def test_adjacent_blocks_cost_nothing(self):
        # Either block may move; both draws land on pi0 at no cost.
        assert self._law((2, 3)) == {((0, 1, 2, 3, 4), 0): 1}

    def test_a_rejected_word_draws_again(self):
        # The move coin's bound is 3 in a 2-bit word: word 3 is drawn again.
        state = self._paired_state()
        assert _step_costs(state, RevealEvent(0, 3), _words([3, 2])) == (4, 0)
        with pytest.raises(StopIteration):
            rand_step(self._paired_state(), RevealEvent(0, 3), _words([3]))

    def test_cost_equals_distance(self):
        rng = random.Random(13)
        for _ in range(40):
            trace = random_trace(Model.CLIQUES, 6, seed=rng.random())
            state = initial_state(Model.CLIQUES, trace.pi0)
            step_rng = random.Random(rng.random())
            for ev in trace.events:
                before = state.current
                move, rearrange = _step_costs(state, ev, step_rng)
                assert (move, rearrange) == (kendall_tau(before, state.current), 0)

    def test_untouched_components_keep_relative_order(self):
        rng = random.Random(14)
        for _ in range(30):
            trace = random_trace(Model.CLIQUES, rng.randint(4, 10), seed=rng.random())
            state = initial_state(Model.CLIQUES, trace.pi0)
            step_rng = random.Random(rng.random())
            for ev in trace.events:
                parts = state.parts
                touched = {parts.find(ev.u), parts.find(ev.v)}
                bystanders = [r for r in parts.nodes if r not in touched]
                before = sorted(
                    bystanders,
                    key=lambda r: min(state.current.pos_of[v] for v in parts.nodes[r]),
                )
                members = {r: list(parts.nodes[r]) for r in bystanders}
                rand_step(state, ev, step_rng)
                after = sorted(
                    bystanders,
                    key=lambda r: min(state.current.pos_of[v] for v in members[r]),
                )
                assert before == after


class TestRandLineStep:
    _PREFIX = make_trace(Model.LINES, 5, [(0, 1), (2, 3), (3, 4)])

    def _figure_state(self):
        state = stepped_state("rand", self._PREFIX, seed=0)
        assert state.current == Permutation([0, 1, 2, 3, 4])
        return state

    def test_orientation_weights_reproduced(self):
        state = self._figure_state()
        assert _step_costs(state, RevealEvent(0, 2), _words([0, 0])) == (0, 1)
        assert state.current == Permutation([1, 0, 2, 3, 4])
        trace = make_trace(Model.LINES, 5, [(0, 1), (2, 3), (3, 4), (0, 2)])
        assert _trace_law(trace) == {
            ((1, 0, 2, 3, 4), 1): Fraction(9, 10),
            ((4, 3, 2, 0, 1), 9): Fraction(1, 10),
        }

    def test_orientation_reversed_branch(self):
        state = self._figure_state()
        assert _step_costs(state, RevealEvent(0, 2), _words([0, 9])) == (0, 9)
        assert state.current == Permutation([4, 3, 2, 0, 1])

    def test_adjacent_singletons_keep_zero_cost_side(self):
        trace = make_trace(Model.LINES, 2, [(0, 1)])
        for seed in range(6):
            result = run("rand", trace, seed=seed)
            assert result.total_cost == 0
            assert result.current == trace.pi0
        assert _trace_law(trace) == {((0, 1), 0): 1}

    def test_candidate_costs_sum_to_span_pairs(self):
        # Given the move, the orientation coin weighs each filling by the
        # other's cost: a filling that rearranges r of the span's node pairs
        # has probability (pairs - r) / pairs, so the two fillings' costs
        # sum to the pairs.  Every outcome pays its distance.
        rng = random.Random(15)
        step_rows = minla.algorithms._step_rows
        for _ in range(40):
            trace = random_trace(Model.LINES, 8, seed=rng.random())
            state = initial_state(Model.LINES, trace.pi0)
            coins = random.Random(rng.randrange(1000))
            for k, ev in enumerate(trace.events):
                before = state.current
                row, = _coin_rows((state.parts.merge(ev.u, ev.v),))
                root, merged = row[2], row[4] + row[5]
                pairs = merged * (merged - 1) // 2
                law, moves = Counter(), Counter()
                for after, p in _step_law(state, row, k):
                    rearrange = after.rearrange_cost - state.rearrange_cost
                    assert after.total_cost - state.total_cost == kendall_tau(
                        before, after.current
                    )
                    law[after.slot[root], after.left_end[root], rearrange] += p
                    moves[after.slot[root]] += p
                for (slot, _, rearrange), p in law.items():
                    assert p == moves[slot] * Fraction(pairs - rearrange, pairs)
                step_rows(state, (row,), coins, k)


class TestRun:
    def test_empty_trace(self):
        trace = make_trace(Model.LINES, 4, [])
        result = run("rand", trace, seed=9)
        assert result.total_cost == 0
        assert result.current == trace.pi0

    def test_seeded_determinism(self):
        trace = random_trace(Model.LINES, 10, seed=3)
        a = run("rand", trace, seed=42)
        b = run("rand", trace, seed=42)
        assert (a.move_cost, a.rearrange_cost) == (b.move_cost, b.rearrange_cost)
        assert a.current == b.current

    def test_feasible_after_every_step(self):
        rng = random.Random(16)
        for model in (Model.CLIQUES, Model.LINES):
            for algo in ("det", "rand"):
                trace = random_trace(model, rng.randint(2, 12), seed=rng.random())
                result = run(algo, trace, seed=1)
                assert is_minla(result.current, result.parts)

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError):
            run("greedy", make_trace(Model.LINES, 2, []))

    def test_state_takes_its_model_from_the_partition(self):
        # No model can be passed beside the partition, so none can contradict
        # it: a state over a lines partition steps as lines.
        pi0 = Permutation.identity(4)
        lines = ComponentPartition(4, Model.LINES)
        with pytest.raises(TypeError):
            AlgoState.initial(Model.CLIQUES, pi0, lines)
        state = AlgoState.initial(pi0, lines)
        assert (state.blocks, state.left_end) == (None, [0, 1, 2, 3])
        rand_step(state, RevealEvent(0, 1), random.Random(0))
        assert tuple(state.parts.nodes[0]) in ((0, 1), (1, 0))
        assert is_minla(state.current, state.parts)


class TestMixedSteps:
    """One state stepped by both algorithms pays from the arrangement it
    holds."""

    def test_det_after_rand_pays_from_the_current_arrangement(self):
        cases = [(random_trace(Model.CLIQUES, 8, seed=3), 4, 1)]
        rng = random.Random(23)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(20):
                trace = random_trace(model, rng.randint(3, 12), seed=rng.random())
                cases.append((trace, rng.randint(1, trace.k - 1), rng.random()))
        paid_before_det = 0
        for trace, split, seed in cases:
            state = initial_state(trace.model, trace.pi0)
            coins = random.Random(seed)
            for event in trace.events[:split]:
                rand_step(state, event, coins)
            paid_before_det += state.total_cost > 0
            for event in trace.events[split:]:
                before, cost = state.current, state.total_cost
                det_step(state, event)
                assert state.total_cost - cost == kendall_tau(before, state.current)
        assert paid_before_det >= len(cases) // 2

    def test_rand_refuses_a_state_det_has_moved(self):
        state = initial_state(Model.CLIQUES, Permutation.identity(6))
        det_step(state, RevealEvent(0, 5))
        costs, current = _totals(state), state.current
        fields = copy.deepcopy(vars(state.parts))
        with pytest.raises(ValueError, match="det_step has moved"):
            rand_step(state, RevealEvent(1, 4), random.Random(0))
        assert _totals(state) == costs
        assert state.current == current
        assert vars(state.parts) == fields


def _kernel_traces():
    """Cliques and lines at n = 2..64, full and partial random traces, and
    tree-adversary traces at q = 4 and 6."""
    rng = random.Random(18)
    traces = []
    for model in (Model.CLIQUES, Model.LINES):
        for n in (2, 3, 4, 5, 6, 8, 11, 16, 23, 32, 47, 64):
            for _ in range(3):
                traces.append(random_trace(model, n, seed=rng.random()))
                events = rng.randint(0, n - 1)
                traces.append(random_trace(model, n, seed=rng.random(), events=events))
    for q in (4, 6):
        for seed in range(4):
            traces.append(tree_adversary(TreeAdversaryConfig(q=q, seed=seed)))
    return traces


def _totals(state):
    return state.total_cost, state.move_cost, state.rearrange_cost


def _small_traces():
    """Cliques and lines at n = 2..12, full and partial random traces, and
    tree-adversary traces at q = 1..3."""
    rng = random.Random(22)
    traces = []
    for model in (Model.CLIQUES, Model.LINES):
        for n in (2, 3, 4, 6, 9, 12):
            for _ in range(2):
                traces.append(random_trace(model, n, seed=rng.random()))
                traces.append(random_trace(model, n, seed=rng.random(), events=n // 2))
    for q in (1, 2, 3):
        traces.append(tree_adversary(TreeAdversaryConfig(q=q, seed=q)))
    return traces


class TestWindowedKernel:
    """The ``rand`` engine against its literal reference, step by step."""

    def test_matches_literal_reference(self):
        # One trial stepped event by event: the permutation and the costs
        # after every event.
        for i, trace in enumerate(_kernel_traces()):
            seed = 1000 + i
            costs, _, totals, perms = reference_rand(trace, seed)
            state = initial_state(trace.model, trace.pi0)
            rng = random.Random(seed)
            assert state.current == perms[0]
            for ev, expected, step in zip(trace.events, perms[1:], costs):
                assert _step_costs(state, ev, rng) == step
                assert state.current == expected
            assert _totals(state) == totals
            result = run("rand", trace, seed=seed)
            assert (_totals(result), result.current) == (totals, perms[-1])

    def test_coin_laws_match_reference(self):
        # Every step's joint law of (permutation, step cost), stepped from
        # the seeded trial's state, equals the reference's: one scripted
        # run per choice of each coin (the draw 0 for its first outcome,
        # the bound less one for its second), weighted by its coin triples.
        step_rows = minla.algorithms._step_rows
        for i, trace in enumerate(_small_traces()):
            seed = 3000 + i
            _, coins, _, _ = reference_rand(trace, seed)
            state = initial_state(trace.model, trace.pi0)
            rng = random.Random(seed)
            for k, (ev, step_coins) in enumerate(zip(trace.events, coins)):
                triples = [t for t in step_coins if t is not None]
                expected = Counter()
                for choice in itertools.product((0, 1), repeat=len(triples)):
                    forced = {k * len(triples) + j: c * (t[2] - 1)
                              for j, (c, t) in enumerate(zip(choice, triples))}
                    costs, _, _, perms = reference_rand(trace, ScriptedRandom(seed, forced))
                    weight = math.prod(Fraction(t[c], t[2]) for c, t in zip(choice, triples))
                    if weight:
                        expected[perms[k + 1].node_at, sum(costs[k])] += weight
                row, = _coin_rows((state.parts.merge(ev.u, ev.v),))
                law = Counter()
                for after, p in _step_law(state, row, k):
                    law[after.current.node_at, after.total_cost - state.total_cost] += p
                assert law == expected
                step_rows(state, (row,), rng, k)

    def test_feasible_after_every_step(self):
        for i, trace in enumerate(_kernel_traces()[::3]):
            state = initial_state(trace.model, trace.pi0)
            rng = random.Random(i)
            for ev in trace.events:
                rand_step(state, ev, rng)
                assert is_minla(state.current, state.parts)

    def test_trials_over_one_replay_feasible_after_every_event(self):
        # Trials stepped one at a time over the trace's one replay, drawing
        # from one reseeded generator: every trial stays feasible after
        # every event and replays its literal reference, permutation by
        # permutation, and run_trials yields the same final costs.
        step_rows = minla.algorithms._step_rows
        rng = random.Random()
        for i, trace in enumerate(_kernel_traces()):
            seeds = [i * 100 + j for j in range(12)]
            refs = [reference_rand(trace, seed) for seed in seeds]
            for seed, (costs, _, totals, perms) in zip(seeds, refs):
                rng.seed(seed)
                parts = ComponentPartition(trace.n, trace.model)
                state = AlgoState.initial(trace.pi0, parts)
                for k, (ev, row) in enumerate(zip(trace.events, _coin_rows(trace.replay.rows))):
                    move, rearrange = state.move_cost, state.rearrange_cost
                    parts.merge(ev.u, ev.v)
                    step_rows(state, (row,), rng, k)
                    step = state.move_cost - move, state.rearrange_cost - rearrange
                    assert step == costs[k]
                    assert state.current == perms[k + 1]
                    assert is_minla(state.current, parts)
                assert _totals(state) == totals
            finals = [_totals(state) for state in run_trials(trace, seeds)]
            assert finals == [totals for _, _, totals, _ in refs]

    def test_large_final_states_match_reference(self):
        traces = [tree_adversary(TreeAdversaryConfig(q=8, seed=s)) for s in (1, 2)]
        traces += [random_trace(Model.LINES, 256, seed=s) for s in (3, 4)]
        traces += [random_trace(Model.LINES, 256, seed=5, events=200)]
        for i, trace in enumerate(traces):
            _, _, totals, perms = reference_rand(trace, 70 + i)
            state = run("rand", trace, seed=70 + i)
            assert (_totals(state), state.current) == (totals, perms[-1])

    def test_snapshot_is_not_changed_by_later_steps(self):
        for model in (Model.CLIQUES, Model.LINES):
            trace = random_trace(model, 20, seed=19)
            state = initial_state(model, trace.pi0)
            rng = random.Random(19)
            for ev in trace.events:
                before = state.current
                node_at, pos_of = tuple(before.node_at), tuple(before.pos_of)
                rand_step(state, ev, rng)
                assert before.node_at == node_at
                assert before.pos_of == pos_of

    def test_state_fault_caught_at_the_next_event(self):
        # Break one invariant of a merging component right before an event:
        # its slot (moved to an empty one), the size at its slot, or (lines)
        # its left end (moved off the path's ends).  The event must name
        # that component.
        rng = random.Random(20)
        kinds = set()
        for _ in range(300):
            model = rng.choice((Model.CLIQUES, Model.LINES))
            trace = random_trace(model, rng.randint(4, 24), seed=rng.random())
            state = initial_state(model, trace.pi0)
            step_rng = random.Random(rng.random())
            at = rng.randrange(trace.k)
            for ev in trace.events[:at]:
                rand_step(state, ev, step_rng)
            parts = state.parts
            ev = trace.events[at]
            root = parts.find(rng.choice((ev.u, ev.v)))
            size = len(parts.nodes[root])
            empty = [p for p, held in enumerate(state.slot_sizes) if held == 0]
            inner = parts.nodes[root][1:-1] if model is Model.LINES else ()
            choices = ["size"] + ["slot"] * bool(empty) + ["left_end"] * bool(inner)
            kind = rng.choice(choices)
            kinds.add(kind)
            if kind == "size":
                state.slot_sizes[state.slot[root]] += rng.choice((-1, 1))
            elif kind == "slot":
                state.slot[root] = rng.choice(empty)
            else:
                state.left_end[root] = rng.choice(inner)
            with pytest.raises(InvariantError) as caught:
                rand_step(state, ev, step_rng)
            assert (caught.value.event_index, caught.value.root) == (at, root)
            assert caught.value.size == size
        assert kinds == {"size", "slot", "left_end"}

    def test_final_state_fault_caught_exactly_when_inconsistent(self, monkeypatch):
        # Break each final trial state, from run or run_trials, right after
        # its last step (see _break_final_state).  The final check must raise
        # exactly when the state is inconsistent, naming the last event and
        # the first broken root in root order with its size; a state that
        # passes must lay out to an arrangement the literal cost check takes.
        step_rows = minla.algorithms._step_rows
        rng = random.Random(21)
        faults = []

        def faulty_rows(state, rows, step_rng, index):
            step_rows(state, rows, step_rng, index)
            if index + len(rows) == trace.k:
                faults.append(_break_final_state(state, rng))

        monkeypatch.setattr(minla.algorithms, "_step_rows", faulty_rows)
        for i in range(400):
            model = rng.choice((Model.CLIQUES, Model.LINES))
            n = rng.randint(2, 16)
            trace = random_trace(model, n, seed=rng.random(), events=rng.randint(1, n - 1))
            seed = rng.randrange(1000)
            try:
                state = run("rand", trace, seed) if i % 2 else next(run_trials(trace, [seed]))
                raised = None
            except InvariantError as exc:
                raised = exc
            kind, root = faults[-1]
            parts = trace.replay.final
            if root is None:
                assert raised is None, kind
                groups = list(parts.nodes.values())
                assert literal_minla(state.current, groups, model), kind
            else:
                assert raised is not None, kind
                assert (raised.event_index, raised.root) == (trace.k - 1, root), kind
                assert raised.size == len(parts.nodes[root])
        assert len(faults) == 400
        assert {kind for kind, _ in faults} == {
            "swap", "foreign", "within", "inner", "other", "flip"}

    @TRACE_SETTINGS
    @given(valid_traces(), st.integers(0, 2**64 - 1))
    def test_every_final_state_passes_and_lays_out_to_a_minla(self, trace, seed):
        # The final check reads the state, not its layout: every state it
        # lets through, from run_trials or run, lays out to a MinLA.
        for state in (next(run_trials(trace, [seed])), run("rand", trace, seed)):
            _check_full(state)
            assert is_minla(state.current, trace.replay.final)

    @TRACE_SETTINGS
    @given(valid_traces(), st.integers(0, 2**64 - 1))
    def test_every_step_lays_out_to_a_minla(self, trace, seed):
        state = initial_state(trace.model, trace.pi0)
        rng = random.Random(seed)
        for ev in trace.events:
            rand_step(state, ev, rng)
            assert is_minla(state.current, state.parts)


def _break_final_state(state, rng):
    """Apply one random fault to a final ``rand`` state and return its kind
    with the root the final check must name, ``None`` for a fault that keeps
    the state consistent.  Cliques: swap a node between two blocks, replace
    a block's node by another component's, or swap two nodes of one block
    (consistent).  Lines: move a left end to an inner node or to another
    path's end, or to its own path's other end (consistent)."""
    parts = state.parts
    roots = list(parts.nodes)
    r, s = rng.sample(roots, 2) if len(roots) > 1 else (roots[0], None)
    if state.blocks is not None:
        blocks = state.blocks
        kinds = ["swap", "foreign"] * (s is not None)
        kinds += ["within"] * (len(blocks[r]) > 1)
        kind = rng.choice(kinds)
        x, z = list(blocks[r]), list(blocks[s]) if s is not None else []
        i, j = rng.randrange(len(x)), rng.randrange(len(z) or 1)
        if kind == "swap":
            x[i], z[j] = z[j], x[i]
            blocks[s] = tuple(z)
        elif kind == "foreign":
            x[i] = z[j]
        else:
            j = rng.choice([k for k in range(len(x)) if k != i])
            x[i], x[j] = x[j], x[i]
        blocks[r] = tuple(x)
        return kind, min(r, s) if kind == "swap" else r if kind == "foreign" else None
    path = parts.nodes[r]
    kinds = ["flip"] + ["inner"] * (len(path) > 2) + ["other"] * (s is not None)
    kind = rng.choice(kinds)
    if kind == "inner":
        state.left_end[r] = rng.choice(path[1:-1])
    elif kind == "other":
        other = parts.nodes[s]
        state.left_end[r] = rng.choice((other[0], other[-1]))
    else:
        state.left_end[r] = path[-1] if state.left_end[r] == path[0] else path[0]
    return kind, None if kind == "flip" else r


class TestOneReplay:
    """``run_trials`` steps each trial alone over the trace's one replay."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    SEEDS += [derive_trial_seed(7, i) for i in range(200)]

    def test_reseeded_generator_matches_a_fresh_one(self):
        # run_trials reseeds through the base class, skipping only
        # Random.seed's reset of the gauss cache.
        rng = random.Random()
        reseed = super(random.Random, rng).seed
        for seed in self.SEEDS:
            reseed(seed)
            fresh = random.Random(seed)
            words = [rng.getrandbits(32) for _ in range(64)]
            assert words == [fresh.getrandbits(32) for _ in range(64)]

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_run_trials_over_extreme_seeds_match_fresh_generators(self, model):
        trace = random_trace(model, 12, seed=43)
        finals = [_totals(state) for state in run_trials(trace, self.SEEDS)]
        assert finals == [reference_rand(trace, seed)[2] for seed in self.SEEDS]
        assert len(set(finals)) > 1

    @pytest.mark.parametrize("seed", ["a", 1.5])
    def test_runners_refuse_non_int_seeds(self, seed):
        # A str seed would reach the salted hash, so its stream would vary
        # with PYTHONHASHSEED; both runners take ints only.
        trace = random_trace(Model.LINES, 12, seed=43)
        with pytest.raises(TypeError):
            next(run_trials(trace, [seed]))
        for algo in ("rand", "det"):
            with pytest.raises(TypeError):
                run(algo, trace, seed)

    def test_trials_leave_the_replay_unchanged(self):
        for model in (Model.CLIQUES, Model.LINES):
            full = random_trace(model, 24, seed=41)
            trace = dataclasses.replace(full, events=full.events[:15])
            rows, final = trace.replay.rows, trace.replay.final
            before = copy.deepcopy((rows, vars(final)))
            seeds = range(40)
            first = [_totals(state) for state in run_trials(trace, seeds)]
            state = stepped_state("rand", trace, seed=5)
            rand_step(state, full.events[15], random.Random(5))
            assert state.parts is not final
            assert trace.replay.rows is rows and trace.replay.final is final
            assert (rows, vars(final)) == before
            assert [_totals(state) for state in run_trials(trace, seeds)] == first

    @pytest.mark.parametrize("trials", [0, 1, 40])
    def test_coin_rows_built_once_per_call(self, monkeypatch, trials):
        # The coin constants are read off the replay once per run_trials
        # call, before the first trial, however many seeds follow.
        calls = []
        coin_rows = minla.algorithms._coin_rows

        def counting(rows):
            calls.append(rows)
            return coin_rows(rows)

        monkeypatch.setattr(minla.algorithms, "_coin_rows", counting)
        for model in (Model.CLIQUES, Model.LINES):
            trace = random_trace(model, 16, seed=44)
            calls.clear()
            assert len(list(run_trials(trace, range(trials)))) == trials
            assert len(calls) == 1 and calls[0] is trace.replay.rows

    @pytest.mark.parametrize("misuse", ["rand_step", "det_step", "merge"])
    def test_replay_refuses_merges(self, misuse):
        # The last node of one final path joined to the first node of
        # another: an event a partition of its own would accept.
        trace = random_trace(Model.LINES, 8, seed=1, events=4)
        final = trace.replay.final
        paths = [p for p in final.nodes.values() if len(p) > 1]
        event = RevealEvent(paths[0][-1], paths[1][0])
        before = copy.deepcopy((trace.replay.rows, vars(final)))
        assert dp_opt(trace).cost == 3
        with pytest.raises(ValueError, match="replay is read-only"):
            if misuse == "rand_step":
                rand_step(next(run_trials(trace, [1])), event, random.Random(1))
            elif misuse == "det_step":
                det_step(next(run_trials(trace, [1])), event)
            else:
                final.merge(event.u, event.v)
        assert (trace.replay.rows, vars(final)) == before
        assert dp_opt(trace).cost == 3

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    @pytest.mark.parametrize("algo", ["det", "rand"])
    def test_run_returns_a_finished_state_over_the_replay(self, algo, model):
        # The event joins two final components, which a partition of its
        # own would accept; both steps refuse it before anything changes.
        trace = random_trace(model, 8, seed=1, events=4)
        final = trace.replay.final
        state = run(algo, trace, seed=3)
        assert state.parts is final
        a, b = list(final.nodes)[:2]
        event = RevealEvent(final.nodes[a][-1], final.nodes[b][0])
        rng = random.Random(3)

        def snapshot():
            fields = [getattr(state, f.name) for f in dataclasses.fields(state)
                      if f.name != "parts"]
            return copy.deepcopy((fields, vars(final), trace.replay.rows, rng.getstate()))

        before = snapshot()
        for step in (det_step, partial(rand_step, rng=rng)):
            with pytest.raises(ValueError):
                step(state, event)
            assert snapshot() == before and state.parts is final

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_run_rand_merges_nothing_and_builds_coin_rows_once(self, monkeypatch, model):
        trace = random_trace(model, 16, seed=44)
        merges, calls = [], []
        merge, coin_rows = ComponentPartition.merge, minla.algorithms._coin_rows

        def counting_merge(parts, *args):
            merges.append(args)
            return merge(parts, *args)

        def counting_rows(rows):
            calls.append(rows)
            return coin_rows(rows)

        monkeypatch.setattr(ComponentPartition, "merge", counting_merge)
        monkeypatch.setattr(minla.algorithms, "_coin_rows", counting_rows)
        run("rand", trace, seed=5)
        assert merges == [] and len(calls) == 1 and calls[0] is trace.replay.rows

    @pytest.mark.parametrize("full", [
        random_trace(Model.CLIQUES, 12, seed=43),
        random_trace(Model.LINES, 12, seed=43),
        tree_adversary(TreeAdversaryConfig(q=4, seed=3)),
    ], ids=["cliques", "lines", "tree"])
    def test_run_matches_run_trials_and_steps_on(self, full):
        # A rand_step loop from AlgoState.initial, on a partition of its own
        # and from random.Random(seed), ends where run_trials' trial for the
        # same seed and run do; the trace stops one event early, so the
        # loop's state can take the last one.
        trace = dataclasses.replace(full, events=full.events[:-1])

        def view(state):
            return (_totals(state), state.slot, state.left_end, state.blocks,
                    state.current)

        for seed, trial in zip(self.SEEDS, run_trials(trace, self.SEEDS)):
            state = stepped_state("rand", trace, seed)
            assert view(state) == view(trial) == view(run("rand", trace, seed))
            rand_step(state, full.events[-1], random.Random(seed))
            assert len(state.parts.nodes) == len(trace.replay.final.nodes) - 1
            assert is_minla(state.current, state.parts)


class TestMirroring:
    """Reversing pi0 (position i to n - 1 - i) moves neither ``dp_opt``'s
    cost, nor ``closest_feasible``'s distance, nor ``exhaustive_opt``'s
    cost: an arrangement is feasible exactly when its reverse is, and lies
    as far from pi0 as its reverse from the mirrored pi0.  Nor does it move
    ``rand``'s law: a clique trial under the same seed keeps its costs and
    lays out reversed, and the exact law of the layout and cost, of either
    model, is reversed too, though a line's orientation coin reads which
    block is left.  ``det`` is exempt: its ties read positions."""

    SEEDS = [0, 1, 2**64 - 1] + [derive_trial_seed(6, i) for i in range(5)]

    @TRACE_SETTINGS
    @given(valid_traces())
    def test_mirrored_traces_cost_the_same(self, trace):
        twin = mirror(trace)
        assert dp_opt(twin).cost == dp_opt(trace).cost
        distance = closest_feasible(trace.pi0, trace.replay.final)[0]
        assert closest_feasible(twin.pi0, twin.replay.final)[0] == distance
        if trace.n <= 6:
            assert exhaustive_opt(twin).cost == exhaustive_opt(trace).cost

    @TRACE_SETTINGS
    @given(valid_traces().filter(lambda t: t.model is Model.CLIQUES))
    def test_mirrored_clique_trials_reverse(self, trace):
        # The move coin reads sizes only and the same blocks stand between
        # the two slots, so each trial pays the same; every block, built
        # in the mirrored order, is the reverse of the original's.
        pairs = zip(run_trials(trace, self.SEEDS), run_trials(mirror(trace), self.SEEDS))
        for state, twin in pairs:
            assert _totals(twin) == _totals(state)
            assert twin.current.node_at == state.current.node_at[::-1]

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_mirrored_laws_reverse(self, model):
        # Criteria 5-6's ten trace shapes: rand's exact law of (layout,
        # total cost) on the mirrored trace is the original's, each layout
        # reversed.
        for index, slot in itertools.product((5, 6), range(len(_FREQUENCY_TRACES))):
            n, k = _FREQUENCY_TRACES[slot]
            trace = random_trace(model, n, seed=500 + index * 10 + slot, events=k)
            twin = _trace_law(mirror(trace))
            assert {(node_at[::-1], cost): p for (node_at, cost), p in twin.items()} == (
                _trace_law(trace)
            )


class TestRelabeling:
    """Renaming the nodes, every position kept, moves neither ``dp_opt``
    nor any ``rand`` trial under the same seed: the coins read sizes and
    pi0 positions only, and each layout is the renamed original.  ``det``
    is exempt: its ties go by node label."""

    SEEDS = [0, 1, 2**64 - 1] + [derive_trial_seed(5, i) for i in range(5)]

    def check(self, trace, phi):
        renamed = relabel(trace, phi)
        assert dp_opt(renamed).cost == dp_opt(trace).cost
        pairs = zip(run_trials(trace, self.SEEDS), run_trials(renamed, self.SEEDS))
        for state, twin in pairs:
            assert _totals(twin) == _totals(state)
            assert twin.current.node_at == tuple(phi[v] for v in state.current.node_at)

    @TRACE_SETTINGS
    @given(valid_traces(), st.data())
    def test_relabeled_traces_cost_the_same(self, trace, data):
        self.check(trace, data.draw(st.permutations(range(trace.n))))

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_relabeled_trace_at_n_1024(self, model):
        phi = list(range(1024))
        random.Random(29).shuffle(phi)
        self.check(random_trace(model, 1024, seed=31), phi)
