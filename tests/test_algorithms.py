import json
import random

import pytest

import minla.algorithms
from conftest import feasible_permutations, literal_minla, reference_layout, reference_rand
from minla import (
    AlgoState,
    CapacityError,
    ComponentPartition,
    InvariantError,
    Model,
    Permutation,
    RevealEvent,
    RevealTrace,
    det_step,
    is_minla,
    kendall_tau,
    rand_step,
    random_trace,
    replay_components,
    run,
    tree_adversary,
    TreeAdversaryConfig,
)


class ForcedCoin:
    def __init__(self, values):
        self.values = list(values)

    def randrange(self, bound):
        value = self.values.pop(0)
        assert 0 <= value < bound
        return value


def make_trace(model, n, events, pi0=None):
    return RevealTrace(
        model=model,
        n=n,
        pi0=pi0 or Permutation.identity(n),
        events=tuple(RevealEvent(u, v) for u, v in events),
    )


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
        step_costs = [rep.move_cost for rep in result.step_log]
        mid = run("det", make_trace(Model.LINES, 4, [(1, 2)])).current
        assert step_costs[1] == kendall_tau(mid, Permutation([0, 1, 2, 3]))

    def test_closest_member_and_lex_order_vs_enumeration(self):
        rng = random.Random(11)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(25):
                n = rng.randint(2, 7)
                trace = random_trace(model, n, seed=rng.random())
                state = AlgoState.initial(model, trace.pi0)
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

    def test_capacity_cap(self):
        # At the default budget of 2^22 states, 12 pairs and 1024 singletons
        # trip the cap; the 12th pair is merged by the step itself.
        state = AlgoState.initial(Model.CLIQUES, Permutation.identity(1048))
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
            raise AssertionError("cross_weight called on an over-cap input")

        state = AlgoState.initial(Model.CLIQUES, Permutation.identity(1000))
        for i in range(0, 44, 2):
            state.parts.merge(i, i + 1)
        monkeypatch.setattr(minla.algorithms, "cross_weight", no_weights)
        with pytest.raises(CapacityError):
            det_step(state, RevealEvent(44, 45))

    @pytest.mark.parametrize("n", [32, 40])
    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_full_traces_past_the_old_cap(self, model, n, monkeypatch):
        # Every step of a full trace, checked by is_minla inside run; each
        # step's target equals the plain subset program wherever it has at
        # most 16 components.
        compared = []

        def checked(seqs, sorted_pos):
            result = order_blocks(seqs, sorted_pos)
            if len(seqs) <= 16:
                assert result == reference_layout(seqs, sorted_pos)
                compared.append(len(seqs))
            return result

        order_blocks = minla.algorithms._order_blocks
        monkeypatch.setattr(minla.algorithms, "_order_blocks", checked)
        trace = random_trace(model, n, seed=n)
        result = run("det", trace)
        assert result.parts.num_components == 1
        assert len(compared) == 16

    def test_triangle_bound_per_run(self):
        rng = random.Random(12)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(10):
                trace = random_trace(model, rng.randint(2, 10), seed=rng.random())
                state = AlgoState.initial(model, trace.pi0)
                farthest = 0
                for ev in trace.events:
                    det_step(state, ev)
                    farthest = max(farthest, kendall_tau(trace.pi0, state.current))
                assert state.total_cost <= trace.k * 2 * farthest


class TestRandCliqueStep:
    def _paired_state(self):
        prefix = make_trace(Model.CLIQUES, 5, [(3, 4)])
        return run("rand", prefix, seed=0)

    def test_singleton_moves_to_pair(self):
        state = self._paired_state()
        rand_step(state, RevealEvent(0, 3), ForcedCoin([0]))
        assert state.current == Permutation([1, 2, 0, 3, 4])
        report = state.step_log[-1]
        assert report.move_cost == 2
        assert report.choice == "move_x"
        assert (report.prob_num, report.prob_den) == (2, 3)

    def test_pair_moves_to_singleton(self):
        state = self._paired_state()
        rand_step(state, RevealEvent(0, 3), ForcedCoin([2]))
        assert state.current == Permutation([0, 3, 4, 1, 2])
        report = state.step_log[-1]
        assert report.move_cost == 4
        assert report.choice == "move_z"
        assert (report.prob_num, report.prob_den) == (1, 3)

    def test_adjacent_blocks_cost_nothing(self):
        state = self._paired_state()
        for forced in (0, 2):
            fresh = self._paired_state()
            rand_step(fresh, RevealEvent(2, 3), ForcedCoin([forced]))
            assert fresh.current == state.current
            assert fresh.step_log[-1].move_cost == 0

    def test_cost_equals_distance(self):
        rng = random.Random(13)
        for _ in range(40):
            trace = random_trace(Model.CLIQUES, 6, seed=rng.random())
            state = AlgoState.initial(Model.CLIQUES, trace.pi0)
            step_rng = random.Random(rng.random())
            for ev in trace.events:
                before = state.current
                rand_step(state, ev, step_rng)
                assert state.step_log[-1].move_cost == kendall_tau(
                    before, state.current
                )

    def test_untouched_components_keep_relative_order(self):
        rng = random.Random(14)
        for _ in range(30):
            trace = random_trace(Model.CLIQUES, rng.randint(4, 10), seed=rng.random())
            state = AlgoState.initial(Model.CLIQUES, trace.pi0)
            step_rng = random.Random(rng.random())
            for ev in trace.events:
                parts = state.parts
                touched = {parts.find(ev.u), parts.find(ev.v)}
                bystanders = [r for r in parts.components() if r not in touched]
                before = sorted(
                    bystanders,
                    key=lambda r: min(state.current.pos_of[v] for v in parts.nodes_of(r)),
                )
                members = {r: list(parts.nodes_of(r)) for r in bystanders}
                rand_step(state, ev, step_rng)
                after = sorted(
                    bystanders,
                    key=lambda r: min(state.current.pos_of[v] for v in members[r]),
                )
                assert before == after


class TestRandLineStep:
    def _figure_state(self):
        prefix = make_trace(Model.LINES, 5, [(0, 1), (2, 3), (3, 4)])
        state = run("rand", prefix, seed=0)
        assert state.current == Permutation([0, 1, 2, 3, 4])
        return state

    def test_orientation_weights_reproduced(self):
        state = self._figure_state()
        rand_step(state, RevealEvent(0, 2), ForcedCoin([0, 0]))
        report = state.step_log[-1]
        assert (
            report.rearrange_coin.forward_num,
            report.rearrange_coin.reversed_num,
            report.rearrange_coin.denom,
        ) == (9, 1, 10)
        assert state.current == Permutation([1, 0, 2, 3, 4])
        assert report.rearrange_cost == 1

    def test_orientation_reversed_branch(self):
        state = self._figure_state()
        rand_step(state, RevealEvent(0, 2), ForcedCoin([0, 9]))
        assert state.current == Permutation([4, 3, 2, 0, 1])
        assert state.step_log[-1].rearrange_cost == 9

    def test_adjacent_singletons_keep_zero_cost_side(self):
        trace = make_trace(Model.LINES, 2, [(0, 1)])
        for seed in range(6):
            result = run("rand", trace, seed=seed)
            assert result.total_cost == 0
            report = result.step_log[0]
            assert report.choice.endswith("+forward")
            assert (report.rearrange_coin.forward_num, report.rearrange_coin.denom) == (1, 1)

    def test_candidate_costs_sum_to_span_pairs(self):
        rng = random.Random(15)
        for _ in range(40):
            trace = random_trace(Model.LINES, 8, seed=rng.random())
            state = AlgoState.initial(Model.LINES, trace.pi0)
            step_rng = random.Random(rng.random())
            for ev in trace.events:
                before = state.current
                rand_step(state, ev, step_rng)
                report = state.step_log[-1]
                merged = state.parts.size_of(state.parts.find(ev.u))
                coin = report.rearrange_coin
                assert coin.forward_num + coin.reversed_num == coin.denom
                assert coin.denom == merged * (merged - 1) // 2
                expected_rearrange = (
                    coin.reversed_num
                    if report.choice.endswith("+forward")
                    else coin.forward_num
                )
                assert report.rearrange_cost == expected_rearrange
                assert report.move_cost + report.rearrange_cost == kendall_tau(
                    before, state.current
                )


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
        assert a.step_log == b.step_log
        assert a.current == b.current

    def test_feasible_after_every_step(self):
        rng = random.Random(16)
        for model in (Model.CLIQUES, Model.LINES):
            for algo in ("det", "rand"):
                trace = random_trace(model, rng.randint(2, 12), seed=rng.random())
                result = run(algo, trace, seed=1)
                assert is_minla(result.current, result.parts, model)

    def test_probabilities_are_valid_rationals(self):
        rng = random.Random(17)
        for model in (Model.CLIQUES, Model.LINES):
            trace = random_trace(model, 9, seed=rng.random())
            for rep in run("rand", trace, seed=5).step_log:
                assert rep.prob_den > 0
                assert 0 <= rep.prob_num <= rep.prob_den

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError):
            run("greedy", make_trace(Model.LINES, 2, []))

    def test_step_log_jsonl(self):
        trace = random_trace(Model.LINES, 6, seed=8)
        result = run("rand", trace, seed=2)
        jsonl = "".join(step.to_json_line() + "\n" for step in result.step_log)
        lines = jsonl.strip().split("\n")
        assert len(lines) == trace.k
        parsed = json.loads(lines[0])
        assert set(parsed) == {
            "event_index",
            "move_cost",
            "rearrange_cost",
            "choice",
            "prob_num",
            "prob_den",
        }
        assert parsed["event_index"] == 0

    def test_log_collection_toggle(self):
        trace = random_trace(Model.CLIQUES, 6, seed=8)
        result = run("rand", trace, seed=2, collect_log=False)
        assert result.step_log == []
        assert result.total_cost >= 0


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


def _assert_matches_reference(state, lines, coins, totals):
    assert [rep.to_json_line() for rep in state.step_log] == lines
    for rep, (move_coin, rcoin) in zip(state.step_log, coins):
        mc = rep.move_coin
        assert (mc.move_x_num, mc.move_z_num, mc.denom) == move_coin
        rc = rep.rearrange_coin
        if rcoin is None:
            assert rc is None
        else:
            assert (rc.forward_num, rc.reversed_num, rc.denom) == rcoin
    assert (state.total_cost, state.move_cost, state.rearrange_cost) == totals


class TestWindowedKernel:
    """The ``rand`` engine against its literal reference, step by step."""

    def test_matches_literal_reference(self):
        # A chunk of one: the permutation after every event, then the costs,
        # both coins and the step-log lines.
        for i, trace in enumerate(_kernel_traces()):
            seed = 1000 + i
            lines, coins, totals, perms = reference_rand(trace, seed)
            state = AlgoState.initial(trace.model, trace.pi0)
            rng = random.Random(seed)
            assert state.current == perms[0]
            for ev, expected in zip(trace.events, perms[1:]):
                rand_step(state, ev, rng)
                assert state.current == expected
            _assert_matches_reference(state, lines, coins, totals)
            result = run("rand", trace, seed=seed)
            assert (result.step_log, result.current) == (state.step_log, perms[-1])

    def test_feasible_after_every_step(self):
        for i, trace in enumerate(_kernel_traces()[::3]):
            state = AlgoState.initial(trace.model, trace.pi0)
            rng = random.Random(i)
            for ev in trace.events:
                rand_step(state, ev, rng)
                assert is_minla(state.current, state.parts, trace.model)

    def test_shared_chunk_feasible_after_every_event(self):
        # Trials stepped in lockstep over one partition: every trial stays
        # feasible after every event and replays its literal reference,
        # permutation by permutation.
        for i, trace in enumerate(_kernel_traces()):
            parts = ComponentPartition(trace.n, trace.model)
            seeds = [i * 100 + j for j in range(12)]
            refs = [reference_rand(trace, seed) for seed in seeds]
            states = [AlgoState.initial(trace.model, trace.pi0, parts) for _ in seeds]
            rngs = [random.Random(seed) for seed in seeds]
            for k, ev in enumerate(trace.events, 1):
                minla.algorithms._rand_event(parts, states, rngs, ev)
                for state, (_, _, _, perms) in zip(states, refs):
                    assert state.current == perms[k]
                    assert is_minla(state.current, parts, trace.model)
            for state, (lines, coins, totals, _) in zip(states, refs):
                _assert_matches_reference(state, lines, coins, totals)

    def test_large_final_states_match_reference(self):
        traces = [tree_adversary(TreeAdversaryConfig(q=8, seed=s)) for s in (1, 2)]
        traces += [random_trace(Model.LINES, 256, seed=s) for s in (3, 4)]
        traces += [random_trace(Model.LINES, 256, seed=5, events=200)]
        for i, trace in enumerate(traces):
            lines, coins, totals, perms = reference_rand(trace, 70 + i)
            state = run("rand", trace, seed=70 + i)
            _assert_matches_reference(state, lines, coins, totals)
            assert state.current == perms[-1]

    def test_snapshot_is_not_changed_by_later_steps(self):
        for model in (Model.CLIQUES, Model.LINES):
            trace = random_trace(model, 20, seed=19)
            state = AlgoState.initial(model, trace.pi0)
            rng = random.Random(19)
            for ev in trace.events:
                before = state.current
                node_at, pos_of = tuple(before.node_at), tuple(before.pos_of)
                rand_step(state, ev, rng)
                assert before.node_at == node_at
                assert before.pos_of == pos_of

    def test_state_fault_caught_at_the_next_event(self):
        # Break one invariant of a merging component right before an event:
        # its representative (moved to a node whose slot is empty), its
        # representative's slot size, or (lines) its left end (moved off
        # the path's ends).  The event must name that component.
        rng = random.Random(20)
        kinds = set()
        for _ in range(300):
            model = rng.choice((Model.CLIQUES, Model.LINES))
            trace = random_trace(model, rng.randint(4, 24), seed=rng.random())
            state = AlgoState.initial(model, trace.pi0)
            step_rng = random.Random(rng.random())
            at = rng.randrange(trace.k)
            for ev in trace.events[:at]:
                rand_step(state, ev, step_rng)
            parts, pos0 = state.parts, trace.pi0.pos_of
            ev = trace.events[at]
            root = parts.find(rng.choice((ev.u, ev.v)))
            size = parts.size_of(root)
            empty = [w for w in range(trace.n) if state.slot_sizes[pos0[w]] == 0]
            inner = parts.path_of(root)[1:-1] if model is Model.LINES else ()
            choices = ["slot"] + ["rep"] * bool(empty) + ["left_end"] * bool(inner)
            kind = rng.choice(choices)
            kinds.add(kind)
            if kind == "slot":
                state.slot_sizes[pos0[state.rep[root]]] += rng.choice((-1, 1))
            elif kind == "rep":
                state.rep[root] = rng.choice(empty)
            else:
                state.left_end[root] = rng.choice(inner)
            with pytest.raises(InvariantError) as caught:
                rand_step(state, ev, step_rng)
            assert (caught.value.event_index, caught.value.root) == (at, root)
            assert caught.value.size == size
        assert kinds == {"slot", "rep", "left_end"}

    def test_layout_fault_caught_exactly_when_infeasible(self, monkeypatch):
        # Swap two nodes of the laid-out final permutation: the final check
        # must raise exactly when the literal cost check rejects it.
        layout = minla.algorithms._layout
        rng = random.Random(21)
        swapped = []

        def faulty_layout(state):
            node_at = layout(state)
            i, j = rng.sample(range(len(node_at)), 2)
            node_at[i], node_at[j] = node_at[j], node_at[i]
            swapped.append(Permutation(node_at))
            return node_at

        monkeypatch.setattr(minla.algorithms, "_layout", faulty_layout)
        caught = passed = 0
        for _ in range(300):
            model = rng.choice((Model.CLIQUES, Model.LINES))
            trace = random_trace(model, rng.randint(2, 24), seed=rng.random())
            swapped.clear()
            try:
                run("rand", trace, seed=rng.randrange(1000), collect_log=False)
                raised = None
            except InvariantError as exc:
                raised = exc
            parts = replay_components(trace, trace.k)
            groups = [
                parts.nodes_of(r) if model is Model.CLIQUES else parts.path_of(r)
                for r in parts.components()
            ]
            feasible = literal_minla(swapped[0], groups, model)
            assert (raised is None) == feasible
            if raised is None:
                passed += 1
            else:
                assert raised.event_index == trace.k - 1
                assert raised.size == parts.size_of(raised.root)
                caught += 1
        assert caught > 0 and passed > 0
