import json
import random

import pytest

import minla.algorithms
from conftest import feasible_permutations
from minla import (
    AlgoState,
    CapacityError,
    Model,
    Permutation,
    RevealEvent,
    RevealTrace,
    det_step,
    is_minla,
    kendall_tau,
    rand_clique_step,
    rand_line_step,
    random_trace,
    run,
    steplog_to_jsonl,
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
        trace = make_trace(Model.CLIQUES, 24, [(0, 1)])
        with pytest.raises(CapacityError):
            run("det", trace, item_cap=20)

    def test_capacity_checked_before_weights(self, monkeypatch):
        # The O(m^2) weight matrix must not be built for an over-cap input.
        def no_weights(*args):
            raise AssertionError("cross_weight called on an over-cap input")

        monkeypatch.setattr(minla.algorithms, "cross_weight", no_weights)
        trace = make_trace(Model.CLIQUES, 1000, [(0, 1)])
        with pytest.raises(CapacityError):
            run("det", trace)

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
        rand_clique_step(state, RevealEvent(0, 3), ForcedCoin([0]))
        assert state.current == Permutation([1, 2, 0, 3, 4])
        report = state.step_log[-1]
        assert report.move_cost == 2
        assert report.choice == "move_x"
        assert (report.prob_num, report.prob_den) == (2, 3)

    def test_pair_moves_to_singleton(self):
        state = self._paired_state()
        rand_clique_step(state, RevealEvent(0, 3), ForcedCoin([2]))
        assert state.current == Permutation([0, 3, 4, 1, 2])
        report = state.step_log[-1]
        assert report.move_cost == 4
        assert report.choice == "move_z"
        assert (report.prob_num, report.prob_den) == (1, 3)

    def test_adjacent_blocks_cost_nothing(self):
        state = self._paired_state()
        for forced in (0, 2):
            fresh = self._paired_state()
            rand_clique_step(fresh, RevealEvent(2, 3), ForcedCoin([forced]))
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
                rand_clique_step(state, ev, step_rng)
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
                rand_clique_step(state, ev, step_rng)
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
        rand_line_step(state, RevealEvent(0, 2), ForcedCoin([0, 0]))
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
        rand_line_step(state, RevealEvent(0, 2), ForcedCoin([0, 9]))
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
                rand_line_step(state, ev, step_rng)
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
        lines = steplog_to_jsonl(result.step_log).strip().split("\n")
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
