import random

import pytest

from minla import (
    ConfigError,
    MiddleLineAdversary,
    Model,
    Permutation,
    ProtocolError,
    TreeAdversaryConfig,
    dp_opt,
    duel,
    kendall_tau,
    random_trace,
    replay_components,
    run,
    tree_adversary,
    validate_trace,
)


class TestTreeAdversary:
    def leaf_order(self, trace):
        parts = replay_components(trace, trace.k)
        return list(parts.path_of(parts.components()[0]))

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

    def test_levels_merge_equal_sizes(self):
        q = 4
        trace = tree_adversary(TreeAdversaryConfig(q=q, seed=3))
        parts = replay_components(trace, 0)
        idx = 0
        for level in range(1, q + 1):
            size = 1 << (level - 1)
            for _ in range(1 << (q - level)):
                ev = trace.events[idx]
                assert parts.size_of(parts.find(ev.u)) == size
                assert parts.size_of(parts.find(ev.v)) == size
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
        with pytest.raises(ConfigError):
            tree_adversary(TreeAdversaryConfig(q=2, seed=1), pi0=Permutation.identity(3))


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
        sizes = sorted(parts.size_of(r) for r in parts.components())
        assert sizes == [1, 6]


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

    def test_rejects_bad_event_count(self):
        with pytest.raises(ConfigError):
            random_trace(Model.LINES, 4, seed=1, events=4)
