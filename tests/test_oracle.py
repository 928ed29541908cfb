import math
import random
from fractions import Fraction

import pytest

import minla.algorithms
from conftest import ordered_pairs_diff
from minla import (
    CapacityError,
    Model,
    Permutation,
    RevealEvent,
    RevealTrace,
    bound_for_trace,
    check_harmonic_bounds,
    check_identity_lemmas,
    dp_opt,
    exhaustive_opt,
    harmonic_number,
    is_minla,
    kendall_tau,
    left_right_probability,
    orientation_probability,
    random_trace,
    replay_components,
)


def make_trace(model, n, events, pi0=None):
    return RevealTrace(
        model=model,
        n=n,
        pi0=pi0 or Permutation.identity(n),
        events=tuple(RevealEvent(u, v) for u, v in events),
    )


class TestDpOpt:
    def test_initial_permutation_feasible_throughout(self):
        trace = make_trace(Model.CLIQUES, 4, [(0, 1), (2, 3)])
        opt = dp_opt(trace)
        assert opt.cost == 0
        assert opt.witness == trace.pi0

    def test_clique_triangle_after_edge(self):
        trace = make_trace(Model.CLIQUES, 3, [(0, 2), (0, 1)])
        opt = dp_opt(trace)
        assert opt.cost == 1
        assert opt.witness == Permutation([0, 2, 1])

    def test_two_line_segments(self):
        trace = make_trace(
            Model.LINES, 4, [(0, 1), (2, 3)], pi0=Permutation([0, 2, 1, 3])
        )
        opt = dp_opt(trace)
        assert opt.cost == exhaustive_opt(trace).cost == 1

    def test_witness_realizes_cost_in_one_move(self):
        rng = random.Random(21)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(40):
                n = rng.randint(2, 12)
                trace = random_trace(
                    model, n, seed=rng.random(), events=rng.randint(0, n - 1)
                )
                opt = dp_opt(trace)
                assert kendall_tau(trace.pi0, opt.witness) == opt.cost
                assert ordered_pairs_diff(trace.pi0, opt.witness) == opt.cost

    def test_witness_feasible_at_every_step(self):
        rng = random.Random(22)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(30):
                n = rng.randint(2, 10)
                trace = random_trace(
                    model, n, seed=rng.random(), events=rng.randint(0, n - 1)
                )
                opt = dp_opt(trace)
                for i in range(trace.k + 1):
                    assert is_minla(opt.witness, replay_components(trace, i), model)

    def test_capacity_cap(self):
        trace = make_trace(Model.CLIQUES, 30, [(0, 1)])
        with pytest.raises(CapacityError):
            dp_opt(trace, cap=10)

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_capacity_checked_before_weights(self, model, monkeypatch):
        def no_weights(*args):
            raise AssertionError("cross_weight called on an over-cap input")

        monkeypatch.setattr(minla.algorithms, "cross_weight", no_weights)
        with pytest.raises(CapacityError):
            dp_opt(make_trace(model, 1000, [(0, 1)]))


class TestExhaustiveOpt:
    def test_empty_trace(self):
        trace = make_trace(Model.LINES, 3, [])
        assert exhaustive_opt(trace).cost == 0

    def test_never_exceeds_dp(self):
        rng = random.Random(23)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(60):
                n = rng.randint(2, 6)
                trace = random_trace(
                    model, n, seed=rng.random(), events=rng.randint(0, n - 1)
                )
                assert exhaustive_opt(trace).cost <= dp_opt(trace).cost

    def test_matches_dp_smoke(self):
        rng = random.Random(24)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(40):
                n = rng.randint(2, 6)
                trace = random_trace(
                    model, n, seed=rng.random(), events=rng.randint(0, n - 1)
                )
                assert exhaustive_opt(trace).cost == dp_opt(trace).cost

    def test_rejects_large_n(self):
        with pytest.raises(CapacityError):
            exhaustive_opt(make_trace(Model.LINES, 8, []))


class TestLeftRightProbability:
    def test_singletons(self):
        assert left_right_probability({0}, {1}, Permutation([0, 1])) == 1

    def test_half_split(self):
        assert left_right_probability(
            {0, 3}, {1, 2}, Permutation([0, 1, 2, 3])
        ) == Fraction(1, 2)

    def test_complement_sums_to_one(self):
        rng = random.Random(25)
        for _ in range(60):
            n = rng.randint(2, 10)
            order = list(range(n))
            rng.shuffle(order)
            pi0 = Permutation(order)
            cut = rng.randint(1, n - 1)
            nodes = list(range(n))
            rng.shuffle(nodes)
            size_a = rng.randint(1, cut)
            a, b = set(nodes[:size_a]), set(nodes[cut:])
            p = left_right_probability(a, b, pi0)
            q = left_right_probability(b, a, pi0)
            assert 0 <= p <= 1
            assert p + q == 1

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            left_right_probability({0, 1}, {1, 2}, Permutation.identity(3))


class TestOrientationProbability:
    def test_aligned_path(self):
        assert orientation_probability([0, 1, 2], Permutation([0, 1, 2])) == 1

    def test_anti_aligned_pair(self):
        assert orientation_probability([0, 1], Permutation([1, 0])) == 0

    def test_partial(self):
        assert orientation_probability(
            [0, 1, 2], Permutation([1, 0, 2])
        ) == Fraction(2, 3)

    def test_orientations_sum_to_one(self):
        rng = random.Random(26)
        for _ in range(50):
            n = rng.randint(2, 9)
            order = list(range(n))
            rng.shuffle(order)
            pi0 = Permutation(order)
            path = list(range(n))
            rng.shuffle(path)
            total = orientation_probability(path, pi0) + orientation_probability(
                path[::-1], pi0
            )
            assert total == 1

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            orientation_probability([0], Permutation.identity(1))


class TestHarmonic:
    def test_small_values(self):
        assert harmonic_number(1) == 1
        assert harmonic_number(2) == Fraction(3, 2)
        assert harmonic_number(5) == Fraction(137, 60)

    def test_exact_matches_float_beyond_cap(self):
        exact = float(harmonic_number(10_000))
        beyond = harmonic_number(10_001)
        assert isinstance(beyond, float)
        assert math.isclose(beyond, exact + 1 / 10_001, rel_tol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_number(0)


class TestHarmonicBounds:
    def test_tight_boundary(self):
        # 1/1 + 1/2 equals H_2 exactly
        result = check_harmonic_bounds([1, 1])
        assert result.all_ok()

    def test_small_series(self):
        assert check_harmonic_bounds([2, 3]).all_ok()

    def test_random_sweep(self):
        rng = random.Random(27)
        for _ in range(400):
            series = [rng.randint(1, 20) for _ in range(rng.randint(1, 50))]
            assert check_harmonic_bounds(series).all_ok(), series

    def test_rejects_bad_series(self):
        with pytest.raises(ValueError):
            check_harmonic_bounds([])
        with pytest.raises(ValueError):
            check_harmonic_bounds([1, 0])


class TestIdentityChecks:
    def test_single_term(self):
        assert check_identity_lemmas([3.5], [0.25]) == (True, True)

    def test_worked_example(self):
        eq_ok, le_ok = check_identity_lemmas([1, 6, 3], [0.5, 0.5, 0.5])
        assert eq_ok and le_ok

    def test_brute_force_equality(self):
        # recompute both sides with explicit loops for one instance
        rng = random.Random(28)
        a = [rng.uniform(0, 5) for _ in range(4)]
        b = [rng.uniform(0, 1) for _ in range(4)]
        lhs = 0.0
        for t in range(16):
            bits = [(t >> i) & 1 for i in range(4)]
            weight = 1.0
            for tb, prob in zip(bits, b):
                weight *= prob if tb else 1 - prob
            lhs += weight * sum(tb * av for tb, av in zip(bits, a))
        assert abs(lhs - sum(av * bv for av, bv in zip(a, b))) < 1e-9
        assert check_identity_lemmas(a, b) == (True, True)

    def test_random_sweep(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 10)
            a = [rng.uniform(0, 10) for _ in range(n)]
            b = [rng.uniform(0, 1) for _ in range(n)]
            assert check_identity_lemmas(a, b) == (True, True)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_identity_lemmas([1.0], [1.5])
        with pytest.raises(ValueError):
            check_identity_lemmas([1.0, 2.0], [0.5])
        with pytest.raises(ValueError):
            check_identity_lemmas([1.0] * 13, [0.5] * 13)


class TestBoundForTrace:
    def test_zero_opt(self):
        trace = make_trace(Model.CLIQUES, 4, [(0, 1)])
        assert bound_for_trace(trace, dp_opt(trace)) == 0.0

    def test_clique_formula(self):
        trace = random_trace(Model.CLIQUES, 10, seed=30)
        opt = dp_opt(trace)
        expected = float(4 * harmonic_number(10) * opt.cost)
        assert bound_for_trace(trace, opt) == pytest.approx(expected)

    def test_lines_doubles_cliques(self):
        clique = random_trace(Model.CLIQUES, 9, seed=31)
        line = RevealTrace(Model.LINES, 9, clique.pi0, ())
        opt = dp_opt(clique)
        assert bound_for_trace(line, opt) == pytest.approx(
            2 * bound_for_trace(clique, opt)
        )

    def test_monotone_in_opt_and_n(self):
        from minla import OptResult

        trace = make_trace(Model.CLIQUES, 6, [])
        near = OptResult(cost=1, witness=Permutation([1, 0, 2, 3, 4, 5]))
        far = OptResult(cost=3, witness=Permutation([1, 2, 3, 0, 4, 5]))
        assert bound_for_trace(trace, far) > bound_for_trace(trace, near) > 0
        wide = make_trace(Model.CLIQUES, 12, [])
        near_wide = OptResult(
            cost=1, witness=Permutation([1, 0] + list(range(2, 12)))
        )
        assert bound_for_trace(wide, near_wide) > bound_for_trace(trace, near)
