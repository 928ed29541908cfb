import itertools
import random

import pytest

from minla import CapacityError
from minla.ordering import _subset_costs_np, _subset_costs_py, cross_weight, solve_block_order


def brute_force_order(w):
    m = len(w)
    best = None
    best_order = None
    for order in itertools.permutations(range(m)):
        cost = sum(
            w[order[i]][order[j]] for i in range(m) for j in range(i + 1, m)
        )
        if best is None or cost < best:
            best, best_order = cost, order
    return best, best_order


def random_weights(rng, m, hi=9):
    return [[0 if i == j else rng.randint(0, hi) for j in range(m)] for i in range(m)]


class TestCrossWeight:
    def test_counts_pairs_after(self):
        assert cross_weight([5, 9], [1, 2, 3, 6]) == 3 + 4

    def test_complement(self):
        rng = random.Random(0)
        for _ in range(100):
            a = sorted(rng.sample(range(50), rng.randint(1, 8)))
            rest = [x for x in range(50) if x not in a]
            b = sorted(rng.sample(rest, rng.randint(1, 8)))
            assert cross_weight(a, b) + cross_weight(b, a) == len(a) * len(b)


class TestSolveBlockOrder:
    def test_trivial_sizes(self):
        assert solve_block_order([], []) == (0, [])
        assert solve_block_order([[0]], [7]) == (0, [0])

    def test_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(120):
            m = rng.randint(2, 7)
            w = random_weights(rng, m)
            cost, order = solve_block_order(w, list(range(m)))
            expected, _ = brute_force_order(w)
            assert cost == expected
            realized = sum(
                w[order[i]][order[j]]
                for i in range(m)
                for j in range(i + 1, m)
            )
            assert realized == cost

    def test_cyclic_preferences_still_exact(self):
        # pairwise majorities can cycle; the subset program must not rely on
        # a total sort. blocks {0,5,7}, {1,3,8}, {2,4,6} prefer a<b<c<a.
        blocks = [[0, 5, 7], [1, 3, 8], [2, 4, 6]]
        w = [
            [
                0 if i == j else cross_weight(sorted(a), sorted(b))
                for j, b in enumerate(blocks)
            ]
            for i, a in enumerate(blocks)
        ]
        assert w[0][1] < w[1][0] and w[1][2] < w[2][1] and w[2][0] < w[0][2]
        cost, _ = solve_block_order(w, [0, 1, 2])
        expected, _ = brute_force_order(w)
        assert cost == expected

    def test_lexicographic_tie_break(self):
        # all-zero weights: every order is optimal, keys decide
        w = [[0] * 4 for _ in range(4)]
        _, order = solve_block_order(w, [9, 2, 5, 0])
        assert order == [3, 1, 2, 0]

    def test_python_and_vector_paths_agree(self):
        rng = random.Random(2)
        for m in range(1, 13):
            w = random_weights(rng, m, hi=20)
            assert list(_subset_costs_py(w, m)) == list(_subset_costs_np(w, m))

    def test_large_row_sums_do_not_overflow(self):
        # Row sums reach 11 * 3e8 > 2^31: the vector table must widen to int64.
        m = 12
        w = [
            [0 if i == j else 3 * 10**8 if i > j else 1 for j in range(m)]
            for i in range(m)
        ]
        assert list(_subset_costs_np(w, m)) == _subset_costs_py(w, m)
        cost, order = solve_block_order(w, list(range(m)), cap=22)
        assert order == list(range(m))
        assert cost == m * (m - 1) // 2

    def test_capacity_error(self):
        m = 23
        w = [[0] * m for _ in range(m)]
        with pytest.raises(CapacityError):
            solve_block_order(w, list(range(m)))
