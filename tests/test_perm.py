import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_kendall, ordered_pairs_diff, reverse_block, slide_block
from minla import InstanceMismatchError, Permutation, count_inversions, kendall_tau


def random_perm(rng: random.Random, n: int) -> Permutation:
    order = list(range(n))
    rng.shuffle(order)
    return Permutation(order)


class TestPermutation:
    def test_dual_representation_inverse(self):
        p = Permutation([2, 0, 3, 1])
        assert all(p.node_at[p.pos_of[v]] == v for v in range(4))
        assert all(p.pos_of[p.node_at[i]] == i for i in range(4))

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError):
            Permutation([0, 2])

    @pytest.mark.parametrize(
        "node_at",
        [(0, -1), (0, 2), (1, 1), (0, 1.0), (0, "1"), (0, np.int64(1)), (True, False)],
        ids=["negative", "too-large", "duplicate", "float", "str", "numpy-int", "bool"],
    )
    def test_refusal_names_the_input(self, node_at):
        with pytest.raises(ValueError) as err:
            Permutation(node_at)
        assert str(err.value) == f"not a permutation of 0..1: {node_at!r}"
        with pytest.raises(ValueError) as err:
            Permutation(iter(node_at))
        assert str(err.value) == f"not a permutation of 0..1: {node_at!r}"

    @pytest.mark.parametrize("n", [True, 3.0, np.int64(3), "3"],
                             ids=["bool", "float", "numpy-int", "str"])
    def test_identity_takes_a_plain_int(self, n):
        # Unchecked, True builds Permutation([0]) and np.int64(3) an identity.
        with pytest.raises(TypeError, match=re.escape(f"identity takes an int n, got {n!r}")):
            Permutation.identity(n)

    def test_from_text_refusals(self):
        with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.2: \(0, 2, 2\)$"):
            Permutation.from_text("0 2 2")
        with pytest.raises(ValueError, match=r"invalid literal for int\(\) with base 10: '1\.0'"):
            Permutation.from_text("0 1.0")
        assert Permutation.from_text(" +1\t0_0 ").node_at == (1, 0)
        assert Permutation.from_text("") == Permutation([])

    def test_text_round_trip(self):
        p = Permutation([3, 1, 0, 2])
        assert p.to_text() == "3 1 0 2"
        assert Permutation.from_text(p.to_text()) == p


class TestKendallTau:
    def test_identity_is_zero(self):
        p = Permutation([0, 1, 2, 3])
        assert kendall_tau(p, p) == 0

    def test_full_reversal(self):
        assert kendall_tau(Permutation([0, 1, 2]), Permutation([2, 1, 0])) == 3

    def test_worked_example(self):
        p, q = Permutation([2, 0, 1, 3]), Permutation([0, 1, 2, 3])
        assert kendall_tau(p, q) == 2
        assert naive_kendall(p, q) == 2

    def test_length_mismatch(self):
        with pytest.raises(InstanceMismatchError):
            kendall_tau(Permutation([0, 1]), Permutation([0, 1, 2]))

    def test_matches_naive_counter(self):
        rng = random.Random(1)
        for _ in range(1000):
            n = rng.randint(1, 64)
            p, q = random_perm(rng, n), random_perm(rng, n)
            assert kendall_tau(p, q) == naive_kendall(p, q)

    def test_metric_axioms(self):
        rng = random.Random(2)
        for _ in range(10_000):
            n = rng.randint(1, 12)
            p, q, r = (random_perm(rng, n) for _ in range(3))
            assert kendall_tau(p, p) == 0
            d_pq = kendall_tau(p, q)
            assert d_pq == kendall_tau(q, p)
            assert d_pq <= kendall_tau(p, r) + kendall_tau(r, q)

    def test_reversal_hits_pair_count(self):
        rng = random.Random(3)
        for n in range(1, 15):
            p = random_perm(rng, n)
            assert kendall_tau(p, Permutation(p.node_at[::-1])) == n * (n - 1) // 2

    @given(st.permutations(list(range(6))), st.permutations(list(range(6))))
    def test_hypothesis_naive_agreement(self, a, b):
        p, q = Permutation(a), Permutation(b)
        assert kendall_tau(p, q) == naive_kendall(p, q)


class TestOrderedPairsDiff:
    def test_identity(self):
        p = Permutation([0, 1])
        assert ordered_pairs_diff(p, p) == 0

    def test_single_flip(self):
        assert ordered_pairs_diff(Permutation([0, 1]), Permutation([1, 0])) == 1

    def test_equals_kendall_tau(self):
        rng = random.Random(4)
        for _ in range(300):
            p, q = random_perm(rng, 8), random_perm(rng, 8)
            assert ordered_pairs_diff(p, q) == kendall_tau(p, q)


class TestBlockEdits:
    # Block slides and reversals (built by the test helpers) against the
    # library's Kendall-tau distance.
    def test_move_block_worked_example(self):
        p = Permutation([0, 1, 2, 3, 4])
        moved, cost = slide_block(p, 1, 2, 2)
        assert moved == Permutation([0, 3, 1, 2, 4])
        assert cost == 2

    def test_zero_displacement(self):
        p = Permutation([4, 2, 0, 1, 3])
        moved, cost = slide_block(p, 1, 3, 1)
        assert moved == p
        assert cost == 0

    def test_move_cost_is_distance(self):
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(2, 10)
            p = random_perm(rng, n)
            length = rng.randint(1, n)
            start = rng.randint(0, n - length)
            dest = rng.randint(0, n - length)
            moved, cost = slide_block(p, start, length, dest)
            assert cost == kendall_tau(p, moved) == naive_kendall(p, moved)

    def test_move_preserves_outside_order(self):
        p = Permutation([5, 0, 3, 1, 4, 2])
        moved, _ = slide_block(p, 2, 2, 4)
        outside = [v for v in p.node_at if v not in (3, 1)]
        assert [v for v in moved.node_at if v not in (3, 1)] == outside

    # A block reversal is C(length, 2) swaps away.
    def test_reverse_singleton(self):
        p = Permutation([1, 0, 2])
        assert reverse_block(p, 1, 1) == p
        assert kendall_tau(p, reverse_block(p, 1, 1)) == 0

    def test_reverse_length_three(self):
        p = Permutation([0, 1, 2, 3])
        reversed_p = reverse_block(p, 0, 3)
        assert reversed_p == Permutation([2, 1, 0, 3])
        assert kendall_tau(p, reversed_p) == 3

    def test_reverse_cost_is_distance(self):
        rng = random.Random(6)
        for _ in range(400):
            n = rng.randint(1, 9)
            p = random_perm(rng, n)
            length = rng.randint(1, n)
            start = rng.randint(0, n - length)
            reversed_p = reverse_block(p, start, length)
            assert kendall_tau(p, reversed_p) == length * (length - 1) // 2

    def test_reverse_positions_2_to_5(self):
        rng = random.Random(7)
        p = random_perm(rng, 9)
        reversed_p = reverse_block(p, 2, 4)
        assert kendall_tau(p, reversed_p) == 6 == naive_kendall(p, reversed_p)


@settings(max_examples=200)
@given(st.lists(st.integers(-50, 50), max_size=40))
def test_count_inversions_matches_quadratic(seq):
    naive = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    assert count_inversions(seq) == naive
