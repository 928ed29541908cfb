import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

import minla.algorithms
import minla.oracle
from conftest import (
    TRACE_SETTINGS,
    all_permutations,
    make_trace,
    minla_optimum,
    ordered_pairs_diff,
    reference_exhaustive_opt,
    reference_harmonic_bounds,
    reference_identity_floats,
    reference_identity_rows,
    reference_left_right_probability,
    replay_components,
    valid_traces,
)
from minla import (
    CapacityError,
    ComponentPartition,
    InstanceMismatchError,
    Model,
    Permutation,
    RevealTrace,
    arrangement_cost,
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
    verify_lemma,
)
from minla.oracle import _identity_sides


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
                    assert is_minla(opt.witness, replay_components(trace, i))

    def test_capacity_cap(self, monkeypatch):
        # 2 (cap + 1) nodes joined in pairs: 11 multi-node components.
        monkeypatch.setattr(minla.ordering, "CAP_BITS", 10)
        trace = make_trace(Model.CLIQUES, 22, [(i, i + 1) for i in range(0, 22, 2)])
        with pytest.raises(CapacityError, match="11 multi-node components"):
            dp_opt(trace)

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_capacity_checked_before_weights(self, model, monkeypatch):
        def no_weights(*args):
            raise AssertionError("weights built for an over-cap input")

        monkeypatch.setattr(minla.ordering, "_costs", no_weights)
        with pytest.raises(CapacityError):
            dp_opt(make_trace(model, 1000, [(i, i + 1) for i in range(0, 46, 2)]))

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_capacity_counts_singletons(self, model, monkeypatch):
        # 5 pairs stay under a cap of 10 components, but with 50 singletons
        # they need 51 * 2^5 > 2^10 states.
        trace = make_trace(model, 60, [(i, i + 1) for i in range(0, 10, 2)])
        monkeypatch.setattr(minla.ordering, "CAP_BITS", 10)
        with pytest.raises(CapacityError, match="5 multi-node components and 50 singletons"):
            dp_opt(trace)
        monkeypatch.setattr(minla.ordering, "CAP_BITS", 11)
        assert dp_opt(trace).cost == 0

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_partial_trace_past_the_old_cap(self, model):
        trace = random_trace(model, 60, seed=61, events=30)
        opt = dp_opt(trace)
        assert kendall_tau(trace.pi0, opt.witness) == opt.cost
        for i in range(trace.k + 1):
            assert is_minla(opt.witness, replay_components(trace, i))


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

    @TRACE_SETTINGS
    @given(valid_traces(max_n=6))
    def test_matches_dp_on_every_trace(self, trace):
        assert exhaustive_opt(trace).cost == dp_opt(trace).cost

    def test_rejects_large_n(self):
        with pytest.raises(CapacityError):
            exhaustive_opt(make_trace(Model.LINES, 8, []))


class TestExhaustiveMatchesReference:
    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_cost_and_witness(self, model):
        rng = random.Random(41 if model is Model.CLIQUES else 42)
        for i in range(1050):
            n = 1 + i % 7
            events = n - 1 if i % 2 else rng.randint(0, n - 1)
            trace = random_trace(model, n, seed=rng.random(), events=events)
            got, want = exhaustive_opt(trace), reference_exhaustive_opt(trace)
            assert (got.cost, got.witness) == (want.cost, want.witness), trace

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_empty_trace_keeps_pi0(self, model):
        trace = make_trace(model, 7, [], pi0=Permutation([3, 1, 6, 0, 5, 2, 4]))
        assert exhaustive_opt(trace) == reference_exhaustive_opt(trace)
        assert exhaustive_opt(trace).witness == trace.pi0


HOLDS = (True, True, True)


def _batch_bounds(batch):
    """``check_harmonic_bounds`` on a batch, as one (ratio, square,
    adjacent) tuple of bools per series."""
    ok = check_harmonic_bounds(batch)
    assert len(ok) == 3
    assert all(x.shape == (len(batch),) and x.dtype == bool for x in ok)
    return [tuple(map(bool, row)) for row in zip(*ok)]


def _alone(series):
    """``check_harmonic_bounds`` on a batch of one series."""
    (row,) = _batch_bounds([series])
    return row


@pytest.fixture
def at_most_calls(monkeypatch):
    """Every exact comparison ``check_harmonic_bounds`` makes, as (nums,
    dens) pairs."""
    calls = []
    real = minla.oracle._at_most

    def counting(nums, dens, bound):
        calls.append((list(nums), list(dens)))
        return real(nums, dens, bound)

    monkeypatch.setattr(minla.oracle, "_at_most", counting)
    return calls


class TestHarmonicBoundsMatchReference:
    """Batch rows, batches of one and the ``Fraction`` reference agree."""

    def test_random_series(self):
        rng = random.Random(43)
        drawn = []
        for i in range(5000):
            length = i % 3 + 1 if i < 600 else rng.randint(1, 60)
            if i % 10 == 9:
                series = [1] * length
            else:
                series = [rng.randint(1, 40) for _ in range(length)]
            expected = reference_harmonic_bounds(series)
            assert _alone(series) == expected, series
            drawn.append((series, expected))
        # The same series in mixed-length batches of every size up to 1,000.
        start = 0
        for size in itertools.cycle((1, 2, 3, 17, 256, 1_000)):
            chunk = drawn[start:start + size]
            if not chunk:
                break
            assert _batch_bounds([s for s, _ in chunk]) == [e for _, e in chunk]
            start += size

    @pytest.mark.parametrize("length", [1, 2])
    def test_empty_sums(self, length):
        # Length 1 leaves the square and adjacent sums empty, length 2 the
        # adjacent sum; [1] and [1, 1] tie their ratio sums with H_S.
        rng = random.Random(length)
        batch = [[rng.randint(1, 40) for _ in range(length)] for _ in range(200)]
        batch.append([1] * length)
        expected = [reference_harmonic_bounds(series) for series in batch]
        assert _batch_bounds(batch) == expected
        assert [_alone(series) for series in batch] == expected

    def test_all_ones_ties_reach_the_exact_comparison(self, at_most_calls):
        # The ratio sum of L ones is H_L exactly.  Summed in floats it reads
        # above fl(H_L) at some lengths, so a float comparison would fail
        # them.  Every such tie, and no other sum, goes to _at_most.
        lengths = range(1, 401)
        above = [
            n for n in lengths
            if (np.ones(n) / np.arange(1.0, n + 1)).sum() > float(harmonic_number(n))
        ]
        assert above
        batch = [[1] * n for n in lengths]
        assert _batch_bounds(batch) == [HOLDS] * 400
        assert [nums for nums, _ in at_most_calls] == batch
        assert [dens for _, dens in at_most_calls] == [list(range(1, n + 1)) for n in lengths]
        for series in batch:
            assert _alone(series) == reference_harmonic_bounds(series)

    def test_floats_decide_sums_far_from_the_bound(self, at_most_calls):
        rng = random.Random(46)
        batch = [[rng.randint(2, 40) for _ in range(rng.randint(1, 60))] for _ in range(500)]
        assert _batch_bounds(batch) == [reference_harmonic_bounds(s) for s in batch]
        assert at_most_calls == []

    def test_a_row_reads_the_same_alone_and_in_a_batch(self):
        rng = random.Random(47)
        for _ in range(5):
            batch = [
                [1] * rng.randint(1, 60) if i % 8 == 0
                else [rng.randint(1, 150) for _ in range(rng.randint(1, 60))]
                for i in range(40)
            ]
            rows = _batch_bounds(batch)
            assert rows == [_alone(series) for series in batch]
            assert rows == [reference_harmonic_bounds(series) for series in batch]

    def test_totals_at_the_cap_are_decided_exactly(self, at_most_calls):
        # A total of exactly 10^4 is in range.  All ones tie the ratio sum
        # with H_S, which only the exact comparison decides.
        batch = [[1] * 10_000, [10_000], [2] * 5_000]
        expected = [reference_harmonic_bounds(series) for series in batch]
        assert expected == [HOLDS] * 3
        assert _batch_bounds(batch) == expected
        assert at_most_calls == [([1] * 10_000, list(range(1, 10_001)))]
        assert [_alone(series) for series in batch] == expected

    @pytest.mark.parametrize(
        "batch,index,total",
        [
            ([[1] * 10_001], 0, 10_001),
            ([[2**25]], 0, 2**25),
            ([[1, 2**70]], 0, 2**70 + 1),
            ([[1, 2], [3], [5_000, 5_001], [2**25]], 2, 10_001),
        ],
        ids=["ones", "2^25", "2^70", "third"],
    )
    def test_totals_past_the_cap_raise(
        self, batch, index, total, monkeypatch, at_most_calls
    ):
        # Neither a row sum nor any H_S is built: stubs that fail on use
        # stand in for both.
        def unused(*args):
            raise AssertionError("built past the cap")

        for name in ("_pair_sums", "_harmonic_float", "harmonic_number"):
            monkeypatch.setattr(minla.oracle, name, unused)
        with pytest.raises(CapacityError, match=rf"^series {index} sums to {total};"):
            check_harmonic_bounds(batch)
        assert at_most_calls == []
        assert len(minla.oracle._harmonic_cache) <= 10_001


class TestIdentityFloatsMatchReference:
    """Every row of a batch, bit for bit against the row-product reference."""

    def test_bit_identical(self):
        rng = random.Random(44)
        rows = 0
        for n in range(1, 13):
            for m in (1, 2, 5, 31, 256):
                a = [[rng.uniform(0.0, 10.0) for _ in range(n)] for _ in range(m)]
                b = [[rng.uniform(0.0, 1.0) for _ in range(n)] for _ in range(m)]
                # Rows with b entries exactly 0.0 and 1.0 beside free rows.
                for row in b[::3]:
                    row[rng.randrange(n)] = float(rng.randint(0, 1))
                b[-1][0] = 0.0
                b[-1][-1] = 1.0
                sides = _identity_sides(np.asarray(a), np.asarray(b))
                assert all(side.shape == (m,) for side in sides)
                for i in range(m):
                    got = tuple(float(side[i]) for side in sides)
                    assert got == reference_identity_floats(a[i], b[i]), (a[i], b[i])
                    rows += 1
        assert rows == 12 * 295

    def test_a_row_reads_the_same_alone_and_in_a_batch(self, monkeypatch):
        # At a tolerance of 1e-12 some rows fail, so both outcomes occur.
        monkeypatch.setattr(minla.oracle, "_IDENTITY_TOL", 1e-12)
        rng = random.Random(45)
        for n in (1, 4, 10):
            a = [[rng.uniform(0.0, 10.0) for _ in range(n)] for _ in range(40)]
            b = [[rng.uniform(0.0, 1.0) for _ in range(n)] for _ in range(40)]
            eq_ok, le_ok = check_identity_lemmas(a, b)
            assert eq_ok.shape == le_ok.shape == (40,)
            assert eq_ok.dtype == le_ok.dtype == bool
            for i in range(40):
                assert _identity(a[i], b[i]) == (eq_ok[i], le_ok[i])

    def test_sweep_maps_each_failure_to_its_check(self, monkeypatch):
        # Only the N = 3 rows fail the equality: the sweep counts exactly the
        # N = 3 instances the literal draws hold, and no inequality failure.
        real = minla.oracle._identity_sides

        def n3_fails(av, bv):
            lhs_eq, rhs_eq, lhs_le, rhs_le = real(av, bv)
            return lhs_eq + (av.shape[1] == 3), rhs_eq, lhs_le, rhs_le

        monkeypatch.setattr(minla.oracle, "_identity_sides", n3_fails)
        for seed in (1, 2):
            report = verify_lemma("identities", trials=1_300, seed=seed)
            _, drawn = reference_identity_rows(1_300, random.Random(seed))
            n3 = sum(len(a) == 3 for a, _ in drawn)
            assert n3 > 0
            assert [row.deviations for row in report.rows] == [n3, 0]
            assert not report.ok


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

    def test_matches_literal_pair_count(self):
        rng = random.Random(26)
        for _ in range(300):
            n = rng.randint(2, 40)
            order = list(range(n))
            rng.shuffle(order)
            nodes = list(range(n))
            rng.shuffle(nodes)
            size_a = rng.randint(1, n - 1)
            a, b = nodes[:size_a], nodes[size_a : rng.randint(size_a + 1, n)]
            pi0 = Permutation(order)
            expected = reference_left_right_probability(a, b, pi0)
            assert left_right_probability(a, b, pi0) == expected

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            left_right_probability({0, 1}, {1, 2}, Permutation.identity(3))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="groups must be nonempty"):
            left_right_probability([], [1], Permutation.identity(2))

    @pytest.mark.parametrize("group_a, group_b", [
        ([True], [0]), ([0], [False]), ([1, True], [0]), ([0], [1.0]), ([np.int64(1)], [0]),
    ])
    def test_non_int_ids_rejected(self, group_a, group_b):
        # Unchecked, ([True], [0]) reads node 1 and returns 0, and
        # ([1, True], [0]) collapses to {1}.
        with pytest.raises(TypeError, match=r"^group_a and group_b ids must be ints: "):
            left_right_probability(group_a, group_b, Permutation.identity(3))

    @pytest.mark.parametrize("group_a, group_b", [
        ([0], [-1]), ([0], [5]), ([-5], [1]), ([0, 7], [1, 2]),
    ])
    def test_out_of_range_ids_rejected(self, group_a, group_b):
        # -1 would read node 4's position, and 5 none at all.
        assert left_right_probability([0], [4], Permutation.identity(5)) == 1
        with pytest.raises(ValueError, match=r"node ids must lie in 0\.\.4"):
            left_right_probability(group_a, group_b, Permutation.identity(5))


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

    @pytest.mark.parametrize("path", [[True, 0], [0, 1.0, 2], [np.int64(0), 1], [True]])
    def test_non_int_ids_rejected(self, path):
        # Unchecked, [True, 0] reads node 1 and returns 0.
        with pytest.raises(TypeError, match=r"^path_order node ids must be ints, got "):
            orientation_probability(path, Permutation.identity(3))

    @pytest.mark.parametrize("path", [[0, -1], [4, 5], [-2, 0, 1], [3, 9, 4]])
    def test_out_of_range_ids_rejected(self, path):
        with pytest.raises(ValueError, match=r"node ids must lie in 0\.\.4"):
            orientation_probability(path, Permutation.identity(5))

    @pytest.mark.parametrize("path, repeated", [
        ([0, 0], r"\[0\]"), ([0, 1, 0], r"\[0\]"), ([2, 1, 2, 1, 3], r"\[1, 2\]"),
    ])
    def test_repeated_nodes_rejected(self, path, repeated):
        # Unchecked, [0, 0] read 1 and [0, 1, 0] read 2/3.
        with pytest.raises(ValueError, match="path repeats nodes: " + repeated):
            orientation_probability(path, Permutation.identity(5))


class TestHarmonic:
    def test_small_values(self):
        assert harmonic_number(1) == 1
        assert harmonic_number(2) == Fraction(3, 2)
        assert harmonic_number(5) == Fraction(137, 60)

    def test_raises_past_the_cap(self):
        assert harmonic_number(10_000) == harmonic_number(9_999) + Fraction(1, 10_000)
        assert math.isclose(harmonic_number(10_000), 9.787606036044382264, rel_tol=1e-15)
        for s in (10_001, 2**40):
            with pytest.raises(CapacityError, match=f"up to s = 10000, got {s}$"):
                harmonic_number(s)
        assert len(minla.oracle._harmonic_cache) == 10_001

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_number(0)

    @pytest.mark.parametrize("s", [True, 2.0, np.int64(2), "2", Fraction(2)],
                             ids=["bool", "float", "numpy-int", "str", "fraction"])
    def test_rejects_non_ints(self, s):
        # Unchecked, harmonic_number(True) returns H_1.
        with pytest.raises(TypeError, match=r"^s must be an int, got "):
            harmonic_number(s)


class TestHarmonicBounds:
    def test_tight_boundary(self):
        # 1/1 + 1/2 equals H_2 exactly
        assert _alone([1, 1]) == HOLDS

    def test_small_series(self):
        assert _alone([2, 3]) == HOLDS

    def test_random_sweep(self):
        rng = random.Random(27)
        batch = [[rng.randint(1, 20) for _ in range(rng.randint(1, 50))] for _ in range(400)]
        assert _batch_bounds(batch) == [HOLDS] * 400

    def test_takes_batches_only(self):
        # An empty batch, or one flat series passed as the batch.
        for batch in ([], [1, 2], [np.int64(3)], np.array([1, 2]), (5,)):
            with pytest.raises(ValueError, match="nonempty batch"):
                check_harmonic_bounds(batch)

    def test_rejects_bad_series(self):
        for batch in ([[]], [[1, 0]], [[-2]], [[1, 2], []], [[1, 2], [3, -1]]):
            with pytest.raises(ValueError, match="nonempty positive integers"):
                check_harmonic_bounds(batch)

    @pytest.mark.parametrize(
        "entry", [2.0, 1.5, np.float64(3.0), Fraction(3), "2"], ids=repr
    )
    def test_rejects_non_integer_entries(self, entry):
        # No entry is ever summed as a float, not even an integral one, and a
        # string is named as such, not reported by a numpy ufunc.
        for batch in ([[1, entry]], [[entry, 1]], [[3], [1, entry]]):
            with pytest.raises(TypeError, match="object cannot be interpreted as an integer"):
                check_harmonic_bounds(batch)

    def test_value_errors_come_before_type_errors(self):
        for batch in ([[], [1.5]], [[0, 1.5]], [[2], [1.5, -1]], [[True, 0]]):
            with pytest.raises(ValueError):
                check_harmonic_bounds(batch)

    @pytest.mark.parametrize("batch", [
        [[True, 2]], [[np.int64(2), True, 3]], [[np.uint64(2), 1], [1, 1]], [[3], [1, np.int32(1)]],
    ], ids=["bool", "numpy-int", "numpy-uint", "later-series"])
    def test_bools_and_numpy_ints_refused(self, batch):
        # Unchecked, [[True, 2]] is checked as the series (1, 2).
        with pytest.raises(TypeError, match=r"^series entries must be ints, got "):
            check_harmonic_bounds(batch)


def _identity(a, b):
    """``check_identity_lemmas`` on a batch of one instance, as two bools."""
    eq_ok, le_ok = check_identity_lemmas([a], [b])
    assert eq_ok.shape == le_ok.shape == (1,)
    return bool(eq_ok[0]), bool(le_ok[0])


class TestIdentityChecks:
    def test_single_term(self):
        assert _identity([3.5], [0.25]) == (True, True)

    def test_worked_example(self):
        assert _identity([1, 6, 3], [0.5, 0.5, 0.5]) == (True, True)

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
        assert _identity(a, b) == (True, True)

    def test_random_sweep(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 10)
            a = [rng.uniform(0, 10) for _ in range(n)]
            b = [rng.uniform(0, 1) for _ in range(n)]
            assert _identity(a, b) == (True, True)

    def test_exact_instances_hold_at_zero_tolerance(self, monkeypatch):
        # The tolerance is read at every call.  Rounded random rows hold at
        # 1e-9 and some fail at 0; one term, or b = 1/2 on small integers,
        # makes both sides of each check equal floats.
        rng = random.Random(30)
        a = [[rng.uniform(0.0, 10.0) for _ in range(6)] for _ in range(50)]
        b = [[rng.uniform(0.0, 1.0) for _ in range(6)] for _ in range(50)]
        assert all(ok.all() for ok in check_identity_lemmas(a, b))
        monkeypatch.setattr(minla.oracle, "_IDENTITY_TOL", 0.0)
        assert not all(ok.all() for ok in check_identity_lemmas(a, b))
        assert _identity([3.5], [0.25]) == (True, True)
        assert _identity([2.0, 4.0], [0.5, 0.5]) == (True, True)

    def test_takes_batches_only(self):
        for a, b in (([1.0, 2.0], [0.5, 0.5]), ([1.0] * 13, [0.5] * 13), (3.5, 0.25)):
            with pytest.raises(ValueError, match=r"\(m, N\) batches"):
                check_identity_lemmas(a, b)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_identity_lemmas([[1.0]], [[1.5]])
        with pytest.raises(ValueError):
            check_identity_lemmas([[1.0], [2.0]], [[0.5], [-0.5]])
        with pytest.raises(ValueError):
            check_identity_lemmas([[1.0] * 13], [[0.5] * 13])
        with pytest.raises(ValueError):
            check_identity_lemmas([[1.0, 2.0]], [[0.5]])
        with pytest.raises(ValueError):
            check_identity_lemmas([[]], [[]])

    @pytest.mark.parametrize("a", [
        [[math.nan]], [[math.inf, 1.0]], [[1.0, -math.inf]], [[1.0], [math.nan]],
    ])
    def test_rejects_non_finite_a(self, a):
        # Unchecked, these read as failed lemmas, with numpy RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="a entries must be finite"):
                check_identity_lemmas(a, [[0.5] * len(a[0])] * len(a))


    @pytest.mark.parametrize("a", [[[-1.0, 5.0]], [[0.0, -1e-300]], [[1.0], [-2.0]]])
    def test_rejects_negative_a(self, a):
        # The inequality is stated for nonnegative a only: [-1, 5] read as
        # an equality that holds and a product bound that fails.
        with pytest.raises(ValueError, match=r"a entries must be finite and lie in \[0, "):
            check_identity_lemmas(a, [[0.5] * len(a[0])] * len(a))

    @pytest.mark.parametrize("a", [[[1e300, 1e300]], [[1e150, 1e150]], [[2e149] * 6]])
    def test_rejects_row_sums_past_1e150(self, a):
        # Past it the products overflow: [1e300, 1e300] read as holding,
        # with numpy overflow warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"lie in \[0, 1e150 / N\]"):
                check_identity_lemmas(a, [[0.5] * len(a[0])] * len(a))

    def test_row_sums_up_to_1e150_are_checked_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _identity([1e150], [0.25]) == (True, True)
            assert _identity([5e149, 5e149], [0.5, 0.5]) == (True, True)
            check_identity_lemmas([[1e150 / 12] * 12], [[0.5] * 12])

    def test_tolerance_scales_with_the_sides(self):
        # The sides' rounding grows with a: at an absolute 1e-9, 9 of these
        # rows fail the equality with a in [0, 1e6) and 132 with a in
        # [0, 1e7), though both sides are equal in exact arithmetic.
        rng = np.random.default_rng(0)
        b = rng.random((200, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for top, absolute_fails in ((1e6, 9), (1e7, 132)):
                a = rng.uniform(0.0, top, (200, 12))
                lhs_eq, rhs_eq, _, _ = _identity_sides(a, b)
                assert int((np.abs(lhs_eq - rhs_eq) > 1e-9).sum()) == absolute_fails
                assert all(ok.all() for ok in check_identity_lemmas(a, b))
            assert _identity([1e150 / 12] * 12, [0.5] * 12) == (True, True)


class TestBoundForTrace:
    def test_zero_opt(self):
        trace = make_trace(Model.CLIQUES, 4, [(0, 1)])
        assert bound_for_trace(trace, dp_opt(trace)) == 0.0

    @pytest.mark.parametrize("model, factor", [(Model.CLIQUES, 4), (Model.LINES, 8)])
    def test_factor_times_h_n_times_opt(self, model, factor):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randint(2, 24)
            k = rng.randint(0, n - 1)
            trace = random_trace(model, n, seed=rng.randrange(1 << 48), events=k)
            opt = dp_opt(trace)
            assert bound_for_trace(trace, opt) == float(factor * harmonic_number(n) * opt.cost)

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

    def test_refuses_another_traces_optimum(self):
        # Unchecked, a 6-node line trace read a 9-node optimum as 294.0.
        small = make_trace(Model.LINES, 6, [(0, 1)])
        opt = dp_opt(random_trace(Model.LINES, 9, seed=2))
        with pytest.raises(InstanceMismatchError, match="^optimum of 9 nodes, trace of 6$"):
            bound_for_trace(small, opt)


def partition(n, model, groups):
    """The partition into ``groups`` (for lines, each read as a path order),
    built by merging each group's nodes pair by pair."""
    parts = ComponentPartition(n, model)
    for g in groups:
        for a, b in zip(g, g[1:]):
            parts.merge(a, b)
    return parts


class TestArrangementCost:
    def test_single_edge_adjacent(self):
        parts = partition(2, Model.LINES, [[0, 1]])
        assert arrangement_cost(Permutation([0, 1]), parts) == 1

    def test_clique_triangle_contiguous(self):
        parts = partition(3, Model.CLIQUES, [[0, 1, 2]])
        assert arrangement_cost(Permutation([0, 1, 2]), parts) == 4

    def test_empty_graph(self):
        parts = partition(3, Model.CLIQUES, [[0], [1], [2]])
        assert arrangement_cost(Permutation([2, 0, 1]), parts) == 0

    def test_clique_cost_matches_pair_enumeration(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(2, 8)
            nodes = list(range(n))
            rng.shuffle(nodes)
            cut = rng.randint(1, n)
            parts = partition(n, Model.CLIQUES, [nodes[:cut], *[[v] for v in nodes[cut:]]])
            order = list(range(n))
            rng.shuffle(order)
            p = Permutation(order)
            expected = sum(
                abs(p.pos_of[a] - p.pos_of[b])
                for i, a in enumerate(nodes[:cut])
                for b in nodes[i + 1 : cut]
            )
            assert arrangement_cost(p, parts) == expected


class TestMinlaOptimum:
    """The cost of a contiguous layout against the closed-form optimum."""

    def test_clique_of_three(self):
        parts = partition(3, Model.CLIQUES, [[0, 1, 2]])
        p = Permutation([2, 0, 1])
        assert arrangement_cost(p, parts) == minla_optimum(
            parts, Model.CLIQUES
        ) == 4

    def test_path_of_five(self):
        parts = partition(5, Model.LINES, [[0, 1, 2, 3, 4]])
        p = Permutation([4, 3, 2, 1, 0])
        assert arrangement_cost(p, parts) == minla_optimum(
            parts, Model.LINES
        ) == 4

    def test_all_singletons(self):
        parts = partition(4, Model.CLIQUES, [[v] for v in range(4)])
        p = Permutation([3, 1, 0, 2])
        assert arrangement_cost(p, parts) == minla_optimum(
            parts, Model.CLIQUES
        ) == 0

    def test_matches_exhaustive_minimum(self):
        rng = random.Random(2)
        for model in (Model.CLIQUES, Model.LINES):
            for s in range(1, 7):
                extras = rng.randint(0, 2)
                n = s + extras
                groups = [list(range(s))] + [[s + i] for i in range(extras)]
                parts = partition(n, model, groups)
                best = min(
                    arrangement_cost(p, parts) for p in all_permutations(n)
                )
                assert minla_optimum(parts, model) == best


class TestSizeMismatch:
    """A permutation and a partition over different node counts are
    rejected, as ``kendall_tau`` rejects two permutations."""

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    @pytest.mark.parametrize("node_at", [[0, 1, 2], [5, 0, 1, 2, 3, 4]])
    def test_is_minla_and_cost_reject(self, model, node_at):
        # [0, 1, 2] never reaches the pair {3, 4}: it read as feasible.
        parts = partition(5, model, [[0], [1], [2], [3, 4]])
        assert is_minla(Permutation([0, 1, 2, 3, 4]), parts)
        for check in (is_minla, arrangement_cost):
            with pytest.raises(InstanceMismatchError, match="permutation of"):
                check(Permutation(node_at), parts)


class TestIsMinla:
    def test_non_contiguous_clique(self):
        parts = partition(4, Model.CLIQUES, [[0, 1, 2], [3]])
        assert not is_minla(Permutation([0, 3, 1, 2]), parts)

    def test_reversed_path_block(self):
        parts = partition(3, Model.LINES, [[0, 1, 2]])
        assert is_minla(Permutation([2, 1, 0]), parts)

    def test_scrambled_path_block(self):
        parts = partition(3, Model.LINES, [[0, 1, 2]])
        p = Permutation([1, 0, 2])
        assert not is_minla(p, parts)
        assert arrangement_cost(p, parts) == 3

    def test_characterization_equivalence_smoke(self):
        rng = random.Random(3)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(12):
                n = rng.randint(2, 6)
                nodes = list(range(n))
                rng.shuffle(nodes)
                groups = []
                i = 0
                while i < n:
                    size = rng.randint(1, n - i)
                    groups.append(nodes[i : i + size])
                    i += size
                parts = partition(n, model, groups)
                perms = all_permutations(n)
                best = min(arrangement_cost(p, parts) for p in perms)
                for p in perms:
                    assert is_minla(p, parts) == (
                        arrangement_cost(p, parts) == best
                    )

    def test_nested_feasibility_for_lines(self):
        # any layout feasible for the final graph is feasible for every prefix
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(2, 10)
            trace = random_trace(Model.LINES, n, seed=rng.random())
            final = replay_components(trace, trace.k)
            blocks = list(final.nodes.values())
            for _ in range(20):
                rng.shuffle(blocks)
                layout = []
                for block in blocks:
                    layout.extend(block if rng.random() < 0.5 else block[::-1])
                p = Permutation(layout)
                assert is_minla(p, final)
                for i in range(trace.k + 1):
                    assert is_minla(p, replay_components(trace, i))
