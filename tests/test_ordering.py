import itertools
import random
from itertools import accumulate
from operator import add

import pytest

import minla.ordering
from conftest import (
    _costs_py,
    _subset_costs_np,
    _subset_costs_py,
    reference_layout,
    replay_components,
)
from minla import CapacityError, Model, random_trace
from minla.algorithms import _oriented_path
from minla.ordering import _costs, cross_weight, solve_block_order, solve_block_orders


def brute_force_layout(seqs, sorted_pos):
    """Least cross cost over every order of the blocks, singletons included,
    and the lexicographically smallest node sequence attaining it."""
    return min(
        (
            sum(
                cross_weight(sorted_pos[a], sorted_pos[b])
                for x, a in enumerate(order)
                for b in order[x + 1 :]
            ),
            [v for i in order for v in seqs[i]],
        )
        for order in itertools.permutations(range(len(seqs)))
    )


def random_weights(rng, m, hi=9):
    return [[0 if i == j else rng.randint(0, hi) for j in range(m)] for i in range(m)]


def identity_layout(blocks):
    """Blocks of nodes at the reference positions equal to their ids."""
    return [list(b) for b in blocks], [sorted(b) for b in blocks]


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
        assert solve_block_order([[7]], [[3]]) == (0, [7])
        # A single block keeps its internal order.
        assert solve_block_order([[4, 1, 2]], [[0, 1, 2]]) == (0, [4, 1, 2])

    def test_matches_brute_force(self):
        # Every order of up to 7 blocks and singletons: the least cost, and
        # the lexicographically smallest node sequence among its orders.
        rng = random.Random(1)
        for _ in range(120):
            total = rng.randint(2, 7)
            m = rng.randint(0, total)
            seqs, sorted_pos = random_layout(rng, m, total - m, spare=2)
            assert solve_block_order(seqs, sorted_pos) == brute_force_layout(
                seqs, sorted_pos
            )

    def test_cyclic_preferences_still_exact(self):
        # pairwise majorities can cycle; the subset program must not rely on
        # a total sort. blocks {0,5,7}, {1,3,8}, {2,4,6} prefer a<b<c<a.
        seqs, sorted_pos = identity_layout([[0, 5, 7], [1, 3, 8], [2, 4, 6]])
        w = [[cross_weight(a, b) for b in sorted_pos] for a in sorted_pos]
        assert w[0][1] < w[1][0] and w[1][2] < w[2][1] and w[2][0] < w[0][2]
        assert solve_block_order(seqs, sorted_pos) == brute_force_layout(
            seqs, sorted_pos
        )

    def test_lexicographic_tie_break(self):
        # {0,3} and {1,2} cost 2 in either order: the leading nodes decide.
        seqs, sorted_pos = identity_layout([[0, 3], [1, 2]])
        assert cross_weight(*sorted_pos) == cross_weight(*sorted_pos[::-1]) == 2
        assert solve_block_order(seqs, sorted_pos) == (2, [0, 3, 1, 2])
        seqs, sorted_pos = identity_layout([[3, 0], [2, 1]])
        assert solve_block_order(seqs, sorted_pos) == (2, [2, 1, 3, 0])

    @pytest.mark.parametrize("block,first", [
        ([0, 2], [0, 2, 1]),  # the singleton's node 1 after the block's 0
        ([2, 0], [1, 2, 0]),  # and before the block's 2
    ])
    def test_singleton_and_block_tie(self, block, first):
        # The block at {0, 2} and the singleton at 1 cost 1 in either order
        # and both begin an optimal rest, ahead of {3, 4} and 5: the
        # leading nodes decide.
        seqs, sorted_pos = [block, [1], [3, 4], [5]], [[0, 2], [1], [3, 4], [5]]
        expected = (1, first + [3, 4, 5])
        assert reference_layout(seqs, sorted_pos) == expected
        assert solve_block_order(seqs, sorted_pos) == expected

    def test_python_and_vector_paths_agree(self):
        rng = random.Random(2)
        for m in range(1, 13):
            w = random_weights(rng, m, hi=20)
            assert list(_subset_costs_py(w, m)) == list(_subset_costs_np(w, m))

    def test_large_row_sums_do_not_overflow(self):
        # Row sums reach 11 * 3e8 > 2^31: the reference's vector table must
        # widen to int64.
        m = 12
        w = [
            [0 if i == j else 3 * 10**8 if i > j else 1 for j in range(m)]
            for i in range(m)
        ]
        assert list(_subset_costs_np(w, m)) == _subset_costs_py(w, m)

    def test_capacity_error(self):
        seqs, sorted_pos = identity_layout([[i, i + 1] for i in range(0, 46, 2)])
        with pytest.raises(
            CapacityError,
            match=r"23 multi-node components and 0 singletons exceed the "
            r"exact-search cap of 2\^22 states",
        ):
            solve_block_order(seqs, sorted_pos)

    def test_capacity_counts_singletons(self, monkeypatch):
        # 2 blocks and 7 singletons fill 2^5 states exactly; one more
        # singleton trips the cap although the block count stays at 2.
        monkeypatch.setattr(minla.ordering, "CAP_BITS", 5)
        blocks = [[0, 3], [1, 2]] + [[v] for v in range(4, 12)]
        seqs, sorted_pos = identity_layout(blocks[:9])
        assert solve_block_order(seqs, sorted_pos) == reference_layout(
            seqs, sorted_pos
        )
        seqs, sorted_pos = identity_layout(blocks)
        with pytest.raises(CapacityError, match="2 multi-node components and 8 singletons"):
            solve_block_order(seqs, sorted_pos)


def random_layout(rng, m, s, spare=4):
    """m blocks of 2..2+spare nodes and s singletons, shuffled, at random
    reference positions: the node sequences and their sorted positions."""
    sizes = [rng.randint(2, 2 + spare) for _ in range(m)] + [1] * s
    rng.shuffle(sizes)
    n = sum(sizes)
    nodes = rng.sample(range(n), n)
    pos = rng.sample(range(n), n)
    seqs, at = [], 0
    for size in sizes:
        seqs.append(nodes[at : at + size])
        at += size
    return seqs, [sorted(pos[v] for v in seq) for seq in seqs]


def random_table_input(rng, m, s, hi=20):
    """``_costs`` arguments: block rows up to ``hi``, block sizes up to
    ``hi // 4`` and singleton rows up to each block's size."""
    rows = [[0 if i == j else rng.randint(0, hi) for i in range(m)] for j in range(m)]
    sizes = [rng.randint(2, max(2, hi // 4)) for _ in range(m)]
    rows += [[rng.randint(0, size) for size in sizes] for _ in range(s)]
    return rows, sizes


def table_cols(rows, m):
    """``_costs``'s columns of weight rows ``rows``, m block rows first:
    block j's column of the block rows, then the last k singleton rows'
    entries summed, k = 0..s."""
    trailing = [*accumulate(reversed(rows[m:]), lambda a, b: [*map(add, a, b)],
                            initial=[0] * m)]
    return [list(col) for col in zip(*rows[:m], *trailing)]


def assert_tables_agree(*tables):
    """Each (rows, sizes, s) of a batch gets the plain loops' tables; the
    batch pads every table to its widest singleton axis."""
    batch = [(table_cols(rows, len(sizes)), sizes, s) for rows, sizes, s in tables]
    for (rows, sizes, s), (g, _, tail) in zip(tables, _costs(batch), strict=True):
        assert (g[:, : s + 1].tolist(), tail[:, : s + 1].tolist()) == _costs_py(rows, sizes, s)


class TestSingletonAwareOrder:
    def test_tables_agree(self):
        rng = random.Random(3)
        for m in range(0, 9):
            for s in range(0, 7):
                assert_tables_agree((*random_table_input(rng, m, s), s))

    @pytest.mark.parametrize("hi", [20, 10**9])
    def test_tables_agree_across_slices(self, hi, monkeypatch):
        # A slice bound of 7 candidate entries splits the layers into many
        # slices, and a subset with more entries than that is a slice of
        # its own.  At hi = 10^9 row sums pass 2^31, so the table must also
        # widen to int64.
        monkeypatch.setattr(minla.ordering, "_SLICE", 7)
        rng = random.Random(hi)
        largest = 0
        for m, s in [(1, 0), (3, 2), (5, 0), (6, 1), (7, 3), (8, 9), (9, 2)]:
            rows, sizes = random_table_input(rng, m, s, hi)
            largest = max(largest, *map(sum, rows))
            assert_tables_agree((rows, sizes, s))
        assert (largest >= 1 << 31) == (hi > 20)

    def test_singleton_totals_widen(self):
        # Every row sums below 2^31, but the rows of the last k singletons
        # together pass it, and the table holds those totals.
        rng = random.Random(6)
        m, s = 3, 9
        rows, _ = random_table_input(rng, m, s)
        rows[m:] = [[1 << 28] * m for _ in range(s)]
        assert max(map(sum, rows)) < 1 << 31 <= sum(map(sum, rows[m:]))
        assert_tables_agree((rows, [1 << 29] * m, s))

    @pytest.mark.parametrize("m,s", [
        (0, 1), (0, 9), (1, 0), (1, 1), (3, 0), (3, 1), (5, 3), (6, 2),
        (2, 13), (5, 7), (4, 15), (6, 4), (8, 0), (8, 1), (9, 3), (10, 2),
    ])
    def test_matches_reference_on_layouts(self, m, s):
        # Tables of 2 to 3,072 states: no singletons, one, and only
        # singletons.
        rng = random.Random(m * 100 + s)
        for _ in range(6 if m + s < 12 else 2):
            seqs, sorted_pos = random_layout(rng, m, s)
            assert solve_block_order(seqs, sorted_pos) == reference_layout(
                seqs, sorted_pos
            )

    def test_matches_reference_on_traces(self):
        rng = random.Random(4)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(80):
                n = rng.randint(2, 14)
                trace = random_trace(model, n, seed=rng.random())
                parts = replay_components(trace, rng.randint(0, trace.k))
                pos0 = trace.pi0.pos_of
                seqs = [
                    sorted(parts.nodes_of(r), key=pos0.__getitem__)
                    if model is Model.CLIQUES
                    else _oriented_path(parts.path_of(r), pos0)[0]
                    for r in parts.components()
                ]
                sorted_pos = [sorted(pos0[v] for v in seq) for seq in seqs]
                expected = reference_layout(seqs, sorted_pos)
                assert solve_block_order(seqs, sorted_pos) == expected

    def test_optimal_orders_keep_singletons_in_order(self):
        # Brute force over every order of up to 7 items: each minimum-cost
        # order lists the singletons by ascending reference position.
        rng = random.Random(5)
        for _ in range(150):
            total = rng.randint(2, 7)
            m = rng.randint(0, total)
            seqs, sorted_pos = random_layout(rng, m, total - m, spare=2)
            costs = {
                order: sum(
                    cross_weight(sorted_pos[a], sorted_pos[b])
                    for x, a in enumerate(order)
                    for b in order[x + 1 :]
                )
                for order in itertools.permutations(range(total))
            }
            least = min(costs.values())
            for order, cost in costs.items():
                if cost == least:
                    singles = [sorted_pos[i][0] for i in order if len(seqs[i]) == 1]
                    assert singles == sorted(singles)


def random_batch(rng, shapes):
    """One random layout per (m, s) of ``shapes``, plus a single block and an
    empty problem at random places: the problems of one batch."""
    problems = [random_layout(rng, m, s) for m, s in shapes]
    problems.insert(rng.randint(0, len(problems)), ([[5, 2, 7]], [[0, 1, 2]]))
    problems.insert(rng.randint(0, len(problems)), ([], []))
    return problems


def record_batches(monkeypatch):
    """Spy on ``_costs``: the rows, padded width, dtype and table count of
    each batch."""
    batches = []
    costs = minla.ordering._costs

    def recorded(tables):
        views = costs(tables)
        rows = sum(1 << len(sizes) for _, sizes, _ in tables)
        width = max(s for _, _, s in tables) + 1
        batches.append((rows, width, views[0][1].dtype.name, len(tables)))
        return views

    monkeypatch.setattr(minla.ordering, "_costs", recorded)
    return batches


class TestBatchedSolve:
    """``solve_block_orders`` fills one table per batch; each problem's
    result must equal the plain subset program on that problem alone."""

    def test_random_batches_match_reference(self, monkeypatch):
        # Batches that mix m = 0..9 multi-node blocks with s = 0..15
        # singletons, the reference kept to at most 2^15 subsets.
        rng = random.Random(7)
        batches = record_batches(monkeypatch)
        pairs = [(m, s) for m in range(10) for s in range(16) if m + s <= 15]
        for _ in range(12):
            problems = random_batch(rng, rng.sample(pairs, rng.randint(2, 8)))
            expected = [reference_layout(*problem) for problem in problems]
            assert list(solve_block_orders(problems)) == expected
        assert len(batches) == 12
        assert [solve_block_order(*p) for p in problems] == expected

    @pytest.mark.parametrize("cap_bits", [4, 7])
    def test_batches_close_at_the_state_budget(self, cap_bits, monkeypatch):
        # A cap of 2^4 or 2^7 states splits the batches; a slice bound of 7
        # candidate entries splits the layers.  Every batch fits the cap and
        # closes only when the next problem would take it past.
        monkeypatch.setattr(minla.ordering, "CAP_BITS", cap_bits)
        monkeypatch.setattr(minla.ordering, "_SLICE", 7)
        budget = 1 << cap_bits
        rng = random.Random(cap_bits)
        shapes = [(m, s) for m in range(cap_bits) for s in range(16) if (s + 1) << m <= budget]
        problems = [random_layout(rng, *rng.choice(shapes)) for _ in range(40)]
        batches = record_batches(monkeypatch)
        solved = list(solve_block_orders(problems))
        assert solved == [reference_layout(*problem) for problem in problems]
        assert len(batches) > 4
        assert all(rows * width <= budget for rows, width, _, _ in batches)
        # The table rows and singletons of each problem that gets a table
        # (not a single block), in order.
        needs = [(1 << sum(len(q) > 1 for q in seqs), sum(len(q) == 1 for q in seqs))
                 for seqs, _ in problems if len(seqs) != 1]
        at = 0
        for rows, width, _, count in batches[:-1]:
            at += count
            assert (rows + needs[at][0]) * (max(width - 1, needs[at][1]) + 1) > budget
        assert at + batches[-1][3] == len(needs)

    def test_row_sums_past_int32_widen_the_batch(self, monkeypatch):
        # Two interleaved blocks of 70,000 nodes cost 2.45e9 either way, past
        # 2^31, so the whole batch tables in int64; a batch of small
        # problems stays int32.
        half = 70_000
        big = [list(range(0, 2 * half, 2)), list(range(1, 2 * half, 2)), [2 * half]]
        big_pos = [list(range(0, 2 * half, 2)), list(range(1, 2 * half, 2)), [2 * half]]
        assert cross_weight(big_pos[0], big_pos[1]) >= 1 << 31
        rng = random.Random(8)
        small = [random_layout(rng, m, s) for m, s in [(3, 2), (1, 5), (4, 0)]]
        batches = record_batches(monkeypatch)
        problems = [small[0], (big, big_pos), *small[1:]]
        assert list(solve_block_orders(problems)) == [reference_layout(*p) for p in problems]
        assert list(solve_block_orders(small)) == [reference_layout(*p) for p in small]
        assert [dtype for _, _, dtype, _ in batches] == ["int64", "int32"]

    @pytest.mark.parametrize("hi", [20, 10**9])
    def test_batched_tables_agree(self, hi, monkeypatch):
        # The tables of one batch, each against the plain loops, across
        # slices of 7 entries; at hi = 10^9 the batch widens to int64.
        monkeypatch.setattr(minla.ordering, "_SLICE", 7)
        rng = random.Random(hi + 1)
        shapes = [(0, 4), (1, 0), (3, 2), (5, 0), (6, 1), (7, 3), (2, 9), (9, 2)]
        tables = [(*random_table_input(rng, m, s, hi), s) for m, s in shapes]
        assert_tables_agree(*tables)
