import itertools
import random
from bisect import bisect_left

import pytest
from hypothesis import given, strategies as st

import minla.ordering
from conftest import (
    TRACE_SETTINGS,
    _costs_py,
    _subset_costs_np,
    _subset_costs_py,
    reference_layout,
    replay_components,
    sorted_positions,
)
from minla import CapacityError, Model, random_trace
from minla.algorithms import _component_block
from minla.ordering import _costs, cross_weight, solve_block_order, solve_block_orders


def reference(seqs, pos_of):
    """``reference_layout`` of the problem ``(seqs, pos_of)``."""
    return reference_layout(seqs, sorted_positions(seqs, pos_of))


def brute_force_layout(seqs, pos_of):
    """Least cross cost over every order of the blocks, singletons included,
    and the lexicographically smallest node sequence attaining it."""
    sorted_pos = sorted_positions(seqs, pos_of)
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
    """Blocks of the nodes 0..N-1 at the reference positions equal to their
    ids: the node sequences and the node-to-position lookup."""
    seqs = [list(b) for b in blocks]
    return seqs, tuple(range(sum(map(len, seqs))))


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
        assert solve_block_order([], ()) == (0, [])
        assert solve_block_order([[7]], tuple(range(8))) == (0, [7])
        # A single block keeps its internal order.
        assert solve_block_order([[4, 1, 2]], (3, 4, 1, 0, 2)) == (0, [4, 1, 2])

    def test_matches_brute_force(self):
        # Every order of up to 7 blocks and singletons: the least cost, and
        # the lexicographically smallest node sequence among its orders.
        rng = random.Random(1)
        for _ in range(120):
            total = rng.randint(2, 7)
            m = rng.randint(0, total)
            seqs, pos_of = random_layout(rng, m, total - m, spare=2)
            assert solve_block_order(seqs, pos_of) == brute_force_layout(seqs, pos_of)

    def test_cyclic_preferences_still_exact(self):
        # pairwise majorities can cycle; the subset program must not rely on
        # a total sort. blocks {0,5,7}, {1,3,8}, {2,4,6} prefer a<b<c<a.
        seqs, pos_of = identity_layout([[0, 5, 7], [1, 3, 8], [2, 4, 6]])
        w = [[cross_weight(a, b) for b in seqs] for a in seqs]
        assert w[0][1] < w[1][0] and w[1][2] < w[2][1] and w[2][0] < w[0][2]
        assert solve_block_order(seqs, pos_of) == brute_force_layout(seqs, pos_of)

    def test_lexicographic_tie_break(self):
        # {0,3} and {1,2} cost 2 in either order: the leading nodes decide.
        seqs, pos_of = identity_layout([[0, 3], [1, 2]])
        assert cross_weight(*seqs) == cross_weight(*seqs[::-1]) == 2
        assert solve_block_order(seqs, pos_of) == (2, [0, 3, 1, 2])
        seqs, pos_of = identity_layout([[3, 0], [2, 1]])
        assert solve_block_order(seqs, pos_of) == (2, [2, 1, 3, 0])

    @pytest.mark.parametrize("block,first", [
        ([0, 2], [0, 2, 1]),  # the singleton's node 1 after the block's 0
        ([2, 0], [1, 2, 0]),  # and before the block's 2
    ])
    def test_singleton_and_block_tie(self, block, first):
        # The block at {0, 2} and the singleton at 1 cost 1 in either order
        # and both begin an optimal rest, ahead of {3, 4} and 5: the
        # leading nodes decide.
        seqs, pos_of = identity_layout([block, [1], [3, 4], [5]])
        expected = (1, first + [3, 4, 5])
        assert reference(seqs, pos_of) == expected
        assert solve_block_order(seqs, pos_of) == expected

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
        seqs, pos_of = identity_layout([[i, i + 1] for i in range(0, 46, 2)])
        with pytest.raises(
            CapacityError,
            match=r"23 multi-node components and 0 singletons exceed the "
            r"exact-search cap of 2\^22 states",
        ):
            solve_block_order(seqs, pos_of)

    def test_capacity_counts_singletons(self, monkeypatch):
        # 2 blocks and 7 singletons fill 2^5 states exactly; one more
        # singleton trips the cap although the block count stays at 2.
        monkeypatch.setattr(minla.ordering, "CAP_BITS", 5)
        blocks = [[0, 3], [1, 2]] + [[v] for v in range(4, 12)]
        seqs, pos_of = identity_layout(blocks[:9])
        assert solve_block_order(seqs, pos_of) == reference(seqs, pos_of)
        seqs, pos_of = identity_layout(blocks)
        with pytest.raises(CapacityError, match="2 multi-node components and 8 singletons"):
            solve_block_order(seqs, pos_of)


def random_layout(rng, m, s, spare=4):
    """m blocks of 2..2+spare nodes and s singletons, shuffled, at random
    reference positions: the node sequences and the node-to-position
    lookup."""
    sizes = [rng.randint(2, 2 + spare) for _ in range(m)] + [1] * s
    rng.shuffle(sizes)
    n = sum(sizes)
    nodes = rng.sample(range(n), n)
    pos = rng.sample(range(n), n)
    seqs, at = [], 0
    for size in sizes:
        seqs.append(nodes[at : at + size])
        at += size
    return seqs, pos


@st.composite
def drawn_layouts(draw):
    """Up to 6 blocks of 2..4 nodes and up to 8 singletons, in a drawn
    order, with drawn node ids and reference positions: small blocks make
    tied orders common."""
    sizes = draw(st.lists(st.integers(2, 4), max_size=6))
    sizes = draw(st.permutations(sizes + [1] * draw(st.integers(0, 8))))
    n = sum(sizes)
    nodes = draw(st.permutations(range(n)))
    seqs, at = [], 0
    for size in sizes:
        seqs.append(nodes[at : at + size])
        at += size
    return seqs, tuple(draw(st.permutations(range(n))))


def table_input(sorted_pos):
    """``_costs``'s (labels, singles) for blocks at reference positions
    ``sorted_pos``, and the plain loops' (rows, sizes, s): each multi-node
    block's row of cross weights, 0 before itself, then each singleton's,
    by ascending position."""
    blocks = [pos for pos in sorted_pos if len(pos) > 1]
    singles = sorted(pos[0] for pos in sorted_pos if len(pos) == 1)
    owner = {x: j for j, pos in enumerate(blocks) for x in pos}
    labels = [owner.get(x, -1) for x in range(sum(map(len, sorted_pos)))]
    rows = [[0 if a is b else cross_weight(a, b) for b in blocks] for a in blocks]
    rows += [[bisect_left(b, p) for b in blocks] for p in singles]
    return (labels, singles), (rows, [len(pos) for pos in blocks], len(singles))


def interleaved(half):
    """Two blocks of ``half`` nodes at alternate positions and a singleton
    after them, each node at the position equal to its id.  Either block
    before the other inverts half * (half - 1) / 2 pairs or more."""
    return identity_layout([range(0, 2 * half, 2), range(1, 2 * half, 2), [2 * half]])


def assert_tables_agree(*layouts):
    """Each layout's sorted positions in one batch get the plain loops'
    tables; the batch pads every table to its widest singleton axis."""
    inputs = [table_input(sorted_pos) for sorted_pos in layouts]
    views = _costs([table for table, _ in inputs])
    for (_, (rows, sizes, s)), (g, _, step) in zip(inputs, views, strict=True):
        # ahead[j][k]: the cost of the last k singletons before block j, which
        # g leaves out and step counts twice against the block's own.
        ahead = [[(k * size - step.item(j, k)) // 2 for k in range(s + 1)]
                 for j, size in enumerate(sizes)]
        lead = [[sum(ahead[j][k] for j in range(len(sizes)) if t >> j & 1) for k in range(s + 1)]
                for t in range(len(g))]
        full = [[g.item(t, k) + lead[t][k] for k in range(s + 1)] for t in range(len(g))]
        tail = [[k * size - ahead[j][k] for k in range(s + 1)] for j, size in enumerate(sizes)]
        assert (full, tail) == _costs_py(rows, sizes, s)


class TestSingletonAwareOrder:
    def test_tables_agree(self):
        rng = random.Random(3)
        for m in range(0, 9):
            for s in range(0, 7):
                assert_tables_agree(sorted_positions(*random_layout(rng, m, s)))

    @pytest.mark.parametrize("big", [False, True])
    def test_tables_agree_across_slices(self, big, monkeypatch):
        # A slice bound of 7 entries reads each label array alone and splits
        # the layers into many slices, and a subset with more entries than
        # that is a slice of its own.  The big layout's row sums pass 2^31,
        # so its table must also widen to int64.
        monkeypatch.setattr(minla.ordering, "_SLICE", 7)
        rng = random.Random(big)
        for m, s in [(1, 0), (3, 2), (5, 0), (6, 1), (7, 3), (8, 9), (9, 2)]:
            assert_tables_agree(sorted_positions(*random_layout(rng, m, s)))
        if big:
            assert_tables_agree(interleaved(70_000)[0])

    def test_singleton_totals_widen(self):
        # Two blocks of 2^15 nodes and 2^15 singletons after them: every row
        # sums below 2^31, but the rows of the last k singletons together
        # reach it, and the table's singleton steps hold those totals.
        rng = random.Random(6)
        half = 1 << 15
        blocks = rng.sample(range(2 * half), 2 * half)
        layout = [sorted(blocks[:half]), sorted(blocks[half:])]
        layout += [[p] for p in range(2 * half, 3 * half)]
        _, (rows, _, _) = table_input(layout)
        assert max(map(sum, rows)) < 1 << 31 <= sum(map(sum, rows[2:]))
        assert_tables_agree(layout)

    @pytest.mark.parametrize("m,s", [
        (0, 1), (0, 9), (1, 0), (1, 1), (3, 0), (3, 1), (5, 3), (6, 2),
        (2, 13), (5, 7), (4, 15), (6, 4), (8, 0), (8, 1), (9, 3), (10, 2),
    ])
    def test_matches_reference_on_layouts(self, m, s):
        # Tables of 2 to 3,072 states: no singletons, one, and only
        # singletons.
        rng = random.Random(m * 100 + s)
        for _ in range(6 if m + s < 12 else 2):
            seqs, pos_of = random_layout(rng, m, s)
            assert solve_block_order(seqs, pos_of) == reference(seqs, pos_of)

    def test_matches_reference_on_traces(self):
        rng = random.Random(4)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(80):
                n = rng.randint(2, 14)
                trace = random_trace(model, n, seed=rng.random())
                parts = replay_components(trace, rng.randint(0, trace.k))
                pos0, lines = trace.pi0.pos_of, model is Model.LINES
                seqs = [_component_block(nodes, pos0, lines)[0]
                        for nodes in parts.nodes.values()]
                assert solve_block_order(seqs, pos0) == reference(seqs, pos0)

    @TRACE_SETTINGS
    @given(drawn_layouts())
    def test_matches_reference_on_drawn_layouts(self, problem):
        assert solve_block_order(*problem) == reference(*problem)

    def test_optimal_orders_keep_singletons_in_order(self):
        # Brute force over every order of up to 7 items: each minimum-cost
        # order lists the singletons by ascending reference position.
        rng = random.Random(5)
        for _ in range(150):
            total = rng.randint(2, 7)
            m = rng.randint(0, total)
            seqs, pos_of = random_layout(rng, m, total - m, spare=2)
            sorted_pos = sorted_positions(seqs, pos_of)
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
    problems.insert(rng.randint(0, len(problems)), ([[5, 2, 7]], tuple(range(8))))
    problems.insert(rng.randint(0, len(problems)), ([], ()))
    return problems


def record_batches(monkeypatch):
    """Spy on ``_costs``: the rows, padded width, dtype and table count of
    each batch."""
    batches = []
    costs = minla.ordering._costs

    def recorded(tables):
        views = costs(tables)
        rows = sum(len(g) for g, _, _ in views)
        width = max(len(singles) for _, singles in tables) + 1
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
            expected = [reference(*problem) for problem in problems]
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
        assert solved == [reference(*problem) for problem in problems]
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
        # problems stays int32, and so do two blocks of 46,340 nodes side by
        # side, the widest int32 table, whose reverse order costs just
        # below 2^31.
        big = interleaved(70_000)
        assert cross_weight(*big[0][:2]) >= 1 << 31
        half = 46_340
        widest = identity_layout([range(half, 2 * half), range(half)])
        assert cross_weight(*widest[0]) == half * half < 1 << 31
        rng = random.Random(8)
        small = [random_layout(rng, m, s) for m, s in [(3, 2), (1, 5), (4, 0)]]
        batches = record_batches(monkeypatch)
        problems = [small[0], big, *small[1:]]
        assert list(solve_block_orders(problems)) == [reference(*p) for p in problems]
        assert list(solve_block_orders(small)) == [reference(*p) for p in small]
        assert solve_block_order(*widest) == (0, [*range(half), *range(half, 2 * half)])
        assert [dtype for _, _, dtype, _ in batches] == ["int64", "int32", "int32"]

    @pytest.mark.parametrize("big", [False, True])
    def test_batched_tables_agree(self, big, monkeypatch):
        # The tables of one batch, each against the plain loops, across
        # slices of 7 entries; the big layout widens the batch to int64.
        monkeypatch.setattr(minla.ordering, "_SLICE", 7)
        rng = random.Random(big + 1)
        shapes = [(0, 4), (1, 0), (3, 2), (5, 0), (6, 1), (7, 3), (2, 9), (9, 2)]
        layouts = [sorted_positions(*random_layout(rng, m, s)) for m, s in shapes]
        if big:
            layouts.insert(3, interleaved(70_000)[0])
        assert_tables_agree(*layouts)

    def test_edge_problems_in_one_batch(self, monkeypatch):
        # The empty problem, a problem of singletons only (no block row of
        # its own) and one whose last singleton lies right of every block,
        # in one batch with a wider problem: tables and results.
        empty, singles = ([], ()), identity_layout([[3], [0], [2], [1]])
        right = identity_layout([[1, 0], [2, 4], [3], [5]])
        rng = random.Random(9)
        problems = [empty, singles, random_layout(rng, 4, 3), right]
        assert_tables_agree(*(sorted_positions(*p) for p in problems))
        batches = record_batches(monkeypatch)
        assert list(solve_block_orders(problems)) == [reference(*p) for p in problems]
        assert [count for *_, count in batches] == [4]
        assert solve_block_order(*right) == (1, [1, 0, 2, 4, 3, 5])
