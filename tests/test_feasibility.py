import random

from conftest import all_permutations, minla_optimum
from minla import (
    ComponentPartition,
    Model,
    Permutation,
    arrangement_cost,
    is_minla,
    random_trace,
    replay_components,
)


def partition(n, model, groups):
    return ComponentPartition.from_components(n, model, groups)


class TestArrangementCost:
    def test_single_edge_adjacent(self):
        parts = partition(2, Model.LINES, [[0, 1]])
        assert arrangement_cost(Permutation([0, 1]), parts, Model.LINES) == 1

    def test_clique_triangle_contiguous(self):
        parts = partition(3, Model.CLIQUES, [[0, 1, 2]])
        assert arrangement_cost(Permutation([0, 1, 2]), parts, Model.CLIQUES) == 4

    def test_empty_graph(self):
        parts = partition(3, Model.CLIQUES, [[0], [1], [2]])
        assert arrangement_cost(Permutation([2, 0, 1]), parts, Model.CLIQUES) == 0

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
            assert arrangement_cost(p, parts, Model.CLIQUES) == expected


class TestMinlaOptimum:
    """The cost of a contiguous layout against the closed-form optimum."""

    def test_clique_of_three(self):
        parts = partition(3, Model.CLIQUES, [[0, 1, 2]])
        p = Permutation([2, 0, 1])
        assert arrangement_cost(p, parts, Model.CLIQUES) == minla_optimum(
            parts, Model.CLIQUES
        ) == 4

    def test_path_of_five(self):
        parts = partition(5, Model.LINES, [[0, 1, 2, 3, 4]])
        p = Permutation([4, 3, 2, 1, 0])
        assert arrangement_cost(p, parts, Model.LINES) == minla_optimum(
            parts, Model.LINES
        ) == 4

    def test_all_singletons(self):
        parts = partition(4, Model.CLIQUES, [[v] for v in range(4)])
        p = Permutation([3, 1, 0, 2])
        assert arrangement_cost(p, parts, Model.CLIQUES) == minla_optimum(
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
                    arrangement_cost(p, parts, model) for p in all_permutations(n)
                )
                assert minla_optimum(parts, model) == best


class TestIsMinla:
    def test_non_contiguous_clique(self):
        parts = partition(4, Model.CLIQUES, [[0, 1, 2], [3]])
        assert not is_minla(Permutation([0, 3, 1, 2]), parts, Model.CLIQUES)

    def test_reversed_path_block(self):
        parts = partition(3, Model.LINES, [[0, 1, 2]])
        assert is_minla(Permutation([2, 1, 0]), parts, Model.LINES)

    def test_scrambled_path_block(self):
        parts = partition(3, Model.LINES, [[0, 1, 2]])
        p = Permutation([1, 0, 2])
        assert not is_minla(p, parts, Model.LINES)
        assert arrangement_cost(p, parts, Model.LINES) == 3

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
                best = min(arrangement_cost(p, parts, model) for p in perms)
                for p in perms:
                    assert is_minla(p, parts, model) == (
                        arrangement_cost(p, parts, model) == best
                    )

    def test_nested_feasibility_for_lines(self):
        # any layout feasible for the final graph is feasible for every prefix
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(2, 10)
            trace = random_trace(Model.LINES, n, seed=rng.random())
            final = replay_components(trace, trace.k)
            blocks = [final.path_of(root) for root in final.components()]
            for _ in range(20):
                rng.shuffle(blocks)
                layout = []
                for block in blocks:
                    layout.extend(block if rng.random() < 0.5 else block[::-1])
                p = Permutation(layout)
                assert is_minla(p, final, Model.LINES)
                for i in range(trace.k + 1):
                    assert is_minla(p, replay_components(trace, i), Model.LINES)
