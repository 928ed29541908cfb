"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints a single PASS/FAIL line (run pytest with -s to stream them)
and fails hard unless the line is exactly the pinned one: the suite's
numbers are part of the regression contract.  Seeds are pinned inside
minla.bench, so the whole suite is reproducible bit for bit.
"""

from types import SimpleNamespace

from minla import bench


def _check(result: bench.CriterionResult, expected: str):
    print(result.line(), flush=True)
    assert result.line() == expected


def test_criterion_01_det_upper_bound():
    _check(
        bench.criterion_det_upper_bound(),
        "PASS criterion 1 (det-upper-bound): 982 traces with positive "
        "optimum; worst cost/(2(n-1)opt)=0.667",
    )


def test_criterion_02_det_lower_bound():
    _check(
        bench.criterion_det_lower_bound(),
        "PASS criterion 2 (det-lower-bound): costs n=9:28, n=13:66, "
        "n=17:120; cost(17)/cost(9)=4.29 (>=2.5), ratio(17)/ratio(9)=2.14 "
        "(>=1.5), opt<=n holds",
    )


def test_criterion_03_rand_cliques_bound():
    _check(
        bench.criterion_rand_cliques_bound(),
        "PASS criterion 3 (rand-cliques-bound): 20 traces x 10000 trials; "
        "worst mean/bound=0.199",
    )


def test_criterion_04_rand_lines_bound():
    _check(
        bench.criterion_rand_lines_bound(),
        "PASS criterion 4 (rand-lines-bound): 20 traces x 10000 trials; "
        "worst mean/bound=0.137",
    )


def test_criterion_05_left_right_frequencies():
    _check(
        bench.criterion_left_right_frequencies(),
        "PASS criterion 5 (left-right-frequencies): 31 tracked frequencies "
        "over 5 traces x 100000 trials; worst deviation 1.97 sigma "
        "(limit 4)",
    )


def test_criterion_06_orientation_frequencies():
    _check(
        bench.criterion_orientation_frequencies(),
        "PASS criterion 6 (orientation-frequencies): 13 tracked frequencies "
        "over 5 traces x 100000 trials; worst deviation 1.13 sigma "
        "(limit 4)",
    )


def test_criterion_07_oracle_equivalence():
    _check(
        bench.criterion_oracle_equivalence(),
        "PASS criterion 7 (oracle-equivalence): 440 traces, exact equality "
        "throughout",
    )


def test_criterion_08_feasibility_characterization():
    _check(
        bench.criterion_feasibility_characterization(),
        "PASS criterion 8 (feasibility-characterization): 109624 "
        "permutations across 100 partitions, equivalence exact",
    )


def test_criterion_09_tree_sandwich():
    _check(
        bench.criterion_tree_sandwich(),
        "PASS criterion 9 (tree-lower-bound-sandwich): n=16: 2.892 in "
        "[0.250, 27.046]; n=64: 4.152 in [0.375, 37.951]; n=256: 5.430 in "
        "[0.500, 48.995]; strictly increasing",
    )


def test_criterion_10_algebraic_bounds():
    _check(
        bench.criterion_algebraic_bounds(),
        "PASS criterion 10 (algebraic-bounds): 10000 harmonic series and "
        "10000 identity instances, all inequalities hold",
    )


def test_criterion_11_coin_vectors():
    _check(
        bench.criterion_coin_vectors(),
        "PASS criterion 11 (coin-test-vectors): moving coin 2/3-1/3 and "
        "orientation coin 9/10-1/10 reproduced exactly",
    )


def test_tree_sandwich_lower_bound_bites(monkeypatch):
    # Stubbed runs whose ratios 0.1, 0.2, 0.3 increase with n but sit below
    # log2(n) / 16 = 0.25, 0.375, 0.5: the sandwich's lower side must fail.
    monkeypatch.setattr(bench, "tree_adversary", lambda config: config.q)
    monkeypatch.setattr(
        bench, "run", lambda algo, q, seed: SimpleNamespace(total_cost=q // 2 - 1)
    )
    monkeypatch.setattr(bench, "dp_opt", lambda q: SimpleNamespace(cost=10))
    assert bench.criterion_tree_sandwich().line() == (
        "FAIL criterion 9 (tree-lower-bound-sandwich): n=16: ratio 0.100 "
        "outside [0.250, 27.046]"
    )
