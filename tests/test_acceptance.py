"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints a single PASS/FAIL line (run pytest with -s to stream them)
and fails hard unless the line is exactly the pinned one: the suite's
numbers are part of the regression contract.  Seeds are pinned inside
minla.bench, so the whole suite is reproducible bit for bit.
"""

import inspect
import math
import random
from fractions import Fraction
from types import SimpleNamespace

from minla import bench, harness
from minla.adversaries import random_trace
from minla.algorithms import _trace_law
from minla.harness import ExperimentConfig, VerifyRow, run_experiment
from minla.oracle import left_right_probability, orientation_probability
from minla.trace import Model


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
        bench, "run_trials",
        lambda q, seeds: iter([SimpleNamespace(total_cost=q // 2 - 1)]),
    )
    monkeypatch.setattr(bench, "dp_opt", lambda q: SimpleNamespace(cost=10))
    assert bench.criterion_tree_sandwich().line() == (
        "FAIL criterion 9 (tree-lower-bound-sandwich): n=16: ratio 0.100 "
        "outside [0.250, 27.046]"
    )


def test_registration_lists_each_criterion_once_in_index_order():
    # Every criterion_* function of the module is registered exactly once,
    # under the index its position gives, with the name its report file
    # carries in bench --out.
    defined = [fn for key, fn in vars(bench).items() if key.startswith("criterion_")]
    assert len(bench.ALL_CRITERIA) == len(set(bench.ALL_CRITERIA)) == 11
    assert set(bench.ALL_CRITERIA) == set(defined)
    registered = [inspect.getclosurevars(fn).nonlocals for fn in bench.ALL_CRITERIA]
    assert [reg["index"] for reg in registered] == list(range(1, 12))
    files = [f"criterion-{reg['index']:02d}-{reg['name']}.txt" for reg in registered]
    assert files == [
        "criterion-01-det-upper-bound.txt",
        "criterion-02-det-lower-bound.txt",
        "criterion-03-rand-cliques-bound.txt",
        "criterion-04-rand-lines-bound.txt",
        "criterion-05-left-right-frequencies.txt",
        "criterion-06-orientation-frequencies.txt",
        "criterion-07-oracle-equivalence.txt",
        "criterion-08-feasibility-characterization.txt",
        "criterion-09-tree-lower-bound-sandwich.txt",
        "criterion-10-algebraic-bounds.txt",
        "criterion-11-coin-test-vectors.txt",
    ]
    for fn in bench.ALL_CRITERIA:
        assert getattr(bench, fn.__name__) is fn


# Each criterion's failure branch, forced through a name the criterion looks
# up at call time, prints one exact FAIL line.


def test_det_upper_bound_fails_one_past_the_bound(monkeypatch):
    # det's cost one above 2(n-1) OPT on every trace.
    monkeypatch.setattr(
        bench,
        "run",
        lambda algo, trace: SimpleNamespace(
            total_cost=2 * (trace.n - 1) * bench.dp_opt(trace).cost + 1
        ),
    )
    assert bench.criterion_det_upper_bound().line() == (
        "FAIL criterion 1 (det-upper-bound): violated on cliques n=13: "
        "cost=169 opt=7"
    )


def test_det_lower_bound_fails_on_linear_costs(monkeypatch):
    monkeypatch.setattr(
        bench,
        "duel",
        lambda n: SimpleNamespace(algo_cost=n, opt_cost=n + 1, ratio=Fraction(n, n + 1)),
    )
    assert bench.criterion_det_lower_bound().line() == (
        "FAIL criterion 2 (det-lower-bound): costs n=9:9, n=13:13, n=17:17; "
        "cost(17)/cost(9)=1.89 (>=2.5), ratio(17)/ratio(9)=1.05 (>=1.5), "
        "opt<=n fails"
    )


def test_rand_cliques_bound_fails_on_the_first_trace_over_its_bound(monkeypatch):
    monkeypatch.setattr(bench, "bound_for_trace", lambda trace, opt: 0.0)
    assert bench.criterion_rand_cliques_bound().line() == (
        "FAIL criterion 3 (rand-cliques-bound): cliques-n8-r0: mean=12.7 "
        "exceeds bound=0.0"
    )


def test_rand_lines_bound_fails_on_the_first_trace_over_its_bound(monkeypatch):
    monkeypatch.setattr(bench, "bound_for_trace", lambda trace, opt: 0.0)
    assert bench.criterion_rand_lines_bound().line() == (
        "FAIL criterion 4 (rand-lines-bound): lines-n8-r0: mean=25.2 "
        "exceeds bound=0.0"
    )


def test_rand_cliques_mean_is_run_experiments_bit_for_bit(monkeypatch):
    # Criterion 3's first trace and master seed, drawn as the criterion
    # draws them, and run_experiment's mean over the same trials.
    rng = random.Random(103)
    trace = random_trace(Model.CLIQUES, 8, seed=rng.randrange(1 << 48))
    cfg = ExperimentConfig(
        trace=trace,
        trace_id="cliques-n8-r0",
        algo="rand",
        trials=10_000,
        master_seed=rng.randrange(1 << 48),
    )
    mean = run_experiment(cfg).stats.mean
    # A bound of exactly that mean lets the first trace pass, and the float
    # just below it does not: the criterion's mean is the same float.
    below = math.nextafter(mean, -math.inf)
    for first, failing in ((mean, "cliques-n8-r1"), (below, "cliques-n8-r0")):
        bounds = iter([first])
        monkeypatch.setattr(bench, "bound_for_trace", lambda t, o: next(bounds, 0.0))
        line = bench.criterion_rand_cliques_bound().line()
        assert line.startswith(f"FAIL criterion 3 (rand-cliques-bound): {failing}: ")


def _sigma_limit(monkeypatch, limit):
    # 1,000 trials per trace keep the run short.
    monkeypatch.setattr(harness, "_SIGMA_LIMIT", limit)
    real = bench.verify_lemma
    monkeypatch.setattr(
        bench,
        "verify_lemma",
        lambda kind, trials, seed, trace: real(kind, trials=1_000, seed=seed, trace=trace),
    )


def test_frequency_lines_state_the_sigma_limit_in_force(monkeypatch):
    _sigma_limit(monkeypatch, 40.0)
    assert bench.criterion_left_right_frequencies().line() == (
        "PASS criterion 5 (left-right-frequencies): 31 tracked frequencies "
        "over 5 traces x 100000 trials; worst deviation 1.43 sigma (limit 40)"
    )
    assert bench.criterion_orientation_frequencies().line() == (
        "PASS criterion 6 (orientation-frequencies): 13 tracked frequencies "
        "over 5 traces x 100000 trials; worst deviation 1.26 sigma (limit 40)"
    )


def test_left_right_frequencies_fail_past_the_sigma_limit(monkeypatch):
    _sigma_limit(monkeypatch, 0.0)  # any deviation fails
    assert bench.criterion_left_right_frequencies().line() == (
        "FAIL criterion 5 (left-right-frequencies): trace n=6 k=3: "
        "{2,3} left of {0,1,5} off by 0.36 sigma"
    )


def test_orientation_frequencies_fail_past_the_sigma_limit(monkeypatch):
    _sigma_limit(monkeypatch, 0.0)
    assert bench.criterion_orientation_frequencies().line() == (
        "FAIL criterion 6 (orientation-frequencies): trace n=6 k=3: "
        "path (1,0,4) kept forward off by 0.49 sigma"
    )


def test_frequency_traces_hold_their_closed_forms_exactly():
    # Criteria 5-6's traces, from their own seeds: every tracked frequency
    # read off rand's exact law (a block is left of another, a path is laid
    # from its first node) equals its closed form as a Fraction.
    tracked = 0
    for index, kind in ((5, "left-right"), (6, "orientation")):
        for slot, (n, k) in enumerate(bench._FREQUENCY_TRACES):
            model = harness._FREQUENCY_LEMMAS[kind][0]
            trace = random_trace(model, n, seed=500 + index * 10 + slot, events=k)
            law = _trace_law(trace)
            final, pi0 = trace.replay.final, trace.pi0
            roots = list(final.nodes)

            def frequency(before):
                # The probability that node pair ``before`` is laid in order.
                u, v = before
                return sum(p for (node_at, _), p in law.items()
                           if node_at.index(u) < node_at.index(v))

            if kind == "left-right":
                for i, ra in enumerate(roots):
                    for rb in roots[i + 1 :]:
                        tracked += 1
                        assert frequency((ra, rb)) == left_right_probability(
                            final.nodes[ra], final.nodes[rb], pi0
                        ), (n, k, ra, rb)
            else:
                for path in (tuple(p) for p in final.nodes.values() if len(p) >= 2):
                    tracked += 1
                    assert frequency((path[0], path[-1])) == orientation_probability(
                        path, pi0
                    ), (n, k, path)
    assert tracked == 44


def test_oracle_equivalence_fails_on_a_gap(monkeypatch):
    real = bench.exhaustive_opt
    monkeypatch.setattr(
        bench, "exhaustive_opt", lambda trace: SimpleNamespace(cost=real(trace).cost + 1)
    )
    assert bench.criterion_oracle_equivalence().line() == (
        "FAIL criterion 7 (oracle-equivalence): gap on cliques trace n=3 k=1: "
        "dp=0 exhaustive=1; witness trace events=[(2, 1)] pi0='0 2 1'"
    )


def test_feasibility_characterization_fails_on_a_mismatch(monkeypatch):
    monkeypatch.setattr(bench, "is_minla", lambda perm, parts: True)
    assert bench.criterion_feasibility_characterization().line() == (
        "FAIL criterion 8 (feasibility-characterization): mismatch at cliques "
        "n=5 perm=(0, 1, 2, 3, 4)"
    )


def test_algebraic_bounds_fail_on_failed_rows(monkeypatch):
    def row(label, failures):
        return VerifyRow(label, Fraction(0), 0.0, float(failures), failures == 0)

    monkeypatch.setattr(
        bench, "_harmonic_rows", lambda trials, rng: [row("ratio sum <= H_S", 3)]
    )
    monkeypatch.setattr(
        bench, "_identity_rows", lambda trials, rng: [row("x", 0), row("y", 7)]
    )
    assert bench.criterion_algebraic_bounds().line() == (
        "FAIL criterion 10 (algebraic-bounds): ratio sum <= H_S: 3 failures; "
        "y: 7 failures"
    )


def test_coin_vectors_fail_on_a_wrong_law(monkeypatch):
    monkeypatch.setattr(bench, "_trace_law", lambda trace: {})
    assert bench.criterion_coin_vectors().line() == (
        "FAIL criterion 11 (coin-test-vectors): 2 of 2 checks failed"
    )
