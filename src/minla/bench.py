"""The acceptance experiment suite (exposed as ``bench --suite paper``).

Each criterion is a deterministic check (all seeds pinned here) that
returns ``(passed, detail)``.  :func:`_criterion` registers it under its
index and name, once: the registered function returns a
:class:`CriterionResult` and joins :data:`ALL_CRITERIA`, which batch mode on
the CLI and the acceptance test module share.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, wraps
from pathlib import Path
from typing import Callable

from . import harness
from .adversaries import TreeAdversaryConfig, random_trace, tree_adversary
from .algorithms import _trace_law, run, run_trials
from .harness import (
    ExperimentConfig, _harmonic_rows, _identity_rows, derive_trial_seed, duel,
    run_experiment, verify_lemma,
)
from .oracle import (
    arrangement_cost, bound_for_trace, dp_opt, exhaustive_opt, harmonic_number, is_minla,
)
from .perm import Permutation
from .trace import ComponentPartition, Model, RevealEvent, RevealTrace

__all__ = ["CriterionResult", "ALL_CRITERIA", "run_paper_suite"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.index} ({self.name}): {self.detail}"


Criterion = Callable[[], CriterionResult]
ALL_CRITERIA: list[Criterion] = []


def _criterion(index: int, name: str):
    """Register a check returning ``(passed, detail)`` as criterion
    ``index``; criteria are defined, and so listed, in index order."""

    def register(check: Callable[[], tuple[bool, str]]) -> Criterion:
        @wraps(check)
        def criterion() -> CriterionResult:
            return CriterionResult(index, name, *check())

        ALL_CRITERIA.append(criterion)
        return criterion

    return register


@_criterion(1, "det-upper-bound")
def criterion_det_upper_bound() -> tuple[bool, str]:
    """Deterministic total cost stays within 2(n-1) times the offline optimum."""
    rng = random.Random(101)
    checked = 0
    worst = 0.0
    for model in (Model.CLIQUES, Model.LINES):
        for _ in range(500):
            n = rng.randint(4, 16)
            trace = random_trace(model, n, seed=rng.randrange(1 << 48))
            opt = dp_opt(trace)
            if opt.cost == 0:
                continue
            cost = run("det", trace).total_cost
            checked += 1
            limit = 2 * (n - 1) * opt.cost
            worst = max(worst, cost / limit)
            if cost > limit:
                return False, (
                    f"violated on {model.value} n={n}: cost={cost} opt={opt.cost}"
                )
    return True, (
        f"{checked} traces with positive optimum; worst cost/(2(n-1)opt)={worst:.3f}"
    )


@_criterion(2, "det-lower-bound")
def criterion_det_lower_bound() -> tuple[bool, str]:
    """Middle-node duels drive the deterministic cost up quadratically."""
    reports = {n: duel(n) for n in (9, 13, 17)}
    cost_growth = reports[17].algo_cost / reports[9].algo_cost
    ratio_growth = reports[17].ratio / reports[9].ratio
    opt_ok = all(rep.opt_cost <= n for n, rep in reports.items())
    min_cost, min_ratio = 2.5, 1.5
    return cost_growth >= min_cost and ratio_growth >= min_ratio and opt_ok, (
        f"costs {', '.join(f'n={n}:{rep.algo_cost}' for n, rep in reports.items())}; "
        f"cost(17)/cost(9)={cost_growth:.2f} (>={min_cost}), "
        f"ratio(17)/ratio(9)={float(ratio_growth):.2f} (>={min_ratio}), "
        f"opt<=n {'holds' if opt_ok else 'fails'}"
    )


def _mean_cost_check(model: Model, seed: int) -> tuple[bool, str]:
    """``rand``'s mean total cost over 10,000 trials, from ``run_experiment``,
    stays under :func:`~minla.oracle.bound_for_trace` on random traces."""
    trials = 10_000
    rng = random.Random(seed)
    traces = [(n, rep) for n in (8, 16, 32, 64) for rep in range(5)]
    slack = 0.0
    for n, rep in traces:
        trace = random_trace(model, n, seed=rng.randrange(1 << 48))
        trace_id = f"{model.value}-n{n}-r{rep}"
        master = rng.randrange(1 << 48)
        exp = run_experiment(ExperimentConfig(trace, trace_id, "rand", trials, master))
        mean, bound = exp.stats.mean, bound_for_trace(trace)
        if mean > bound:
            return False, f"{trace_id}: mean={mean:.1f} exceeds bound={bound:.1f}"
        if bound > 0:
            slack = max(slack, mean / bound)
    return True, f"{len(traces)} traces x {trials} trials; worst mean/bound={slack:.3f}"


@_criterion(3, "rand-cliques-bound")
def criterion_rand_cliques_bound() -> tuple[bool, str]:
    """Randomized clique cost stays under the 4 H_n harmonic bound."""
    return _mean_cost_check(Model.CLIQUES, 103)


@_criterion(4, "rand-lines-bound")
def criterion_rand_lines_bound() -> tuple[bool, str]:
    """Randomized line cost (moving plus rearranging) stays under 8 H_n."""
    return _mean_cost_check(Model.LINES, 104)


_FREQUENCY_TRACES = ((6, 3), (8, 4), (9, 5), (10, 6), (12, 7))


def _frequency_check(index: int, kind: str) -> tuple[bool, str]:
    """``verify_lemma(kind)`` at 100,000 trials on each of
    :data:`_FREQUENCY_TRACES`, seeded from the criterion's ``index``."""
    model = harness._FREQUENCY_LEMMAS[kind][0]
    trials = 100_000
    worst = 0.0
    tracked = 0
    for slot, (n, k) in enumerate(_FREQUENCY_TRACES):
        trace = random_trace(model, n, seed=500 + index * 10 + slot, events=k)
        report = verify_lemma(
            kind, trials=trials, seed=700 + index * 10 + slot, trace=trace
        )
        tracked += len(report.rows)
        worst = max(worst, max(row.deviations for row in report.rows))
        if not report.ok:
            bad = next(row for row in report.rows if not row.ok)
            return False, (
                f"trace n={n} k={k}: {bad.label} off by {bad.deviations:.2f} sigma"
            )
    return True, (
        f"{tracked} tracked frequencies over {len(_FREQUENCY_TRACES)} traces x "
        f"{trials} trials; worst deviation {worst:.2f} sigma "
        f"(limit {harness._SIGMA_LIMIT:g})"
    )


@_criterion(5, "left-right-frequencies")
def criterion_left_right_frequencies() -> tuple[bool, str]:
    """Component pair order frequencies match the closed form."""
    return _frequency_check(5, "left-right")


@_criterion(6, "orientation-frequencies")
def criterion_orientation_frequencies() -> tuple[bool, str]:
    """Path orientation frequencies match the closed form."""
    return _frequency_check(6, "orientation")


@_criterion(7, "oracle-equivalence")
def criterion_oracle_equivalence() -> tuple[bool, str]:
    """Single-move optimum equals the all-schedules optimum on small traces."""
    rng = random.Random(107)
    checked = 0
    for model in (Model.CLIQUES, Model.LINES):
        sizes = [rng.randint(2, 6) for _ in range(200)] + [7] * 20
        for n in sizes:
            k = rng.randint(0, n - 1)
            trace = random_trace(model, n, seed=rng.randrange(1 << 48), events=k)
            a = dp_opt(trace)
            b = exhaustive_opt(trace)
            checked += 1
            if a.cost != b.cost:
                return False, (
                    f"gap on {model.value} trace n={n} k={k}: dp={a.cost} "
                    f"exhaustive={b.cost}; witness trace events="
                    f"{[(e.u, e.v) for e in trace.events]} "
                    f"pi0={trace.pi0.to_text()!r}"
                )
    return True, f"{checked} traces, exact equality throughout"


@cache  # criterion 8 asks for n = 2..7: 5,912 permutations at most
def _all_perms(n: int) -> tuple[Permutation, ...]:
    return tuple(Permutation(p) for p in itertools.permutations(range(n)))


def _random_partition(
    rng: random.Random, n: int, model: Model
) -> ComponentPartition:
    nodes = list(range(n))
    rng.shuffle(nodes)
    parts = ComponentPartition(n, model)
    i = 0
    while i < n:
        size = rng.randint(1, n - i)
        g = nodes[i : i + size]
        for a, b in zip(g, g[1:]):
            parts.merge(a, b)
        i += size
    return parts


@_criterion(8, "feasibility-characterization")
def criterion_feasibility_characterization() -> tuple[bool, str]:
    """Contiguity feasibility is exactly cost minimality, exhaustively."""
    rng = random.Random(108)
    checked = 0
    for model in (Model.CLIQUES, Model.LINES):
        for _ in range(50):
            n = rng.randint(2, 7)
            parts = _random_partition(rng, n, model)
            perms = _all_perms(n)
            costs = [arrangement_cost(p, parts) for p in perms]
            best = min(costs)
            for p, cost in zip(perms, costs):
                checked += 1
                if is_minla(p, parts) != (cost == best):
                    return False, f"mismatch at {model.value} n={n} perm={p.node_at}"
    return True, f"{checked} permutations across 100 partitions, equivalence exact"


@_criterion(9, "tree-lower-bound-sandwich")
def criterion_tree_sandwich() -> tuple[bool, str]:
    """Random-path traces keep the cost ratio between log n / 16 and 8 H_n."""
    samples = 1_000
    ratios = {}
    detail_parts = []
    for q in (4, 6, 8):
        n = 1 << q
        cost_sum = 0
        opt_sum = 0
        for i in range(samples):
            trace = tree_adversary(TreeAdversaryConfig(q=q, seed=109_000 + q * 10_000 + i))
            seed = derive_trial_seed(109, q * samples + i)
            result = next(run_trials(trace, (seed,)))
            cost_sum += result.total_cost
            opt_sum += dp_opt(trace).cost
        ratio = cost_sum / opt_sum
        lo = math.log2(n) / 16
        hi = float(8 * harmonic_number(n))
        ratios[n] = ratio
        detail_parts.append(f"n={n}: {ratio:.3f} in [{lo:.3f}, {hi:.3f}]")
        if not lo <= ratio <= hi:
            return False, f"n={n}: ratio {ratio:.3f} outside [{lo:.3f}, {hi:.3f}]"
    increasing = ratios[16] < ratios[64] < ratios[256]
    return increasing, "; ".join(detail_parts) + (
        "; strictly increasing" if increasing else "; NOT increasing"
    )


@_criterion(10, "algebraic-bounds")
def criterion_algebraic_bounds() -> tuple[bool, str]:
    """Harmonic prefix bounds and choice-vector identities on random sweeps."""
    rng = random.Random(110)
    trials = 10_000
    rows = _harmonic_rows(trials, rng) + _identity_rows(trials, rng)
    failed = [row for row in rows if not row.ok]
    if failed:
        return False, "; ".join(
            f"{row.label}: {row.deviations:.0f} failures" for row in failed
        )
    return True, (
        f"{trials} harmonic series and {trials} identity instances, all inequalities hold"
    )


@_criterion(11, "coin-test-vectors")
def criterion_coin_vectors() -> tuple[bool, str]:
    """The published example coin weights are reproduced exactly, read off
    the exact law of each example trace, whose earlier merges cost nothing."""
    # Clique merge of a singleton into a pair across a two-node gap:
    # moving coin must weigh 2/3 against 1/3.
    clique = RevealTrace(Model.CLIQUES, Permutation.identity(5),
                         (RevealEvent(3, 4), RevealEvent(0, 3)))
    clique_law = {
        ((1, 2, 0, 3, 4), 2): Fraction(2, 3),
        ((0, 3, 4, 1, 2), 4): Fraction(1, 3),
    }
    # Line merge of a 2-path into a 3-path already adjacent: the orientation
    # coin must weigh 9/10 against 1/10.
    line = RevealTrace(Model.LINES, Permutation.identity(5), tuple(
        RevealEvent(u, v) for u, v in ((0, 1), (2, 3), (3, 4), (0, 2))))
    line_law = {
        ((1, 0, 2, 3, 4), 1): Fraction(9, 10),
        ((4, 3, 2, 0, 1), 9): Fraction(1, 10),
    }
    checks = [_trace_law(clique) == clique_law, _trace_law(line) == line_law]
    passed = all(checks)
    return passed, (
        "moving coin 2/3-1/3 and orientation coin 9/10-1/10 reproduced exactly"
        if passed
        else f"{checks.count(False)} of {len(checks)} checks failed"
    )


def run_paper_suite(out_dir: str) -> list[CriterionResult]:
    """Run every acceptance criterion and write one report per criterion, a
    summary and the seconds each criterion took (kept out of the summary,
    so that it stays byte-identical) into ``out_dir``, which is made before
    the first criterion runs, so a bad path fails at once."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    results, seconds = [], []
    for fn in ALL_CRITERIA:
        start = time.perf_counter()
        results.append(fn())
        seconds.append(time.perf_counter() - start)
    files = {
        f"criterion-{res.index:02d}-{res.name}.txt": res.line() + "\n"
        for res in results
    }
    files["summary.txt"] = "".join(files.values())
    files["timings.txt"] = "".join(
        f"criterion {res.index} ({res.name}): {secs:.2f} s\n"
        for res, secs in zip(results, seconds)
    ) + f"total: {sum(seconds):.2f} s\n"
    for name, text in files.items():
        (Path(out_dir) / name).write_text(text, encoding="utf-8")
    return results
