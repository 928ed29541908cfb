"""The acceptance experiment suite (exposed as ``bench --suite paper``).

Each criterion function is deterministic (all seeds pinned here), returns a
:class:`CriterionResult`, and is shared by batch mode on the CLI and by the
acceptance test module.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .adversaries import TreeAdversaryConfig, random_trace, tree_adversary
from .algorithms import CoinWeights, RearrangeCoin, rand_clique_step, rand_line_step, run
from .feasibility import arrangement_cost, is_minla
from .harness import (
    ExperimentConfig,
    _harmonic_rows,
    _identity_rows,
    derive_trial_seed,
    duel,
    run_experiment,
    verify_lemma,
)
from .oracle import bound_for_trace, dp_opt, exhaustive_opt, harmonic_number
from .perm import Permutation
from .trace import ComponentPartition, Model, RevealEvent, RevealTrace

__all__ = ["CriterionResult", "ALL_CRITERIA", "run_criterion", "run_paper_suite"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.index} ({self.name}): {self.detail}"


def criterion_det_upper_bound() -> CriterionResult:
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
            result = run("det", trace, validate=False)
            checked += 1
            ratio = result.total_cost / (2 * (n - 1) * opt.cost)
            worst = max(worst, ratio)
            if result.total_cost > 2 * (n - 1) * opt.cost:
                return CriterionResult(
                    1,
                    "det-upper-bound",
                    False,
                    f"violated on {model.value} n={n}: cost={result.total_cost} "
                    f"opt={opt.cost}",
                )
    return CriterionResult(
        1,
        "det-upper-bound",
        True,
        f"{checked} traces with positive optimum; worst cost/(2(n-1)opt)="
        f"{worst:.3f}",
    )


def criterion_det_lower_bound() -> CriterionResult:
    """Middle-node duels drive the deterministic cost up quadratically."""
    reports = {n: duel(n) for n in (9, 13, 17)}
    cost_growth = reports[17].algo_cost / reports[9].algo_cost
    ratio_growth = reports[17].ratio / reports[9].ratio
    opt_ok = all(rep.opt_cost <= n for n, rep in reports.items())
    passed = cost_growth >= 2.5 and ratio_growth >= 1.5 and opt_ok
    detail = (
        f"costs {', '.join(f'n={n}:{rep.algo_cost}' for n, rep in reports.items())}; "
        f"cost(17)/cost(9)={cost_growth:.2f} (>=2.5), "
        f"ratio(17)/ratio(9)={float(ratio_growth):.2f} (>=1.5), "
        f"opt<=n {'holds' if opt_ok else 'fails'}"
    )
    return CriterionResult(2, "det-lower-bound", passed, detail)


def _mean_cost_criterion(
    index: int, name: str, model: Model, master_seed: int
) -> CriterionResult:
    trials = 10_000
    rng = random.Random(master_seed)
    results = []
    for n in (8, 16, 32, 64):
        for rep in range(5):
            trace = random_trace(model, n, seed=rng.randrange(1 << 48))
            opt = dp_opt(trace)
            cfg = ExperimentConfig(
                trace=trace,
                trace_id=f"{model.value}-n{n}-r{rep}",
                algo="rand",
                trials=trials,
                master_seed=rng.randrange(1 << 48),
            )
            stats, _ = run_experiment(cfg, opt=opt)
            bound = bound_for_trace(trace, opt)
            results.append((cfg.trace_id, stats.mean, bound))
            if stats.mean > bound:
                return CriterionResult(
                    index,
                    name,
                    False,
                    f"{cfg.trace_id}: mean={stats.mean:.1f} exceeds bound="
                    f"{bound:.1f}",
                )
    slack = max(mean / bound for _, mean, bound in results if bound > 0)
    return CriterionResult(
        index,
        name,
        True,
        f"{len(results)} traces x {trials} trials; worst mean/bound={slack:.3f}",
    )


def criterion_rand_cliques_bound() -> CriterionResult:
    """Randomized clique cost stays under the 4 H_n harmonic bound."""
    return _mean_cost_criterion(3, "rand-cliques-bound", Model.CLIQUES, 103)


def criterion_rand_lines_bound() -> CriterionResult:
    """Randomized line cost (moving plus rearranging) stays under 8 H_n."""
    return _mean_cost_criterion(4, "rand-lines-bound", Model.LINES, 104)


_FREQUENCY_TRACES = (
    (6, 3),
    (8, 4),
    (9, 5),
    (10, 6),
    (12, 7),
)


def _frequency_criterion(index: int, name: str, kind: str) -> CriterionResult:
    model = Model.CLIQUES if kind == "left-right" else Model.LINES
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
            return CriterionResult(
                index,
                name,
                False,
                f"trace n={n} k={k}: {bad.label} off by {bad.deviations:.2f} sigma",
            )
    return CriterionResult(
        index,
        name,
        True,
        f"{tracked} tracked frequencies over 5 traces x {trials} trials; "
        f"worst deviation {worst:.2f} sigma (limit 4)",
    )


def criterion_left_right_frequencies() -> CriterionResult:
    """Component pair order frequencies match the closed form."""
    return _frequency_criterion(5, "left-right-frequencies", "left-right")


def criterion_orientation_frequencies() -> CriterionResult:
    """Path orientation frequencies match the closed form."""
    return _frequency_criterion(6, "orientation-frequencies", "orientation")


def criterion_oracle_equivalence() -> CriterionResult:
    """Single-move optimum equals the all-schedules optimum on small traces."""
    rng = random.Random(107)
    checked = 0
    for model in (Model.CLIQUES, Model.LINES):
        cases = [(rng.randint(2, 6), None) for _ in range(200)]
        cases += [(7, None) for _ in range(20)]
        for n, _ in cases:
            k = rng.randint(0, n - 1)
            trace = random_trace(model, n, seed=rng.randrange(1 << 48), events=k)
            a = dp_opt(trace)
            b = exhaustive_opt(trace)
            checked += 1
            if a.cost != b.cost:
                return CriterionResult(
                    7,
                    "oracle-equivalence",
                    False,
                    f"gap on {model.value} trace n={n} k={k}: dp={a.cost} "
                    f"exhaustive={b.cost}; witness trace events="
                    f"{[(e.u, e.v) for e in trace.events]} "
                    f"pi0={trace.pi0.to_text()!r}",
                )
    return CriterionResult(
        7, "oracle-equivalence", True, f"{checked} traces, exact equality throughout"
    )


@lru_cache(maxsize=2)
def _all_perms(n: int) -> tuple[Permutation, ...]:
    return tuple(Permutation(p) for p in itertools.permutations(range(n)))


def _random_partition(
    rng: random.Random, n: int, model: Model
) -> ComponentPartition:
    nodes = list(range(n))
    rng.shuffle(nodes)
    groups = []
    i = 0
    while i < n:
        size = rng.randint(1, n - i)
        groups.append(nodes[i : i + size])
        i += size
    return ComponentPartition.from_components(n, model, groups)


def criterion_feasibility_characterization() -> CriterionResult:
    """Contiguity feasibility is exactly cost minimality, exhaustively."""
    rng = random.Random(108)
    checked_perms = 0
    for model in (Model.CLIQUES, Model.LINES):
        for _ in range(50):
            n = rng.randint(2, 7)
            parts = _random_partition(rng, n, model)
            perms = _all_perms(n)
            costs = [arrangement_cost(p, parts, model) for p in perms]
            best = min(costs)
            for p, cost in zip(perms, costs):
                checked_perms += 1
                if is_minla(p, parts, model) != (cost == best):
                    return CriterionResult(
                        8,
                        "feasibility-characterization",
                        False,
                        f"mismatch at {model.value} n={n} perm={p.node_at}",
                    )
    return CriterionResult(
        8,
        "feasibility-characterization",
        True,
        f"{checked_perms} permutations across 100 partitions, equivalence exact",
    )


def criterion_tree_sandwich() -> CriterionResult:
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
            result = run(
                "rand", trace, seed=derive_trial_seed(109, q * samples + i),
                collect_log=False, validate=False,
            )
            cost_sum += result.total_cost
            opt_sum += dp_opt(trace).cost
        ratio = cost_sum / opt_sum
        lo = math.log2(n) / 16
        hi = float(8 * harmonic_number(n))
        ratios[n] = ratio
        detail_parts.append(f"n={n}: {ratio:.3f} in [{lo:.3f}, {hi:.3f}]")
        if not lo <= ratio <= hi:
            return CriterionResult(
                9,
                "tree-lower-bound-sandwich",
                False,
                f"n={n}: ratio {ratio:.3f} outside [{lo:.3f}, {hi:.3f}]",
            )
    increasing = ratios[16] < ratios[64] < ratios[256]
    return CriterionResult(
        9,
        "tree-lower-bound-sandwich",
        increasing,
        "; ".join(detail_parts)
        + ("; strictly increasing" if increasing else "; NOT increasing"),
    )


def criterion_algebraic_bounds() -> CriterionResult:
    """Harmonic prefix bounds and choice-vector identities on random sweeps."""
    rng = random.Random(110)
    rows = _harmonic_rows(10_000, rng) + _identity_rows(10_000, rng)
    failed = [row for row in rows if not row.ok]
    if failed:
        return CriterionResult(
            10,
            "algebraic-bounds",
            False,
            "; ".join(f"{row.label}: {row.deviations:.0f} failures" for row in failed),
        )
    return CriterionResult(
        10,
        "algebraic-bounds",
        True,
        "10000 harmonic series and 10000 identity instances, all inequalities hold",
    )


class _ForcedCoin:
    """Stand-in rng yielding scripted draws, for pinned coin checks."""

    def __init__(self, values: Sequence[int]):
        self._values = list(values)

    def randrange(self, bound: int) -> int:
        value = self._values.pop(0)
        assert 0 <= value < bound
        return value


def criterion_coin_vectors() -> CriterionResult:
    """The published example coin weights are reproduced exactly."""
    # Clique merge of a singleton into a pair across a two-node gap:
    # moving coin must weigh 2/3 against 1/3.
    clique_prefix = RevealTrace(
        model=Model.CLIQUES,
        n=5,
        pi0=Permutation.identity(5),
        events=(RevealEvent(3, 4),),
    )
    checks = []
    for forced, choice, perm, cost, prob in (
        (0, "move_x", (1, 2, 0, 3, 4), 2, Fraction(2, 3)),
        (2, "move_z", (0, 3, 4, 1, 2), 4, Fraction(1, 3)),
    ):
        state = run("rand", clique_prefix, seed=0)
        rand_clique_step(state, RevealEvent(0, 3), _ForcedCoin([forced]))
        step = state.step_log[-1]
        checks.append(step.move_coin == CoinWeights(2, 1, 3))
        checks.append(step.choice == choice)
        checks.append(state.current.node_at == perm)
        checks.append(step.move_cost == cost)
        checks.append(Fraction(step.prob_num, step.prob_den) == prob)

    # Line merge of a 2-path into a 3-path already adjacent: the orientation
    # coin must weigh 9/10 against 1/10.
    line_prefix = RevealTrace(
        model=Model.LINES,
        n=5,
        pi0=Permutation.identity(5),
        events=(RevealEvent(0, 1), RevealEvent(2, 3), RevealEvent(3, 4)),
    )
    for forced, perm, cost, prob in (
        ([0, 0], (1, 0, 2, 3, 4), 1, Fraction(9, 10)),
        ([0, 9], (4, 3, 2, 0, 1), 9, Fraction(1, 10)),
    ):
        state = run("rand", line_prefix, seed=0)
        rand_line_step(state, RevealEvent(0, 2), _ForcedCoin(forced))
        step = state.step_log[-1]
        checks.append(step.rearrange_coin == RearrangeCoin(9, 1, 10))
        checks.append(state.current.node_at == perm)
        checks.append(step.rearrange_cost == cost)
        orient_num = (
            step.rearrange_coin.forward_num
            if step.choice.endswith("forward")
            else step.rearrange_coin.reversed_num
        )
        checks.append(Fraction(orient_num, step.rearrange_coin.denom) == prob)

    passed = all(checks)
    return CriterionResult(
        11,
        "coin-test-vectors",
        passed,
        "moving coin 2/3-1/3 and orientation coin 9/10-1/10 reproduced exactly"
        if passed
        else f"{checks.count(False)} of {len(checks)} checks failed",
    )


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_det_upper_bound,
    criterion_det_lower_bound,
    criterion_rand_cliques_bound,
    criterion_rand_lines_bound,
    criterion_left_right_frequencies,
    criterion_orientation_frequencies,
    criterion_oracle_equivalence,
    criterion_feasibility_characterization,
    criterion_tree_sandwich,
    criterion_algebraic_bounds,
    criterion_coin_vectors,
)


def run_criterion(index: int) -> CriterionResult:
    return ALL_CRITERIA[index - 1]()


def run_paper_suite(out_dir: str | None = None) -> list[CriterionResult]:
    """Run every acceptance criterion; optionally write one report per
    criterion plus a summary into ``out_dir``."""
    results = [fn() for fn in ALL_CRITERIA]
    if out_dir is not None:
        import pathlib

        path = pathlib.Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        for res in results:
            name = f"criterion-{res.index:02d}-{res.name}.txt"
            (path / name).write_text(res.line() + "\n")
        summary = "".join(res.line() + "\n" for res in results)
        (path / "summary.txt").write_text(summary)
    return results
