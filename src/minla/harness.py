"""Experiment runner: seeded Monte Carlo, statistics, verification reports.

Per-trial seeds are derived from the master seed with a splitmix64 mix, so
adding trials never perturbs earlier ones.  All outputs are deterministic
functions of their configuration: two runs with equal configs are
byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import __version__
from .adversaries import MiddleLineAdversary
from .algorithms import AlgoState, det_step, run
from .errors import ConfigError
from .oracle import (
    OptResult,
    check_harmonic_bounds,
    check_identity_lemmas,
    dp_opt,
    left_right_probability,
    orientation_probability,
)
from .perm import Permutation
from .trace import Model, RevealTrace, replay_components

__all__ = [
    "splitmix64",
    "derive_trial_seed",
    "PRNG_NOTE",
    "ExperimentConfig",
    "TrialStats",
    "run_experiment",
    "records_to_csv",
    "experiment_to_json",
    "format_ratio",
    "VerifyRow",
    "VerifyReport",
    "verify_lemma",
    "DuelReport",
    "duel",
]

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PRNG_NOTE = "mt19937 via random.Random, trial seeds by splitmix64(master, index)"

CSV_HEADER = (
    "trace_id,algo,n,trial,cost_move,cost_rearrange,cost_total,opt_cost,ratio,seed"
)


def splitmix64(state: int) -> int:
    """One output of the splitmix64 avalanche finalizer."""
    z = (state + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """64-bit per-trial seed; independent of how many trials follow."""
    return splitmix64((master_seed + trial_index * _GOLDEN) & _M64)


def format_ratio(cost_total: int, opt_cost: int) -> str:
    """cost/opt as an exact decimal with six digits, or NA when opt is 0."""
    if opt_cost == 0:
        return "NA"
    scaled = Fraction(cost_total * 10**6, opt_cost)
    units = round(scaled)  # round-half-even on the exact rational
    return f"{units // 10**6}.{units % 10**6:06d}"


@dataclass(frozen=True)
class ExperimentConfig:
    trace: RevealTrace
    trace_id: str
    algo: str
    trials: int
    master_seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.algo not in ("det", "rand"):
            raise ConfigError(f"unknown algorithm {self.algo!r}")


@dataclass(frozen=True)
class TrialStats:
    trials: int
    mean: float
    variance: float
    std_error: float
    min: int
    max: int
    mean_move: float
    mean_rearrange: float


def run_experiment(
    cfg: ExperimentConfig, opt: OptResult | None = None
) -> tuple[TrialStats, list[dict]]:
    """Run the configured trials and aggregate their total costs.

    The offline optimum is computed once per trace.  Records are emitted in
    trial order with per-trial seeds, so reruns are reproducible and
    extending the trial count leaves earlier records unchanged.
    """
    if opt is None:
        opt = dp_opt(cfg.trace)
    total_sum = 0
    square_sum = 0
    move_sum = 0
    rearrange_sum = 0
    lo = hi = None
    records = []
    for trial in range(cfg.trials):
        seed = derive_trial_seed(cfg.master_seed, trial)
        result = run(
            cfg.algo, cfg.trace, seed=seed, collect_log=False, validate=(trial == 0)
        )
        total = result.total_cost
        total_sum += total
        square_sum += total * total
        move_sum += result.move_cost
        rearrange_sum += result.rearrange_cost
        lo = total if lo is None else min(lo, total)
        hi = total if hi is None else max(hi, total)
        records.append(
            {
                "trace_id": cfg.trace_id,
                "algo": cfg.algo,
                "n": cfg.trace.n,
                "trial": trial,
                "cost_move": result.move_cost,
                "cost_rearrange": result.rearrange_cost,
                "cost_total": total,
                "opt_cost": opt.cost,
                "ratio": format_ratio(total, opt.cost),
                "seed": seed,
            }
        )
    # Exact integer moments, rounded to float once: with t trials the sample
    # variance is (t S2 - S1^2) / (t (t - 1)).
    t = cfg.trials
    variance = 0.0
    if t > 1:
        variance = (t * square_sum - total_sum * total_sum) / (t * (t - 1))
    stats = TrialStats(
        trials=t,
        mean=total_sum / t,
        variance=variance,
        std_error=math.sqrt(variance / t),
        min=lo,
        max=hi,
        mean_move=move_sum / t,
        mean_rearrange=rearrange_sum / t,
    )
    return stats, records


_CSV_FIELDS = CSV_HEADER.split(",")


def records_to_csv(records: Sequence[dict]) -> str:
    lines = [CSV_HEADER]
    lines.extend(
        ",".join(str(rec[col]) for col in _CSV_FIELDS) for rec in records
    )
    return "\n".join(lines) + "\n"


def experiment_to_json(
    cfg: ExperimentConfig,
    stats: TrialStats,
    records: Sequence[dict],
    opt: OptResult | None = None,
) -> str:
    import json

    payload = {
        "config": {
            "trace_id": cfg.trace_id,
            "model": cfg.trace.model.value,
            "n": cfg.trace.n,
            "events": cfg.trace.k,
            "algo": cfg.algo,
            "trials": cfg.trials,
            "master_seed": cfg.master_seed,
        },
        "version": __version__,
        "prng": PRNG_NOTE,
        "opt": None
        if opt is None
        else {"cost": opt.cost, "witness": opt.witness.to_text()},
        "stats": {
            "mean": stats.mean,
            "variance": stats.variance,
            "std_error": stats.std_error,
            "min": stats.min,
            "max": stats.max,
            "mean_move": stats.mean_move,
            "mean_rearrange": stats.mean_rearrange,
        },
        "records": list(records),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class VerifyRow:
    label: str
    expected: Fraction
    observed: float
    deviations: float
    ok: bool


@dataclass(frozen=True)
class VerifyReport:
    kind: str
    trials: int
    seed: int
    rows: tuple[VerifyRow, ...]
    ok: bool

    def to_text(self) -> str:
        lines = [
            f"verify {self.kind}: trials={self.trials} seed={self.seed} "
            f"version={__version__}",
            f"prng: {PRNG_NOTE}",
        ]
        for row in self.rows:
            lines.append(
                f"  {'ok ' if row.ok else 'FAIL'} {row.label}: "
                f"expected={float(row.expected):.6f} ({row.expected}) "
                f"observed={row.observed:.6f} deviations={row.deviations:.2f}"
            )
        lines.append(f"result: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


_MIN_VERIFY_TRIALS = 1_000
_SIGMA_LIMIT = 4.0


def _frequency_rows(
    trace: RevealTrace, trials: int, seed: int, kind: str
) -> list[VerifyRow]:
    final_parts = replay_components(trace, trace.k)
    roots = final_parts.components()
    if kind == "left-right":
        tracked = [
            (ra, rb)
            for i, ra in enumerate(roots)
            for rb in roots[i + 1 :]
        ]
        if not tracked:
            raise ConfigError("trace merges to one component; no pairs to track")
        expected = {
            (ra, rb): left_right_probability(
                final_parts.nodes_of(ra), final_parts.nodes_of(rb), trace.pi0
            )
            for ra, rb in tracked
        }
        labels = {
            (ra, rb): f"{{{','.join(map(str, sorted(final_parts.nodes_of(ra))))}}}"
            f" left of "
            f"{{{','.join(map(str, sorted(final_parts.nodes_of(rb))))}}}"
            for ra, rb in tracked
        }
    else:
        tracked = [r for r in roots if final_parts.size_of(r) >= 2]
        if not tracked:
            raise ConfigError("trace has no multi-node component to orient")
        expected = {
            r: orientation_probability(final_parts.path_of(r), trace.pi0)
            for r in tracked
        }
        labels = {
            r: f"path ({','.join(map(str, final_parts.path_of(r)))}) kept forward"
            for r in tracked
        }
        paths = {r: tuple(final_parts.path_of(r)) for r in tracked}

    counts = {key: 0 for key in tracked}
    for trial in range(trials):
        result = run(
            "rand",
            trace,
            seed=derive_trial_seed(seed, trial),
            collect_log=False,
            validate=(trial == 0),
        )
        pos = result.current.pos_of
        if kind == "left-right":
            starts = {
                r: min(pos[v] for v in final_parts.nodes_of(r)) for r in roots
            }
            for ra, rb in tracked:
                if starts[ra] < starts[rb]:
                    counts[(ra, rb)] += 1
        else:
            node_at = result.current.node_at
            for r in tracked:
                path = paths[r]
                start = min(pos[v] for v in path)
                if node_at[start : start + len(path)] == path:
                    counts[r] += 1

    rows = []
    for key in tracked:
        p = expected[key]
        observed = counts[key] / trials
        sigma = math.sqrt(float(p) * (1.0 - float(p)) / trials)
        gap = abs(observed - float(p))
        if sigma == 0.0:
            deviations = 0.0 if gap == 0.0 else math.inf
        else:
            deviations = gap / sigma
        rows.append(
            VerifyRow(
                label=labels[key],
                expected=p,
                observed=observed,
                deviations=deviations,
                ok=deviations <= _SIGMA_LIMIT,
            )
        )
    return rows


def verify_lemma(
    kind: str,
    *,
    trials: int,
    seed: int,
    trace: RevealTrace | None = None,
) -> VerifyReport:
    """Monte Carlo or sweep verification of the closed-form guarantees.

    ``left-right`` and ``orientation`` replay a fixed trace ``trials`` times
    and compare component-pair and orientation frequencies against the exact
    formulas, flagging any deviation above four binomial standard errors.
    ``harmonic`` and ``identities`` sweep ``trials`` random instances of the
    algebraic checks.
    """
    if trials < _MIN_VERIFY_TRIALS:
        raise ConfigError(
            f"at least {_MIN_VERIFY_TRIALS} trials required, got {trials}"
        )
    if kind in ("left-right", "orientation"):
        if trace is None:
            raise ConfigError(f"verify {kind} needs a trace")
        want = Model.CLIQUES if kind == "left-right" else Model.LINES
        if trace.model is not want:
            raise ConfigError(f"verify {kind} expects a {want.value} trace")
        rows = _frequency_rows(trace, trials, seed, kind)
    elif kind == "harmonic":
        rows = _harmonic_rows(trials, random.Random(seed))
    elif kind == "identities":
        rows = _identity_rows(trials, random.Random(seed))
    else:
        raise ConfigError(f"unknown verification kind {kind!r}")
    return VerifyReport(
        kind=kind,
        trials=trials,
        seed=seed,
        rows=tuple(rows),
        ok=all(row.ok for row in rows),
    )


def _harmonic_rows(trials: int, rng: random.Random) -> list[VerifyRow]:
    failures = [0, 0, 0]
    for _ in range(trials):
        series = [rng.randint(1, 20) for _ in range(rng.randint(1, 50))]
        result = check_harmonic_bounds(series)
        for slot, ok in enumerate(
            (result.ratio_sum_ok, result.square_sum_ok, result.adjacent_sum_ok)
        ):
            if not ok:
                failures[slot] += 1
    names = ("ratio sum <= H_S", "square sum <= 2 H_S", "adjacent sum <= 2 H_S")
    return [
        VerifyRow(
            label=f"{name} ({trials} series)",
            expected=Fraction(0),
            observed=fails / trials,
            deviations=float(fails),
            ok=fails == 0,
        )
        for name, fails in zip(names, failures)
    ]


def _identity_rows(trials: int, rng: random.Random) -> list[VerifyRow]:
    failures = [0, 0]
    for _ in range(trials):
        n = rng.randint(1, 10)
        a = [rng.uniform(0.0, 10.0) for _ in range(n)]
        b = [rng.uniform(0.0, 1.0) for _ in range(n)]
        eq_ok, le_ok = check_identity_lemmas(a, b)
        if not eq_ok:
            failures[0] += 1
        if not le_ok:
            failures[1] += 1
    names = ("choice-weighted equality", "choice-weighted product bound")
    return [
        VerifyRow(
            label=f"{name} ({trials} instances)",
            expected=Fraction(0),
            observed=fails / trials,
            deviations=float(fails),
            ok=fails == 0,
        )
        for name, fails in zip(names, failures)
    ]


@dataclass(frozen=True)
class DuelReport:
    n: int
    algo_cost: int
    opt_cost: int
    ratio: Fraction
    alternations: int
    induced_trace: RevealTrace
    sides: tuple[str, ...]

    def to_text(self) -> str:
        return (
            f"duel n={self.n}: algo_cost={self.algo_cost} "
            f"opt_cost={self.opt_cost} ratio={format_ratio(self.algo_cost, self.opt_cost)} "
            f"alternations={self.alternations} sides={''.join(self.sides)} "
            f"version={__version__}\n"
        )


def duel(n: int, algo: str = "det", adversary: str = "middle-line") -> DuelReport:
    """Adaptive duel: the adversary grows a path around the middle node while
    the deterministic algorithm serves each request; returns costs, the
    induced trace (replayable standalone), and the side-alternation count."""
    if algo != "det":
        raise ConfigError(f"duels are defined against 'det', got {algo!r}")
    if adversary != "middle-line":
        raise ConfigError(f"unknown adversary {adversary!r}")
    adv = MiddleLineAdversary(n)
    pi0 = Permutation.identity(n)
    state = AlgoState.initial(Model.LINES, pi0)
    events = []
    while (ev := adv.next_event(state.current)) is not None:
        events.append(ev)
        det_step(state, ev)
    induced = RevealTrace(model=Model.LINES, n=n, pi0=pi0, events=tuple(events))
    opt = dp_opt(induced)
    alternations = sum(
        1 for a, b in zip(adv.sides, adv.sides[1:]) if a != b
    )
    return DuelReport(
        n=n,
        algo_cost=state.total_cost,
        opt_cost=opt.cost,
        ratio=Fraction(state.total_cost, opt.cost),
        alternations=alternations,
        induced_trace=induced,
        sides=tuple(adv.sides),
    )
