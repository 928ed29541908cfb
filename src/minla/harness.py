"""Experiment runner: seeded Monte Carlo, statistics, verification reports.

Per-trial seeds are derived from the master seed with a splitmix64 mix, so
adding trials never perturbs earlier ones.  All outputs are deterministic
functions of their configuration: two runs with equal configs are
byte-identical.

An :class:`Experiment` keeps one ``(seed, cost_move, cost_rearrange)`` int
row per trial beside its config, optimum and stats.  Running and emitting
20,000 ``rand`` trials on cliques at n = 10 peaks at about 280 B per trial
for CSV (56 B of it text) and 660 B for JSON, as traced by tracemalloc.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, repeat
from typing import Iterator, Sequence

from . import __version__
from .adversaries import MiddleLineAdversary, random_trace
from .algorithms import AlgoState, det_step, run, run_trials
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
from .trace import Model, RevealTrace

__all__ = [
    "derive_trial_seed",
    "ExperimentConfig",
    "TrialStats",
    "Experiment",
    "run_experiment",
    "VerifyReport",
    "verify_lemma",
    "DuelReport",
    "duel",
]

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PRNG_NOTE = "mt19937 via random.Random, trial seeds by splitmix64(master, index)"

# The most trials one experiment runs, checked before it allocates anything:
# every trial keeps its row until the output is written, about 2.8 GB of JSON.
TRIAL_BOUND = 1 << 22

CSV_HEADER = (
    "trace_id,algo,n,trial,cost_move,cost_rearrange,cost_total,opt_cost,ratio,seed"
)


def _check_ints(**values) -> None:
    """Raise :class:`TypeError` naming the first value that is not exactly an
    int: bools and numpy ints are refused, not read as counts or seeds."""
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """64-bit per-trial seed of two plain ints; independent of how many trials follow."""
    _check_ints(master_seed=master_seed, trial_index=trial_index)
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    return next(_trial_seeds(master_seed + trial_index * _GOLDEN, 1))


def _trial_seeds(master_seed: int, count: int) -> Iterator[int]:
    """``derive_trial_seed(master_seed, i)`` for i < ``count``: the
    splitmix64 stream from ``master_seed``, the mix's only copy."""
    state = master_seed & _M64
    for _ in range(count):
        state = (state + _GOLDEN) & _M64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def format_ratio(cost_total: int, opt_cost: int) -> str:
    """cost/opt as an exact decimal with six digits, or NA when opt is 0."""
    if opt_cost == 0:
        return "NA"
    units, rest = divmod(cost_total * 10**6, opt_cost)
    if 2 * rest > opt_cost or (2 * rest == opt_cost and units & 1):
        units += 1  # round half to even, on exact integers
    return f"{units // 10**6}.{units % 10**6:06d}"


@dataclass(frozen=True)
class ExperimentConfig:
    trace: RevealTrace
    trace_id: str
    algo: str
    trials: int
    master_seed: int

    def __post_init__(self):
        if type(self.trace_id) is not str:
            raise TypeError(f"trace_id must be a str, got {self.trace_id!r}")
        _check_ints(trials=self.trials, master_seed=self.master_seed)
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.trials > TRIAL_BOUND:
            raise ConfigError(f"trials must be at most {TRIAL_BOUND}, got {self.trials}")
        if self.algo not in ("det", "rand"):
            raise ConfigError(f"unknown algorithm {self.algo!r}")


@dataclass(frozen=True)
class TrialStats:
    mean: float
    variance: float
    std_error: float
    min: int
    max: int
    mean_move: float
    mean_rearrange: float


@dataclass(frozen=True)
class Experiment:
    """One finished experiment: its config, the trace's offline optimum, the
    statistics of its total costs, and one ``(seed, cost_move,
    cost_rearrange)`` row of ints per trial, in trial order."""

    cfg: ExperimentConfig
    opt: OptResult
    stats: TrialStats
    rows: tuple[tuple[int, int, int], ...]


def run_experiment(cfg: ExperimentConfig) -> Experiment:
    """Run the configured trials and aggregate their total costs.

    The offline optimum is computed once per trace, and so is ``det``,
    which ignores the seed.  Rows keep per-trial seeds, so reruns are
    reproducible and extending the trial count leaves earlier rows
    unchanged.
    """
    opt = dp_opt(cfg.trace)
    seeds = list(_trial_seeds(cfg.master_seed, cfg.trials))
    if cfg.algo == "rand":
        results = run_trials(cfg.trace, seeds)
    else:
        results = repeat(run("det", cfg.trace))
    rows = tuple((seed, r.move_cost, r.rearrange_cost) for seed, r in zip(seeds, results))
    # Exact integer moments, rounded to float once: with t trials the sample
    # variance is (t S2 - S1^2) / (t (t - 1)).
    t = cfg.trials
    totals = [move + rearrange for _, move, rearrange in rows]
    total_sum, move_sum = sum(totals), sum(row[1] for row in rows)
    variance = 0.0
    if t > 1:
        variance = (t * sum(x * x for x in totals) - total_sum**2) / (t * (t - 1))
    stats = TrialStats(
        mean=total_sum / t,
        variance=variance,
        std_error=math.sqrt(variance / t),
        min=min(totals),
        max=max(totals),
        mean_move=move_sum / t,
        mean_rearrange=(total_sum - move_sum) / t,
    )
    return Experiment(cfg, opt, stats, rows)


def _trials(exp: Experiment):
    """Each trial's index, seed, three costs and ratio, in trial order."""
    totals = {move + rearrange for _, move, rearrange in exp.rows}
    ratios = {total: format_ratio(total, exp.opt.cost) for total in totals}
    for trial, (seed, move, rearrange) in enumerate(exp.rows):
        total = move + rearrange
        yield trial, seed, move, rearrange, total, ratios[total]


def records_to_csv(exp: Experiment) -> str:
    """One header line, then one row per trial, byte for byte as
    ``csv.writer`` writes them.  The strings and the experiment's numbers
    go into one template, and each trial fills in only its own fields."""
    cfg = exp.cfg
    out = io.StringIO()
    # A "\r\n" terminator makes every CPython quote "\r" in a field.
    csv.writer(out, lineterminator="\r\n").writerow((cfg.trace_id, cfg.algo, cfg.trace.n))
    fixed = out.getvalue()[:-2].replace("%", "%%")
    row = f"{fixed},%d,%d,%d,%d,{exp.opt.cost},%s,%d\n"
    # join() frees the rows it gathers from a generator before it returns.
    return CSV_HEADER + "\n" + "".join(
        row % (i, move, rearr, total, ratio, seed)
        for i, seed, move, rearr, total, ratio in _trials(exp)
    )


def experiment_to_json(exp: Experiment) -> str:
    """The experiment byte for byte as ``json.dumps(payload, indent=2,
    sort_keys=True)`` writes it.  The records come from one template that
    holds the experiment's strings and numbers; each trial fills in only
    its own fields."""
    cfg, opt = exp.cfg, exp.opt
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
        "opt": {"cost": opt.cost, "witness": opt.witness.to_text()},
        "stats": asdict(exp.stats),
        "records": [],
    }
    trace_id = json.dumps(cfg.trace_id).replace("%", "%%")
    record = (
        "    {\n"
        f'      "algo": "{cfg.algo}",\n'
        '      "cost_move": %d,\n'
        '      "cost_rearrange": %d,\n'
        '      "cost_total": %d,\n'
        f'      "n": {cfg.trace.n},\n'
        f'      "opt_cost": {opt.cost},\n'
        '      "ratio": "%s",\n'
        '      "seed": %d,\n'
        f'      "trace_id": {trace_id},\n'
        '      "trial": %d\n'
        "    }"
    )
    # Strings hold no raw line break, so only the top-level key matches.
    text = json.dumps(payload, indent=2, sort_keys=True)
    head, tail = text.split('\n  "records": [],\n')
    records = ",\n".join(
        record % (move, rearr, total, ratio, seed, i)
        for i, seed, move, rearr, total, ratio in _trials(exp)
    )
    return f'{head}\n  "records": [\n{records}\n  ],\n{tail}\n'


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


def _binomial_rows(labels, expected, hits, trials: int) -> list[VerifyRow]:
    """Each tracked event's frequency in ``trials`` trials against its closed
    form, flagged past :data:`_SIGMA_LIMIT` binomial standard errors."""
    rows = []
    for label, p, count in zip(labels, expected, hits):
        observed = count / trials
        sigma = math.sqrt(float(p) * (1.0 - float(p)) / trials)
        gap = abs(observed - float(p))
        if sigma == 0.0:
            deviations = 0.0 if gap == 0.0 else math.inf
        else:
            deviations = gap / sigma
        rows.append(VerifyRow(label, p, observed, deviations, deviations <= _SIGMA_LIMIT))
    return rows


def _left_right_rows(trace: RevealTrace, trials: int, seed: int) -> list[VerifyRow]:
    """How often each pair of final components, in root order, ends in that
    order: blocks stand in the order of their slots."""
    nodes = trace.replay.final.nodes
    pairs = list(combinations(nodes, 2))
    if not pairs:
        raise ConfigError("trace merges to one component; no pairs to track")
    group = {r: "{%s}" % ",".join(map(str, sorted(p))) for r, p in nodes.items()}
    labels = [f"{group[ra]} left of {group[rb]}" for ra, rb in pairs]
    expected = [left_right_probability(nodes[ra], nodes[rb], trace.pi0) for ra, rb in pairs]
    hits = [0] * len(pairs)
    for result in run_trials(trace, _trial_seeds(seed, trials)):
        slot = result.slot
        for i, (ra, rb) in enumerate(pairs):
            if slot[ra] < slot[rb]:
                hits[i] += 1
    return _binomial_rows(labels, expected, hits, trials)


def _orientation_rows(trace: RevealTrace, trials: int, seed: int) -> list[VerifyRow]:
    """How often each multi-node final path is laid forward: its first node leads."""
    paths = {r: p for r, p in trace.replay.final.nodes.items() if len(p) >= 2}
    if not paths:
        raise ConfigError("trace has no multi-node component to orient")
    labels = ["path (%s) kept forward" % ",".join(map(str, p)) for p in paths.values()]
    expected = [orientation_probability(p, trace.pi0) for p in paths.values()]
    heads = [(r, p[0]) for r, p in paths.items()]
    hits = [0] * len(heads)
    for result in run_trials(trace, _trial_seeds(seed, trials)):
        left_end = result.left_end
        for i, (r, head) in enumerate(heads):
            if left_end[r] == head:
                hits[i] += 1
    return _binomial_rows(labels, expected, hits, trials)


# Each frequency lemma's model, the seed of its default trace and its rows.
_FREQUENCY_LEMMAS = {
    "left-right": (Model.CLIQUES, 11, _left_right_rows),
    "orientation": (Model.LINES, 12, _orientation_rows),
}


def verify_lemma(
    kind: str,
    *,
    trials: int,
    seed: int,
    trace: RevealTrace | None = None,
) -> VerifyReport:
    """Monte Carlo or sweep verification of the closed-form guarantees, for
    exact int ``trials`` >= 1,000 and ``seed`` (else :class:`TypeError` up front).

    ``left-right`` and ``orientation`` (:data:`_FREQUENCY_LEMMAS`) replay a
    clique or line trace, by default ``random_trace(model, 8, seed=11 or 12,
    events=4)``, ``trials`` times against the exact pair-order and
    orientation formulas, flagging any deviation above four binomial
    standard errors.  ``harmonic`` and ``identities`` take no trace: they
    sweep ``trials`` random instances.
    """
    _check_ints(trials=trials, seed=seed)
    if trials < _MIN_VERIFY_TRIALS:
        raise ConfigError(
            f"at least {_MIN_VERIFY_TRIALS} trials required, got {trials}"
        )
    if kind in _FREQUENCY_LEMMAS:
        model, trace_seed, frequency_rows = _FREQUENCY_LEMMAS[kind]
        if trace is None:
            trace = random_trace(model, 8, seed=trace_seed, events=4)
        if trace.model is not model:
            raise ConfigError(f"verify {kind} expects a {model.value} trace")
        rows = frequency_rows(trace, trials, seed)
    elif kind in ("harmonic", "identities"):
        if trace is not None:
            raise ConfigError(f"verify {kind} takes no trace")
        sweep = _harmonic_rows if kind == "harmonic" else _identity_rows
        rows = sweep(trials, random.Random(seed))
    else:
        raise ConfigError(f"unknown verification kind {kind!r}")
    return VerifyReport(kind, trials, seed, tuple(rows), all(row.ok for row in rows))


# Series drawn before one batched check in the harmonic sweep.  Bounds what
# is held at once: a chunk of series is a few (256, 50) float arrays.
_SWEEP_CHUNK = 256


def _harmonic_rows(trials: int, rng: random.Random) -> list[VerifyRow]:
    """Series are drawn in chunks of :data:`_SWEEP_CHUNK`, and each chunk is
    checked as one batch."""
    failures = [0, 0, 0]
    bits = rng.getrandbits
    for start in range(0, trials, _SWEEP_CHUNK):
        batch = [
            [_below(bits, 20) + 1 for _ in range(_below(bits, 50) + 1)]
            for _ in range(min(_SWEEP_CHUNK, trials - start))
        ]
        for slot, ok in enumerate(check_harmonic_bounds(batch)):
            failures[slot] += len(ok) - int(ok.sum())
    names = ("ratio sum <= H_S", "square sum <= 2 H_S", "adjacent sum <= 2 H_S")
    return _failure_rows(names, failures, f"{trials} series", trials)


# Choice-vector entries (rows times 2^N) of one identity check: a batch of
# one N is checked once it holds this many, so each of its (rows, 2^N)
# float arrays stays at 256 KB.
_IDENTITY_BATCH = 1 << 15


def _identity_rows(trials: int, rng: random.Random) -> list[VerifyRow]:
    """Each instance draws its N as ``randint(1, 10)`` does, then its 2N
    floats, ``a`` (``uniform(0, 10)``, which is ``10.0 * random()``) before
    ``b`` (``uniform(0, 1)``, which is ``random()``), as 4N MT19937 words
    read by one ``getrandbits(128 * N)``.  Two CPython rules make these the
    floats that 2N ``random()`` calls return: ``random()`` reads two words
    w0, w1 and returns ``((w0 >> 5) * 2^26 + (w1 >> 6)) * 2^-53``, and
    ``getrandbits(32 * k)`` returns k words, the first drawn least
    significant; the tests hold the sweep to the literal loop on every
    supported Python.  Instances of one N gather as little-endian bytes and
    are checked as one batch once it holds :data:`_IDENTITY_BATCH`
    choice-vector entries; the sweep ends by checking what is left of each
    N."""
    import numpy as np

    failures = [0, 0]
    bits = rng.getrandbits
    words = {n: bytearray() for n in range(1, 11)}
    full = {n: (_IDENTITY_BATCH >> n) * 16 * n for n in words}  # bytes

    def check(batch: bytearray, n: int) -> None:
        w = np.frombuffer(batch, "<u4").reshape(-1, 2 * n, 2)
        u = ((w[..., 0] >> 5) * 67108864.0 + (w[..., 1] >> 6)) * 2.0**-53
        for slot, ok in enumerate(check_identity_lemmas(10.0 * u[:, :n], u[:, n:])):
            failures[slot] += len(ok) - int(ok.sum())

    for _ in range(trials):
        n = _below(bits, 10) + 1
        batch = words[n]
        batch += bits(128 * n).to_bytes(16 * n, "little")
        if len(batch) >= full[n]:
            check(batch, n)
            batch.clear()
    for n, batch in words.items():
        if batch:
            check(batch, n)
    names = ("choice-weighted equality", "choice-weighted product bound")
    return _failure_rows(names, failures, f"{trials} instances", trials)


def _below(bits, bound: int) -> int:
    """``random.Random.randrange(bound)`` from its word source ``bits``: words
    of ``bound.bit_length()`` bits until one is below ``bound``."""
    k = bound.bit_length()
    r = bits(k)
    while r >= bound:
        r = bits(k)
    return r


def _failure_rows(
    names: Sequence[str], failures: Sequence[int], sweep: str, trials: int
) -> list[VerifyRow]:
    """One row per check of a sweep: it passes when it never failed."""
    return [
        VerifyRow(
            label=f"{name} ({sweep})",
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


def duel(n: int) -> DuelReport:
    """Adaptive duel: the adversary grows a path around the middle node while
    the deterministic algorithm serves each request; returns costs, the
    induced trace (replayable standalone), and the side-alternation count."""
    adv = MiddleLineAdversary(n)
    pi0 = Permutation.identity(n)
    state = AlgoState.initial(pi0, Model.LINES)
    events = []
    while (ev := adv.next_event(state.current)) is not None:
        events.append(ev)
        det_step(state, ev)
    induced = RevealTrace(model=Model.LINES, pi0=pi0, events=tuple(events))
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
