"""The benchmark's workloads: which CLI commands one run times.

Every op is one ``minla.cli.main([...])`` call, exactly a command a user
runs.  Ops come from fixed pools, one pool per op class, so that the
expected output of every pool entry can be pinned in ``golden.json``.  The
workload seed draws the entries a run uses; every class contributes the same
number of ops whatever the seed, so the work per pass stays comparable
across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# The partial-trace shapes (n, events) of the acceptance suite's frequency
# criteria (``minla.bench._FREQUENCY_TRACES``).
FREQUENCY_SHAPES = ((6, 3), (8, 4), (9, 5), (10, 6), (12, 7))

TRACE_ARG = "{trace}"


@dataclass(frozen=True)
class TraceSpec:
    """How set-up generates one trace: ``random_trace`` or ``tree_adversary``."""

    kind: str
    model: str
    n: int
    seed: int
    events: int | None = None


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` holds ``TRACE_ARG`` where the trace file goes."""

    key: str
    family: str
    argv: tuple[str, ...]
    check: str
    trace: TraceSpec | None = None
    trials: int = 0

    @property
    def trace_file(self) -> str:
        """File name of the op's trace; its stem is the ``trace_id`` in outputs."""
        return self.key.replace("/", "-") + ".txt"

    def argv_for(self, trace_path: str | None) -> list[str]:
        return [trace_path if a == TRACE_ARG else a for a in self.argv]


@dataclass(frozen=True)
class OpClass:
    name: str
    variants: int
    per_pass: int
    make: Callable[[str, int], Op]


def _simulate(algo: str, fmt: str, trials: int, trace: Callable[[int], TraceSpec]):
    def make(key: str, v: int) -> Op:
        argv = ("simulate", "--algo", algo, "--trace", TRACE_ARG, "--seed", str(v + 1),
                "--trials", str(trials), "--format", fmt)
        return Op(key, f"simulate-{algo}-{fmt}", argv, fmt, trace(v), trials)

    return make


def _verify_frequency(lemma: str, trials: int, trace: Callable[[int], TraceSpec]):
    def make(key: str, v: int) -> Op:
        argv = ("verify", "--lemma", lemma, "--trials", str(trials), "--seed", str(v + 1),
                "--trace", TRACE_ARG)
        return Op(key, f"verify-{lemma}", argv, "verify", trace(v), trials)

    return make


def _verify_sweep(lemma: str, trials: int):
    def make(key: str, v: int) -> Op:
        argv = ("verify", "--lemma", lemma, "--trials", str(trials), "--seed", str(v + 1))
        return Op(key, f"verify-{lemma}", argv, "verify")

    return make


def _opt(exhaustive: bool, trace: Callable[[int], TraceSpec]):
    def make(key: str, v: int) -> Op:
        argv = ("opt", "--trace", TRACE_ARG) + (("--exhaustive",) if exhaustive else ())
        family = "opt-exhaustive" if exhaustive else "opt-dp"
        return Op(key, family, argv, "opt", trace(v))

    return make


def _duel(n: int):
    def make(key: str, v: int) -> Op:
        return Op(key, "duel", ("duel", "--n", str(n)), "duel")

    return make


def _random(model: str, n: int, events: int | None = None):
    return lambda v: TraceSpec("random", model, n, v, events)


def _tree(n: int):
    return lambda v: TraceSpec("tree", "lines", n, v)


def _mc_lines(trials: int, pools):
    """``pools`` lists (kind, n, variants, per_pass) with kind random or tree."""
    return [
        OpClass(f"{kind}{n}", variants, per_pass,
                _simulate("rand", "csv", trials,
                          _tree(n) if kind == "tree" else _random("lines", n)))
        for kind, n, variants, per_pass in pools
    ]


def _mc_small(clique_ns, shapes, sim_trials: int, verify_trials: int, variants: int):
    classes = [
        OpClass(f"clique{n}", variants, 1,
                _simulate("rand", "json", sim_trials, _random("cliques", n)))
        for n in clique_ns
    ]
    for lemma, model in (("left-right", "cliques"), ("orientation", "lines")):
        classes.extend(
            OpClass(f"{lemma}{n}", variants, 1,
                    _verify_frequency(lemma, verify_trials, _random(model, n, k)))
            for n, k in shapes
        )
    return classes


def _exact(det_ns, opt_shape, exhaustive_ns, duel_ns, sweep_trials, variants: int):
    """``det_ns`` and ``exhaustive_ns`` list (n, draws per pass)."""
    n_opt, k_opt = opt_shape
    classes = []
    for model in ("cliques", "lines"):
        classes.extend(
            OpClass(f"det-{model}{n}", variants, per_pass,
                    _simulate("det", "csv", 1, _random(model, n)))
            for n, per_pass in det_ns
        )
    for model in ("cliques", "lines"):
        classes.append(OpClass(f"opt-{model}{n_opt}", variants, 1,
                               _opt(False, _random(model, n_opt, k_opt))))
        classes.extend(
            OpClass(f"exhaustive-{model}{n}", variants, per_pass,
                    _opt(True, _random(model, n)))
            for n, per_pass in exhaustive_ns
        )
    classes.extend(OpClass(f"duel{n}", 1, 1, _duel(n)) for n in duel_ns)
    classes.extend(
        OpClass(lemma, variants, 1, _verify_sweep(lemma, trials))
        for lemma, trials in sweep_trials
    )
    return classes


# ``full`` is what the benchmark measures; ``tiny`` is for the smoke test.
WORKLOADS: dict[str, dict[str, list[OpClass]]] = {
    "full": {
        "mc-lines": _mc_lines(4, (("lines", 64, 96, 20), ("tree", 64, 96, 20),
                                  ("tree", 256, 32, 6))),
        "mc-small": _mc_small(range(8, 13), FREQUENCY_SHAPES, 2000, 1000, 16),
        # Op mixes are set so that the median and tail ops fall inside
        # clusters of similar ops, not in the gap between two sizes: the small
        # det and exhaustive ops, drawn twice per pass, sit with duel 17 around
        # exact's median, and exact's tail falls among the opt ops below the
        # two det ops at n=21.
        "exact": _exact(((14, 2), (16, 2), (17, 2), (18, 1), (20, 1), (21, 1)), (40, 20),
                        ((6, 2), (7, 2)), (9, 13, 17, 19),
                        (("harmonic", 1000), ("identities", 4000)), 12),
    },
    "tiny": {
        "mc-lines": _mc_lines(2, (("lines", 16, 2, 1), ("tree", 16, 2, 1))),
        "mc-small": _mc_small((6,), FREQUENCY_SHAPES[:1], 1000, 1000, 2),
        "exact": _exact(((8, 1),), (12, 5), ((5, 1),), (9,),
                        (("harmonic", 1000), ("identities", 1000)), 2),
    },
}


# Nominal seconds per full-scale pass.  A run makes round(--seconds /
# PASS_SECONDS) passes, so that every commit times the same ops and its
# percentiles rank the same number of samples.  At the commit that defined
# the benchmark, on a 2-core x86 virtual machine, the passes of a 20-second
# run took 15-30 s.
PASS_SECONDS = {"mc-lines": 2.0, "mc-small": 4.0, "exact": 5.0}


def all_ops(scale: str, workload: str) -> list[Op]:
    """Every pool entry of a workload, for pinning the golden outputs."""
    return [
        cls.make(f"{cls.name}/{v}", v)
        for cls in WORKLOADS[scale][workload]
        for v in range(cls.variants)
    ]


def select_ops(scale: str, workload: str, seed: int) -> list[Op]:
    """The op list of one pass: ``per_pass`` seeded draws from every class."""
    rng = random.Random(f"{workload}/{seed}")
    return [
        cls.make(f"{cls.name}/{v}", v)
        for cls in WORKLOADS[scale][workload]
        for v in rng.sample(range(cls.variants), cls.per_pass)
    ]


def make_trace(spec: TraceSpec, adversaries, model_type):
    """Generate one trace with the program's own generators."""
    if spec.kind == "tree":
        q = spec.n.bit_length() - 1
        return adversaries.tree_adversary(adversaries.TreeAdversaryConfig(q=q, seed=spec.seed))
    return adversaries.random_trace(model_type(spec.model), spec.n, seed=spec.seed,
                                    events=spec.events)
