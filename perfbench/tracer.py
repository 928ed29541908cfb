"""Layer tracing from outside the program.

The tracer replaces the names that minla's modules bind for each other's
public functions (for example ``minla.algorithms.solve_block_order`` or
``minla.harness.run``) with wrappers that record one span per call: name,
start, end, parent span and op index.  Spans live in flat arrays while a
pass runs; a span's self time is its duration minus the durations of its
child spans.  ``uninstall`` puts the original functions back, so untraced
passes run the program unchanged.

A name that a later version of the program no longer binds is skipped and
listed in ``missing``; its metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from array import array
from time import perf_counter_ns

# Span name -> the (module, attribute) bindings it wraps.
WRAPS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("minla.cli", "main"),),
    "trace.parse": (("minla.cli", "parse_trace"),),
    "trace.validate": (("minla.trace", "validate_trace"),
                       ("minla.algorithms", "validate_trace")),
    "harness.run_experiment": (("minla.cli", "run_experiment"),),
    "harness.verify": (("minla.cli", "verify_lemma"),),
    "harness.emit": (("minla.cli", "records_to_csv"), ("minla.cli", "experiment_to_json")),
    "harness.duel": (("minla.cli", "duel"),),
    "algorithms.run": (("minla.harness", "run"),),
    "algorithms.rand_step": (("minla.algorithms", "rand_clique_step"),
                             ("minla.algorithms", "rand_line_step")),
    "algorithms.det_step": (("minla.algorithms", "det_step"), ("minla.harness", "det_step")),
    "algorithms.closest_feasible": (("minla.algorithms", "closest_feasible"),
                                    ("minla.oracle", "closest_feasible")),
    "perm.move_block": (("minla.algorithms", "move_block"),),
    "perm.count_inversions": (("minla.algorithms", "count_inversions"),
                              ("minla.perm", "count_inversions"),
                              ("minla.oracle", "count_inversions")),
    "perm.kendall_tau": (("minla.algorithms", "kendall_tau"), ("minla.oracle", "kendall_tau")),
    "feasibility.is_minla": (("minla.algorithms", "is_minla"),),
    "ordering.solve": (("minla.algorithms", "solve_block_order"),
                       ("minla.oracle", "solve_block_order")),
    "ordering.cross_weight": (("minla.algorithms", "cross_weight"),
                              ("minla.oracle", "cross_weight")),
    "oracle.dp_opt": (("minla.cli", "dp_opt"), ("minla.harness", "dp_opt")),
    "oracle.exhaustive": (("minla.cli", "exhaustive_opt"),),
    "oracle.algebraic": (("minla.harness", "check_harmonic_bounds"),
                         ("minla.harness", "check_identity_lemmas")),
    "adversaries.next_event": (("minla.adversaries", "MiddleLineAdversary.next_event"),),
    "adversaries.gen": (("minla.adversaries", "random_trace"),
                        ("minla.adversaries", "tree_adversary")),
}

# Per-layer metrics: (name, unit, source, span or counter).  ``self`` sums
# the span's self time, ``calls`` counts its calls, ``counter`` reads a
# value recorded by a hook below.
LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("algorithms.rand_step_s", "s", "self", "algorithms.rand_step"),
    ("algorithms.rand_steps", "count", "calls", "algorithms.rand_step"),
    ("perm.move_block_s", "s", "self", "perm.move_block"),
    ("perm.move_block_calls", "count", "calls", "perm.move_block"),
    ("perm.count_inversions_s", "s", "self", "perm.count_inversions"),
    ("perm.count_inversions_calls", "count", "calls", "perm.count_inversions"),
    ("feasibility.is_minla_s", "s", "self", "feasibility.is_minla"),
    ("feasibility.is_minla_calls", "count", "calls", "feasibility.is_minla"),
    ("algorithms.run_s", "s", "self", "algorithms.run"),
    ("algorithms.runs", "count", "calls", "algorithms.run"),
    ("harness.run_experiment_s", "s", "self", "harness.run_experiment"),
    ("harness.verify_s", "s", "self", "harness.verify"),
    ("harness.emit_s", "s", "self", "harness.emit"),
    ("harness.emit_bytes", "bytes", "counter", "emit_bytes"),
    ("ordering.solve_s", "s", "self", "ordering.solve"),
    ("ordering.solve_calls", "count", "calls", "ordering.solve"),
    ("ordering.dp_states", "count", "counter", "dp_states"),
    ("ordering.blocks_max", "count", "counter", "blocks_max"),
    ("ordering.cap_headroom_min", "count", "counter", "cap_headroom_min"),
    ("ordering.cross_weight_s", "s", "self", "ordering.cross_weight"),
    ("algorithms.closest_feasible_s", "s", "self", "algorithms.closest_feasible"),
    ("algorithms.det_step_s", "s", "self", "algorithms.det_step"),
    ("algorithms.det_steps", "count", "calls", "algorithms.det_step"),
    ("perm.kendall_tau_s", "s", "self", "perm.kendall_tau"),
    ("oracle.dp_opt_s", "s", "self", "oracle.dp_opt"),
    ("oracle.dp_opt_calls", "count", "calls", "oracle.dp_opt"),
    ("oracle.exhaustive_s", "s", "self", "oracle.exhaustive"),
    ("oracle.algebraic_s", "s", "self", "oracle.algebraic"),
    ("adversaries.next_event_s", "s", "self", "adversaries.next_event"),
    ("harness.duel_s", "s", "self", "harness.duel"),
    ("trace.parse_s", "s", "self", "trace.parse"),
    ("trace.validate_s", "s", "self", "trace.validate"),
    ("trace.validate_calls", "count", "calls", "trace.validate"),
    ("cli.self_s", "s", "self", "cli.main"),
    ("cli.calls", "count", "calls", "cli.main"),
    ("adversaries.gen_s", "s", "self", "adversaries.gen"),
)

# Metrics the tracer reports about itself, next to LAYER_METRICS.
TRACER_METRICS = (("tracer.overhead_s", "s"), ("tracer.spans", "count"))

SPAN_NAMES = tuple(WRAPS)


class SpanStore:
    """Spans of one traced segment, plus per-name totals and hook counters."""

    def __init__(self):
        self.names = array("H")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.child_ns = array("q")
        self.stack: list[int] = []
        self.op = -1
        # Factor from measured to calibrated time (see calibrate.py).
        self.scale = 1.0
        self.self_ns = [0] * len(SPAN_NAMES)
        self.calls = [0] * len(SPAN_NAMES)
        self.counters = {"emit_bytes": 0, "dp_states": 0, "blocks_max": 0,
                         "cap_headroom_min": None}

    def __len__(self) -> int:
        return len(self.names)

    def counts(self) -> dict:
        """Every exact count of the segment: calls per span and hook counters."""
        out = dict(zip(SPAN_NAMES, self.calls))
        out.update(self.counters)
        if out["cap_headroom_min"] is None:  # no solve call in the segment
            out["cap_headroom_min"] = 0
        out["spans"] = len(self)
        return out

    def write_csv(self, fh, segment: str) -> None:
        """Append one row per span; ``span`` and ``parent`` index the segment."""
        for i in range(len(self)):
            fh.write(
                f"{segment},{i},{SPAN_NAMES[self.names[i]]},{self.starts[i]},"
                f"{self.ends[i]},{self.parents[i]},{self.ops[i]}\n"
            )


SPAN_CSV_HEADER = "segment,span,name,start_ns,end_ns,parent,op\n"


def _solve_hook(signature: inspect.Signature):
    """Counts of ``solve_block_order(w, tie_keys, cap)``: m = len(w) blocks."""

    def hook(store: SpanStore, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        m = len(bound.arguments["w"])
        headroom = bound.arguments["cap"] - m
        counters = store.counters
        counters["dp_states"] += 1 << m
        counters["blocks_max"] = max(counters["blocks_max"], m)
        least = counters["cap_headroom_min"]
        counters["cap_headroom_min"] = headroom if least is None else min(least, headroom)

    return hook


def _emit_hook(store: SpanStore, args, kwargs, result) -> None:
    store.counters["emit_bytes"] += len(result.encode())


class Tracer:
    """Installs and removes the span-recording wrappers."""

    def __init__(self):
        self.store: SpanStore | None = None
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        for name, bindings in WRAPS.items():
            for module, attr in bindings:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                try:
                    for part in path:
                        owner = getattr(owner, part)
                    fn = getattr(owner, leaf)
                except AttributeError:
                    self.missing.append(f"{module}.{attr}")
                    continue
                self._saved.append((owner, leaf, fn))
                self._wrappers.append((owner, leaf, self._wrap(name, fn)))

    def _wrap(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        hook = None
        if name == "ordering.solve":
            signature = inspect.signature(fn)
            if {"w", "cap"} <= signature.parameters.keys():
                hook = _solve_hook(signature)
            else:
                self.missing.append(f"{fn.__module__}.{fn.__name__}(w, ..., cap)")
        elif name == "harness.emit":
            hook = _emit_hook
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            store = tracer.store
            idx = len(store.names)
            stack = store.stack
            store.names.append(name_id)
            store.parents.append(stack[-1] if stack else -1)
            store.ops.append(store.op)
            store.child_ns.append(0)
            store.starts.append(0)
            store.ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                store.starts[idx] = t0
                store.ends[idx] = t1
                dur = t1 - t0
                store.self_ns[name_id] += dur - store.child_ns[idx]
                store.calls[name_id] += 1
                if stack:
                    store.child_ns[stack[-1]] += dur
            if hook is not None:
                hook(store, args, kwargs, result)
            return result

        return wrapper

    def install(self, store: SpanStore) -> None:
        self.store = store
        for owner, leaf, wrapper in self._wrappers:
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, fn in self._saved:
            setattr(owner, leaf, fn)
        self.store = None


def layer_metrics(setup: SpanStore, passes: list[SpanStore]) -> dict[str, float]:
    """Per-layer values of a traced run.

    Self times are the set-up's plus the median over traced passes, each
    calibrated by its store's ``scale``; only the trace generators run during
    set-up.  Counts come from the first traced pass, since every pass repeats
    them exactly.
    """
    counts = passes[0].counts()
    out = {}
    for metric, _unit, source, key in LAYER_METRICS:
        if source == "self":
            idx = SPAN_NAMES.index(key)
            median_ns = statistics.median(s.self_ns[idx] * s.scale for s in passes)
            out[metric] = (setup.self_ns[idx] * setup.scale + median_ns) / 1e9
        else:
            out[metric] = counts[key]
    return out
