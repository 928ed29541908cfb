"""Benchmark runner for the minla CLI.

Run from the repository root:

    python3 perfbench/run.py --workload mc-lines --seed 1 --seconds 20 --trace 0

One run sets up (imports minla from ``src/``, generates and writes the
workload's traces, warms lazy caches with one op per command family), then
times passes over the workload's op list; ``--seconds`` sets the number of
passes.  Every op's output is checked against ``golden.json``.  With
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
come from the traced ones.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import gate, workloads  # noqa: E402
from perfbench.calibrate import calibrated, probe_ns  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    LAYER_METRICS,
    SPAN_CSV_HEADER,
    TRACER_METRICS,
    SpanStore,
    Tracer,
    layer_metrics,
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
PER_LAYER = tuple((name, unit) for name, unit, _, _ in LAYER_METRICS) + TRACER_METRICS

GOLDEN = Path(__file__).resolve().parent / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"
# The run's own set-up plus this many cold set-ups in child processes; the
# reported setup_s is the median of all of them.
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, broken set-up)."""


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS["full"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(workloads.WORKLOADS), default="full",
                   help="op sizes; 'tiny' is for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up and print it (the run's child processes)")
    return p.parse_args(argv)


def _import_minla():
    """Import minla from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "minla" / "__init__.py").is_file():
        raise BenchError(f"no minla package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import minla
    import minla.adversaries
    import minla.cli
    import minla.trace

    if not Path(minla.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"minla imported from {minla.__file__}, not from {src}")
    return minla


def _run_op(cli, argv):
    """One CLI call with its output captured; returns (exit code, stdout,
    stderr, nanoseconds).  An exception counts as exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter_ns()
    return rc, out.getvalue(), err.getvalue(), t1 - t0


@dataclass
class Setup:
    ops: list
    argvs: list
    workdir: Path


def set_up(args, minla, tracer: Tracer | None = None, store: SpanStore | None = None) -> Setup:
    """Generate and write the traces of the run's ops, then warm lazy caches
    by running the first op of every command family once."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    ops = workloads.select_ops(args.scale, args.workload, args.seed)
    if tracer is not None:
        tracer.install(store)
    try:
        argvs = []
        for op in ops:
            path = None
            if op.trace is not None:
                path = workdir / op.trace_file
                trace = workloads.make_trace(op.trace, minla.adversaries, minla.trace.Model)
                path.write_text(minla.trace.emit_trace(trace))
            argvs.append(op.argv_for(None if path is None else str(path)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    warm = {}
    for op, argv in zip(ops, argvs):
        warm.setdefault(op.family, argv)
    for argv in warm.values():
        _run_op(minla.cli, argv)
    return Setup(ops, argvs, workdir)


@dataclass
class PassResult:
    op_ns: list = field(default_factory=list)
    cal_ns: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def wall_ns(self) -> int:
        return sum(self.op_ns)

    @property
    def cal_wall_ns(self) -> float:
        return sum(self.cal_ns)


def run_pass(setup: Setup, cli, golden: dict, store: SpanStore | None = None) -> PassResult:
    res = PassResult()
    res.probes.append(probe_ns())
    for i, (op, argv) in enumerate(zip(setup.ops, setup.argvs)):
        if store is not None:
            store.op = i
        rc, out, err, ns = _run_op(cli, argv)
        res.probes.append(probe_ns())
        res.op_ns.append(ns)
        res.cal_ns.append(calibrated(ns, res.probes[-2], res.probes[-1]))
        want = golden.get(op.key)
        ok = rc == 0 and want is not None and gate.matches(op.check, out, want)
        if not ok:
            if want is None:
                reason = "no pinned output"
            elif rc == 0:
                reason = "output differs from the pinned one"
            else:
                reason = f"exit {rc}: {err.strip()[-300:]}"
            res.problems.append(f"{op.key}: {reason}")
        res.ok.append(ok)
        res.digests.append(hashlib.sha256(out.encode()).digest())
    return res


def _cross_check(passes: list[PassResult]) -> None:
    """Every pass must repeat the first pass's outputs byte for byte; an op
    that does not counts as failed in that pass."""
    first = passes[0].digests
    for p in passes[1:]:
        for i, digest in enumerate(p.digests):
            if digest != first[i] and p.ok[i]:
                p.ok[i] = False
                p.problems.append(f"op {i}: output differs between passes")


def _tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile rank of the highest percentile with at least
    TAIL_BEYOND samples beyond it (the maximum when there are too few)."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def _trial_rate(p: PassResult, ops) -> float:
    """Algorithm trials per calibrated second of the ops that run trials."""
    ns = sum(t for t, op in zip(p.cal_ns, ops) if op.trials)
    trials = sum(op.trials for op in ops)
    return trials / (ns / 1e9) if ns else 0.0


def _timed_setup(args):
    """Import minla and set up once; returns the set-up, minla and the
    calibrated seconds both took.  The probe runs after the set-up, so that
    the timed import includes numpy's."""
    t0 = time.perf_counter_ns()
    minla = _import_minla()
    setup = set_up(args, minla)
    ns = time.perf_counter_ns() - t0
    probe = probe_ns()
    return setup, minla, calibrated(ns, probe, probe) / 1e9


def _child_setup_seconds(args) -> list[float]:
    out = []
    for _ in range(SETUP_CHILDREN):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale,
               "--setup-only"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"cold set-up failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _passes(args) -> int:
    return max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))


def _traced_passes(args, setup, minla, golden, tracer: Tracer):
    """Alternate untraced and traced passes; returns both lists and the span
    stores of the traced ones.  Self times are scaled by each traced pass's
    calibration."""
    plain, traced, stores = [], [], []
    for _ in range(max(1, round(_passes(args) / 2))):
        plain.append(run_pass(setup, minla.cli, golden))
        store = SpanStore()
        tracer.install(store)
        try:
            traced.append(run_pass(setup, minla.cli, golden, store))
        finally:
            tracer.uninstall()
        store.scale = traced[-1].cal_wall_ns / traced[-1].wall_ns
        stores.append(store)
    return plain, traced, stores, tracer.missing


def _layer_values(setup_store, stores, plain, traced) -> dict:
    values = layer_metrics(setup_store, stores)
    values["tracer.overhead_s"] = (
        statistics.median(p.cal_wall_ns for p in traced)
        - statistics.median(p.cal_wall_ns for p in plain)
    ) / 1e9
    values["tracer.spans"] = len(stores[0])
    return values


def _write_spans(workload: str, setup_store: SpanStore, store: SpanStore) -> Path:
    path = OUT_DIR / f"spans-{workload}.csv"
    with open(path, "w") as fh:
        fh.write(SPAN_CSV_HEADER)
        setup_store.write_csv(fh, "setup")
        store.write_csv(fh, "pass1")
    return path


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.setup_only:
            setup, _, seconds = _timed_setup(args)
            shutil.rmtree(setup.workdir, ignore_errors=True)
            print(json.dumps({"setup_s": seconds}))
            return 0
        load_before = _loadavg()
        if args.trace:
            minla = _import_minla()
            tracer = Tracer()
            setup_store = SpanStore()
            setup = set_up(args, minla, tracer, setup_store)
            setup_samples = []
        else:
            setup, minla, own_setup = _timed_setup(args)
        golden = json.loads(GOLDEN.read_text())[args.scale][args.workload]
        try:
            if args.trace:
                plain, traced, stores, missing = _traced_passes(args, setup, minla, golden,
                                                               tracer)
            else:
                plain = [run_pass(setup, minla.cli, golden) for _ in range(_passes(args))]
                traced, stores, missing = [], [], []
        finally:
            shutil.rmtree(setup.workdir, ignore_errors=True)
        if not args.trace:
            setup_samples = [own_setup] + _child_setup_seconds(args)
        load_after = _loadavg()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = plain + traced
    _cross_check(passes)
    attempted = sum(len(p.ok) for p in passes)
    failed = sum(not ok for p in passes for ok in p.ok)
    problems = [msg for p in passes for msg in p.problems]
    correct = failed == 0

    samples_ms = [ns / 1e6 for p in plain for ns in p.cal_ns]
    tail_ms, tail_pct = _tail(samples_ms)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "ops_per_pass": len(setup.ops),
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "op_samples": len(samples_ms),
        "op_ms_tail_percentile": tail_pct,
        "setup_samples_s": setup_samples,
        "raw_wall_s": statistics.median(p.wall_ns for p in plain) / 1e9,
        "probe_us_median": [
            statistics.median(q[k] for p in passes for q in p.probes) / 1e3 for k in (0, 1)
        ],
        "failed_ratio": failed / attempted,
    }
    if missing:
        record["tracer_missing"] = missing

    if args.trace:
        counts = [s.counts() for s in stores]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            problems.append("traced passes disagree on their exact counts")
        values = _layer_values(setup_store, stores, plain, traced)
        record["spans_file"] = str(
            _write_spans(args.workload, setup_store, stores[0]).relative_to(ROOT))
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(p.cal_wall_ns for p in plain) / 1e9,
            "trials_per_s": statistics.median(_trial_rate(p, setup.ops) for p in plain),
            "op_ms_p50": statistics.median(samples_ms),
            "op_ms_tail": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    record["problems"] = problems[:20]
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"op_ms_tail is p{tail_pct:.1f} of {len(samples_ms)} untraced ops; "
          f"{failed} of {attempted} ops failed")
    for msg in problems[:5]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
