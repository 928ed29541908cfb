"""Pin the expected output of every pool op in ``golden.json``.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_golden.py [WORKLOAD ...]

With workload names, only those workloads are regenerated (both scales).
Every op must exit 0, and every ``verify`` op must pass; otherwise nothing
is written.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import gate, workloads  # noqa: E402
from perfbench.run import GOLDEN, OUT_DIR, _import_minla, _run_op  # noqa: E402


def main(names: list[str]) -> int:
    minla = _import_minla()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=OUT_DIR))
    bad = []
    try:
        for scale, table in workloads.WORKLOADS.items():
            for workload in table:
                if names and workload not in names:
                    continue
                pinned = golden.setdefault(scale, {})[workload] = {}
                for op in workloads.all_ops(scale, workload):
                    path = None
                    if op.trace is not None:
                        path = workdir / op.trace_file
                        trace = workloads.make_trace(op.trace, minla.adversaries,
                                                     minla.trace.Model)
                        path.write_text(minla.trace.emit_trace(trace))
                    rc, out, err, _ = _run_op(minla.cli, op.argv_for(path and str(path)))
                    facts = gate.facts(op.check, out) if rc == 0 else None
                    if facts is None or facts.get("result", "result: pass") != "result: pass":
                        bad.append(f"{scale}/{workload}/{op.key}: exit {rc} {err.strip()}")
                        continue
                    pinned[op.key] = facts
                print(f"{scale}/{workload}: {len(pinned)} ops pinned", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
