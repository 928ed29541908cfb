"""Output gate: the facts of an op's output that are pinned in ``golden.json``.

* CSV: the sha256 of the whole text.
* JSON: the sha256 of the document without the float fields of ``stats``,
  plus those floats, which compare with a tight relative tolerance so that a
  last-ulp change in the statistics is not a failure.
* ``opt``: method, integer cost and witness.
* ``duel``: integer costs, side alternations and the side sequence.
* ``verify``: the ``result:`` line, which must read ``pass``, plus the sha256
  of the per-row lines.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

_REL_TOL = 1e-9
_DUEL = re.compile(
    r"algo_cost=(\d+) opt_cost=(\d+) ratio=\S+ alternations=(\d+) sides=(\S*)"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def facts(check: str, out: str) -> dict:
    """The pinned facts of one output; raises ValueError when it is malformed."""
    if check == "csv":
        return {"sha256": _sha(out)}
    if check == "json":
        payload = json.loads(out)
        stats = payload["stats"]
        floats = {k: v for k, v in stats.items() if isinstance(v, float)}
        payload["stats"] = {k: v for k, v in stats.items() if k not in floats}
        return {
            "sha256": _sha(json.dumps(payload, indent=2, sort_keys=True)),
            "stats": floats,
        }
    if check == "opt":
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        return {
            "method": fields["method"],
            "cost": int(fields["cost"]),
            "witness": fields["witness"],
        }
    if check == "duel":
        m = _DUEL.search(out)
        if m is None:
            raise ValueError("duel output lacks its cost fields")
        return {
            "algo_cost": int(m[1]),
            "opt_cost": int(m[2]),
            "alternations": int(m[3]),
            "sides": m[4],
        }
    if check == "verify":
        lines = out.splitlines()
        rows = "\n".join(line for line in lines if line.startswith("  "))
        return {"result": lines[-1], "rows_sha256": _sha(rows)}
    raise ValueError(f"unknown output kind {check!r}")


def matches(check: str, out: str, want: dict) -> bool:
    """True iff ``out`` carries exactly the pinned facts ``want``."""
    try:
        got = facts(check, out)
    except (ValueError, KeyError, IndexError, TypeError):
        return False
    if check == "verify" and got["result"] != "result: pass":
        return False
    if check != "json":
        return got == want
    if got["sha256"] != want["sha256"] or got["stats"].keys() != want["stats"].keys():
        return False
    return all(
        math.isclose(got["stats"][k], v, rel_tol=_REL_TOL, abs_tol=1e-12)
        for k, v in want["stats"].items()
    )
