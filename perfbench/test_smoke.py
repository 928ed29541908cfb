"""Smoke test of the benchmark at its tiny scale.

Checks that every workload runs clean, prints every metric that
``BENCHMARK.json`` names with its unit, repeats its traced counts exactly,
and counts a corrupted output as failed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import gate, run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_lists_the_runner_metrics():
    assert _units("end_to_end") == dict(run.END_TO_END)
    assert _units("per_layer") == dict(run.PER_LAYER)
    assert sorted(WORKLOADS) == sorted(run.workloads.WORKLOADS["full"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(capsys, workload):
    result = _bench(capsys, workload, trace=0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_its_counts(capsys, workload):
    first = _bench(capsys, workload, trace=1)
    second = _bench(capsys, workload, trace=1)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _units("per_layer")
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes")}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] >= 1


def test_corrupted_output_counts_as_failed(capsys, monkeypatch):
    import minla.cli

    real = minla.cli.records_to_csv
    monkeypatch.setattr(minla.cli, "records_to_csv", lambda recs: real(recs) + "x")
    result = _bench(capsys, "mc-lines", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 0


def test_gate_tolerates_only_last_digits_of_json_stats():
    out = json.dumps({"records": [], "stats": {"mean": 1.5, "max": 2}}, indent=2,
                     sort_keys=True)
    want = gate.facts("json", out)
    near = out.replace("1.5", repr(1.5 * (1 + 1e-13)))
    far = out.replace("1.5", "1.5001")
    assert gate.matches("json", near, want)
    assert not gate.matches("json", far, want)
    assert not gate.matches("json", out.replace('"max": 2', '"max": 3'), want)
    assert not gate.matches("json", "not json", want)
    assert math.isclose(want["stats"]["mean"], 1.5)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
