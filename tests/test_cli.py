import argparse
import ast
import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import minla.algorithms
import minla.cli
import minla.harness
import minla.trace
from minla import (
    InvariantError,
    Model,
    Permutation,
    derive_trial_seed,
    duel,
    emit_trace,
    parse_trace,
    random_trace,
    run,
)
from minla.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_random_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--kind", "random", "--model", "lines", "--n", "6",
            "--seed", "4",
        )
        assert code == 0
        assert out.startswith("minla-trace v1\n")
        assert "model: lines" in out

    def test_tree_requires_power_of_two(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--kind", "tree", "--model", "lines", "--n", "6",
            "--seed", "4",
        )
        assert code == 2
        assert "power of two" in err

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_tree_message_states_the_rule(self, capsys, n):
        # 1 = 2^0 is a power of two too: the rule asks for at least 2.
        code, out, err = run_cli(
            capsys, "gen", "--kind", "tree", "--model", "lines", "--n", str(n),
            "--seed", "4",
        )
        assert (code, out) == (2, "")
        assert err == f"error: tree traces need n to be a power of two of at least 2, got {n}\n"

    @pytest.mark.parametrize("kind, message", [
        ("random", "n must be at most 262144, got 1099511627776"),
        ("tree", "n = 2^q must be at most 262144, got q = 40"),
    ])
    def test_past_the_node_bound_exits_2_at_once(self, capsys, kind, message):
        code, out, err = run_cli(
            capsys, "gen", "--kind", kind, "--model", "lines", "--n", str(1 << 40),
            "--seed", "4",
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_tree_requires_lines(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--kind", "tree", "--model", "cliques", "--n", "8",
            "--seed", "4",
        )
        assert code == 2

    def test_gen_to_file_round_trips(self, capsys, tmp_path):
        out_file = tmp_path / "trace.txt"
        code, _, _ = run_cli(
            capsys, "gen", "--kind", "tree", "--model", "lines", "--n", "8",
            "--seed", "5", "--out", str(out_file),
        )
        assert code == 0
        from minla import parse_trace

        trace = parse_trace(out_file.read_text())
        assert trace.n == 8 and trace.k == 7


@pytest.fixture
def trace_file(tmp_path, capsys):
    path = tmp_path / "t.txt"
    main(
        ["gen", "--kind", "random", "--model", "cliques", "--n", "7", "--seed", "9",
         "--out", str(path)]
    )
    capsys.readouterr()
    return path


class TestSimulate:
    def test_csv_output_reproducible(self, capsys, trace_file):
        argv = (
            "simulate", "--algo", "rand", "--trace", str(trace_file),
            "--seed", "3", "--trials", "4", "--format", "csv",
        )
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        header = out_a.split("\n", 1)[0]
        assert header == (
            "trace_id,algo,n,trial,cost_move,cost_rearrange,cost_total,"
            "opt_cost,ratio,seed"
        )
        assert len(out_a.strip().split("\n")) == 5

    def test_json_output(self, capsys, trace_file):
        code, out, _ = run_cli(
            capsys, "simulate", "--algo", "det", "--trace", str(trace_file),
            "--seed", "3", "--trials", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["algo"] == "det"
        assert len(payload["records"]) == 2

    def test_det_trials_match_per_trial_runs(self, capsys, trace_file, monkeypatch):
        trace = parse_trace(trace_file.read_text())
        loop = [
            run("det", trace, seed=derive_trial_seed(3, trial))
            for trial in range(5)
        ]
        calls = []

        def counting_run(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(minla.harness, "run", counting_run)
        argv = ("simulate", "--algo", "det", "--trace", str(trace_file),
                "--seed", "3", "--trials", "5", "--format")
        code_csv, out_csv, _ = run_cli(capsys, *argv, "csv")
        code_json, out_json, _ = run_cli(capsys, *argv, "json")
        assert code_csv == code_json == 0
        assert len(calls) == 2  # one replay per op
        payload = json.loads(out_json)
        assert [row["cost_total"] for row in csv.DictReader(io.StringIO(out_csv))] == [
            str(res.total_cost) for res in loop
        ]
        for trial, (rec, res) in enumerate(zip(payload["records"], loop)):
            assert rec["trial"] == trial
            assert rec["seed"] == derive_trial_seed(3, trial)
            assert (rec["cost_move"], rec["cost_rearrange"], rec["cost_total"]) == (
                res.move_cost, res.rearrange_cost, res.total_cost
            )
        totals = [res.total_cost for res in loop]
        assert payload["stats"]["mean"] == statistics.mean(totals)
        assert payload["stats"]["variance"] == statistics.variance(totals)
        assert (payload["stats"]["min"], payload["stats"]["max"]) == (
            min(totals), max(totals)
        )

    def test_trace_id_with_a_comma_is_quoted(self, capsys, tmp_path, trace_file):
        path = tmp_path / "a,b.txt"
        path.write_text(trace_file.read_text())
        code, out, _ = run_cli(
            capsys, "simulate", "--algo", "rand", "--trace", str(path),
            "--seed", "3", "--trials", "3", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 4
        assert all(len(row) == 10 for row in rows)
        assert [row[0] for row in rows[1:]] == ["a,b"] * 3

    def test_missing_trace_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--algo", "det", "--trace", str(tmp_path / "no.txt"),
            "--seed", "1", "--trials", "1",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_invalid_trace_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("minla-trace v1\nmodel: rings\nn: 2\npi0: 0 1\n")
        code, _, err = run_cli(
            capsys, "simulate", "--algo", "det", "--trace", str(bad),
            "--seed", "1", "--trials", "1",
        )
        assert code == 2
        assert "line 2" in err

    def test_capacity_exits_3(self, capsys, tmp_path):
        # 46 nodes joined in pairs: 23 multi-node components, over 2^22 states.
        lines = ["minla-trace v1", "model: cliques", "n: 46",
                 "pi0: " + " ".join(map(str, range(46)))]
        lines += [f"event: {i} {i + 1}" for i in range(0, 46, 2)]
        big = tmp_path / "big.txt"
        big.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            capsys, "simulate", "--algo", "det", "--trace", str(big),
            "--seed", "1", "--trials", "1",
        )
        assert code == 3
        assert "cap" in err

    def test_misplaced_det_target_exits_5(self, capsys, tmp_path, monkeypatch):
        # A det target that swaps the first two nodes of a 3-path splits the
        # path: run("det") checks each target of its one batched solve
        # against its own step's partition, as the duel's det_step does.
        path = tmp_path / "path.txt"
        path.write_text("minla-trace v1\nmodel: lines\nn: 5\npi0: 0 1 2 3 4\n"
                        "event: 0 1\nevent: 1 2\nevent: 3 4\n")
        solve_block_orders = minla.algorithms.solve_block_orders

        def swap_path_head(problems):
            problems = list(problems)
            for (seqs, _), (cost, node_at) in zip(problems, solve_block_orders(problems)):
                for seq in seqs:
                    if len(seq) == 3:
                        i, j = node_at.index(seq[0]), node_at.index(seq[1])
                        node_at[i], node_at[j] = node_at[j], node_at[i]
                yield cost, node_at

        monkeypatch.setattr(minla.algorithms, "solve_block_orders", swap_path_head)
        code, out, err = run_cli(
            capsys, "simulate", "--algo", "det", "--trace", str(path),
            "--seed", "1", "--trials", "1",
        )
        assert (code, out) == (5, "")
        assert err.startswith("internal error:")
        assert "at event 1: component 0 (size 3)" in err

    def test_det_past_the_old_cap(self, capsys, tmp_path):
        path = tmp_path / "t32.txt"
        main(["gen", "--kind", "random", "--model", "lines", "--n", "32",
              "--seed", "32", "--out", str(path)])
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "simulate", "--algo", "det", "--trace", str(path),
            "--seed", "1", "--trials", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["config"]["events"] == 31

    def test_invariant_failure_exits_5(self, capsys, tmp_path, monkeypatch):
        # The left end of path 0-1-2 moved to its middle node before event
        # 2: an internal failure, not an invalid trace, named by event and
        # component.
        step_rows = minla.algorithms._step_rows

        def corrupting_rows(state, rows, rng, index):
            step_rows(state, rows[:2], rng, index)
            state.left_end[rows[2][3]] = 1  # the root of event 2's v
            step_rows(state, rows[2:], rng, index + 2)

        monkeypatch.setattr(minla.algorithms, "_step_rows", corrupting_rows)
        path = tmp_path / "t.txt"
        path.write_text(
            "minla-trace v1\nmodel: lines\nn: 4\npi0: 0 1 2 3\n"
            "event: 0 1\nevent: 1 2\nevent: 3 0\n"
        )
        code, _, err = run_cli(
            capsys, "simulate", "--algo", "rand", "--trace", str(path),
            "--seed", "1", "--trials", "1",
        )
        assert code == 5
        assert err.startswith("internal error:")
        assert "at event 2: component 0 (size 3)" in err

    def test_invariant_failure_in_a_later_trial_exits_5(
        self, capsys, tmp_path, monkeypatch
    ):
        # Empty trial 300's slot of component 1 before event 1: that trial
        # names it, and no later trial is stepped.
        step_rows = minla.algorithms._step_rows
        trials = []

        def corrupting_rows(state, rows, rng, index):
            trials.append(state)
            step_rows(state, rows[:1], rng, index)
            if len(trials) == 301:
                state.slot_sizes[1] = 0
            step_rows(state, rows[1:], rng, index + 1)

        monkeypatch.setattr(minla.algorithms, "_step_rows", corrupting_rows)
        path = tmp_path / "t.txt"
        path.write_text(
            "minla-trace v1\nmodel: cliques\nn: 6\npi0: 0 1 2 3 4 5\n"
            "event: 0 5\nevent: 1 4\n"
        )
        code, _, err = run_cli(
            capsys, "simulate", "--algo", "rand", "--trace", str(path),
            "--seed", "1", "--trials", "600",
        )
        assert code == 5
        assert err.startswith("internal error:")
        assert "at event 1: component 1 (size 1)" in err
        assert len(trials) == 301
        # A trial that took event 1 emptied one of the two slots.
        unstepped = [state.slot_sizes[1] * state.slot_sizes[4] for state in trials]
        assert unstepped[:300] == [0] * 300

    @pytest.mark.parametrize("model", ["cliques", "lines"])
    def test_final_state_fault_exits_5(self, capsys, tmp_path, monkeypatch, model):
        # After the last step, swap a node between the two clique blocks, or
        # move the path's left end to its middle node: the final check names
        # the last event and the broken component.
        step_rows = minla.algorithms._step_rows

        def breaking_rows(state, rows, rng, index):
            step_rows(state, rows, rng, index)
            if model == "cliques":
                (a, *rest), (b,) = state.blocks[0], state.blocks[3]
                state.blocks[0], state.blocks[3] = (b, *rest), (a,)
            else:
                state.left_end[0] = 1

        monkeypatch.setattr(minla.algorithms, "_step_rows", breaking_rows)
        path = tmp_path / "t.txt"
        path.write_text(
            f"minla-trace v1\nmodel: {model}\nn: 4\npi0: 0 1 2 3\n"
            "event: 0 1\nevent: 1 2\n"
        )
        code, out, err = run_cli(
            capsys, "simulate", "--algo", "rand", "--trace", str(path),
            "--seed", "1", "--trials", "1",
        )
        assert (code, out) == (5, "")
        assert err.startswith("internal error:")
        assert "at event 1: component 0 (size 3)" in err


class TestOpt:
    def test_dp_and_exhaustive_agree(self, capsys, trace_file):
        code, out_dp, _ = run_cli(capsys, "opt", "--trace", str(trace_file))
        code_e, out_ex, _ = run_cli(
            capsys, "opt", "--trace", str(trace_file), "--exhaustive"
        )
        assert code == code_e == 0
        cost_dp = int(out_dp.split("cost: ")[1].split("\n")[0])
        cost_ex = int(out_ex.split("cost: ")[1].split("\n")[0])
        assert cost_dp == cost_ex


class TestParserBuiltOnce:
    def test_outputs_match_a_fresh_parser(self, capsys, tmp_path, trace_file, monkeypatch):
        out_file = tmp_path / "sim.csv"
        sim = ("simulate", "--algo", "rand", "--trace", str(trace_file), "--seed", "3",
               "--trials", "4")
        sequence = [
            sim + ("--format", "json", "--out", str(out_file)),
            sim,
            ("opt", "--trace", str(trace_file), "--exhaustive"),
            ("opt", "--trace", str(trace_file)),
            ("verify", "--lemma", "harmonic", "--trials", "1000", "--seed", "2"),
            ("duel", "--n", "9"),
        ]
        assert minla.cli._build_parser() is minla.cli._build_parser()
        cached = []
        for argv in sequence:
            code, out, err = run_cli(capsys, *argv)
            cached.append((code, out, err, out_file.read_text()))
        # No --out and no --exhaustive carried over from the call before.
        assert cached[1][1] and cached[3][1].startswith("method: dp\n")
        # A full verify report, not a refused trial count.
        assert cached[4][0] == 0 and cached[4][1].endswith("result: pass\n")
        monkeypatch.setattr(minla.cli, "_build_parser", minla.cli._build_parser.__wrapped__)
        out_file.unlink()
        for argv, want in zip(sequence, cached):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err, out_file.read_text()) == want, argv


_SIM = ("simulate", "--algo", "rand", "--trace", "{trace}", "--seed", "3", "--trials", "4")
_HARMONIC = ("verify", "--lemma", "harmonic", "--trials", "1000", "--seed", "2")
# Argument lines on which main's per-command parse must match the full parse.
_DISPATCH = {
    "help": ("--help",),
    "version": ("--version",),
    "empty": (),
    "unknown-command": ("frobnicate", "--n", "5"),
    "abbreviated-command": ("sim",) + _SIM[1:],
    "separator-first": ("--",) + _SIM,
    **{f"{cmd}-help": (cmd, "--help") for cmd in ("gen", "simulate", "opt", "verify", "duel", "bench")},
    "gen": ("gen", "--kind", "tree", "--model", "lines", "--n", "8", "--seed", "4"),
    "gen-random": ("gen", "--kind", "random", "--model", "cliques", "--n", "9", "--seed", "1"),
    "simulate": _SIM,
    "simulate-json": _SIM + ("--format", "json"),
    "opt": ("opt", "--trace", "{trace}"),
    "opt-exhaustive": ("opt", "--trace", "{trace}", "--exhaustive"),
    "verify": _HARMONIC,
    "verify-too-few-trials": ("verify", "--lemma", "harmonic", "--trials", "100", "--seed", "2"),
    "duel": ("duel", "--n", "7"),
    "duel-even-n": ("duel", "--n", "8"),
    "unknown-option": _SIM + ("--bogus",),
    "unknown-option-value": ("duel", "--n", "7", "--bogus=1"),
    "extra-positional": _HARMONIC + ("extra",),
    "version-after-command": ("duel", "--n", "7", "--version"),
    "abbreviated-version-after-command": _SIM + ("--vers",),
    "separator-after-command": ("duel", "--n", "7", "--", "x"),
    "missing-required": ("simulate", "--algo", "rand"),
    "bad-choice": ("simulate", "--algo", "greedy") + _SIM[3:],
    "non-int": ("duel", "--n", "seven"),
    "equals-values": ("simulate", "--algo=rand", "--trace={trace}", "--seed=3", "--trials=4"),
    "abbreviated-options": ("simulate", "--al", "rand", "--tr", "{trace}", "--se", "3", "--tri", "4"),
    "repeated-option": ("duel", "--n", "5", "--n", "7"),
    "help-after-error": ("duel", "--n", "seven", "-h"),
}


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    """``main`` parses a command named first with that command's parser alone
    and hands anything else, or anything left over, to the full parse."""

    @pytest.mark.parametrize("argv", _DISPATCH.values(), ids=_DISPATCH.keys())
    def test_matches_the_full_parse(self, capsys, monkeypatch, trace_file, argv):
        argv = [arg.replace("{trace}", str(trace_file)) for arg in argv]
        got = _outcome(capsys, argv)
        full = minla.cli._build_parser()[0]
        monkeypatch.setattr(minla.cli, "_build_parser", lambda: (full, {}))
        assert got == _outcome(capsys, argv)

    def test_an_empty_option_name_is_refused_by_the_commands_parser(self, capsys):
        # "--=x" abbreviates every long option, so each parser that reads it
        # refuses it; with the command named first, that is the command's.
        code, out, err = _outcome(capsys, ("duel", "--n", "5", "--=x"))
        assert (code, out) == (2, "")
        assert err.endswith("minla duel: error: ambiguous option: --=x could match "
                            "--help, --n, --dump-trace\n")

    def test_a_well_formed_command_is_parsed_once(self, capsys, monkeypatch, trace_file):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda self, *a: calls.append(self.prog) or parse(self, *a))
        assert run_cli(capsys, *_HARMONIC)[0] == 0
        assert calls == ["minla verify"]
        calls.clear()
        # A leftover argument: the command's parse, then the full one.
        assert _outcome(capsys, _HARMONIC + ("extra",))[0] == 2
        assert calls == ["minla verify", "minla", "minla verify"]


class TestVerify:
    def test_harmonic_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--lemma", "harmonic", "--trials", "1000",
            "--seed", "2",
        )
        assert code == 0
        assert "result: pass" in out

    def test_insufficient_trials_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--lemma", "identities", "--trials", "10",
            "--seed", "2",
        )
        assert code == 2

    @pytest.mark.parametrize("lemma", ["harmonic", "identities"])
    def test_sweeps_reject_a_trace(self, capsys, tmp_path, lemma):
        path = tmp_path / "t.txt"
        path.write_text(emit_trace(random_trace(Model.LINES, 6, seed=13)))
        code, out, err = run_cli(
            capsys, "verify", "--lemma", lemma, "--trials", "1000",
            "--seed", "1", "--trace", str(path),
        )
        assert code == 2
        assert out == ""
        assert f"verify {lemma} takes no trace" in err

    def test_left_right_default_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--lemma", "left-right", "--trials", "2000",
            "--seed", "2",
        )
        assert code == 0
        assert "left of" in out


class TestValidateOnce:
    """A trace is checked when it is built, never again by the engine, and
    that check is its one pass over the merges."""

    @pytest.mark.parametrize("argv", [
        ("simulate", "--algo", "rand", "--trials", "3"),
        ("simulate", "--algo", "det", "--trials", "3"),
        ("verify", "--lemma", "left-right", "--trials", "1000"),
        ("verify", "--lemma", "orientation", "--trials", "1000"),
    ])
    def test_each_op_validates_its_trace_once(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        model = Model.LINES if "orientation" in argv else Model.CLIQUES
        path = tmp_path / "t.txt"
        path.write_text(emit_trace(random_trace(model, 8, seed=51, events=4)))
        calls = []
        real = minla.trace.validate_trace

        def counting(trace):
            calls.append(trace)
            return real(trace)

        # Every name a trace check has been bound to.
        monkeypatch.setattr(minla.trace, "validate_trace", counting)
        monkeypatch.setattr(minla.algorithms, "validate_trace", counting, raising=False)
        code, _, _ = run_cli(capsys, *argv, "--trace", str(path), "--seed", "1")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, model", [
        pytest.param(argv, model, id=prefix + model.value)
        for prefix, argv in [("", ("simulate", "--algo", "rand", "--trials", "50", "--seed", "1")),
                             ("opt-", ("opt",)), ("exhaustive-", ("opt", "--exhaustive"))]
        for model in (Model.CLIQUES, Model.LINES)
    ])
    def test_rand_op_merges_each_event_once(self, capsys, tmp_path, monkeypatch, argv, model):
        # Building the trace merges each event once; rand's trials, dp_opt
        # and the exhaustive search read its replay and merge nothing more.
        trace = random_trace(model, 7, seed=52, events=6)
        path = tmp_path / "t.txt"
        path.write_text(emit_trace(trace))
        merges = []
        real = minla.trace.ComponentPartition.merge

        def counting(parts, *args):
            merges.append(args)
            return real(parts, *args)

        monkeypatch.setattr(minla.trace.ComponentPartition, "merge", counting)
        code, _, _ = run_cli(capsys, *argv, "--trace", str(path))
        assert code == 0
        assert merges == [(ev.u, ev.v) for ev in trace.events]

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_det_op_merges_each_event_twice(self, capsys, tmp_path, monkeypatch, model):
        # Validation merges each event once; run("det") merges it again on
        # a private partition, the only source apart from the replay for
        # the check of each batched target, and then returns over the replay.
        trace = random_trace(model, 7, seed=52, events=6)
        path = tmp_path / "t.txt"
        path.write_text(emit_trace(trace))
        merges = []
        real = minla.trace.ComponentPartition.merge

        def counting(parts, *args):
            merges.append(args)
            return real(parts, *args)

        monkeypatch.setattr(minla.trace.ComponentPartition, "merge", counting)
        code, _, _ = run_cli(capsys, "simulate", "--algo", "det", "--trials", "3",
                             "--seed", "1", "--trace", str(path))
        assert code == 0
        assert merges == [(ev.u, ev.v) for ev in trace.events] * 2


class TestBench:
    def test_writes_reports_and_exit_code(self, capsys, tmp_path, monkeypatch):
        from minla import bench

        fake = [
            lambda: bench.CriterionResult(1, "alpha", True, "fine"),
            lambda: bench.CriterionResult(2, "beta", False, "broke"),
        ]
        monkeypatch.setattr(bench, "ALL_CRITERIA", tuple(fake))
        out_dir = tmp_path / "reports"
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "paper", "--out", str(out_dir)
        )
        assert code == 4
        assert "PASS criterion 1 (alpha): fine" in out
        assert "FAIL criterion 2 (beta): broke" in out
        summary = (out_dir / "summary.txt").read_text()
        assert summary.count("\n") == 2
        assert (out_dir / "criterion-01-alpha.txt").exists()

    def test_timings_written_apart_from_the_summary(
        self, capsys, tmp_path, monkeypatch
    ):
        from minla import bench

        monkeypatch.setattr(
            bench,
            "ALL_CRITERIA",
            (
                lambda: bench.CriterionResult(1, "alpha", True, "fine"),
                lambda: bench.CriterionResult(2, "beta", True, "also fine"),
            ),
        )
        out_dir = tmp_path / "r"
        code, _, _ = run_cli(capsys, "bench", "--suite", "paper", "--out", str(out_dir))
        assert code == 0
        timings = (out_dir / "timings.txt").read_text().splitlines()
        assert len(timings) == 3
        for line, label in zip(timings, ("criterion 1 (alpha)", "criterion 2 (beta)", "total")):
            head, secs = line.split(": ")
            assert head == label
            assert re.fullmatch(r"\d+\.\d\d s", secs)
        assert (out_dir / "summary.txt").read_text() == (
            "PASS criterion 1 (alpha): fine\nPASS criterion 2 (beta): also fine\n"
        )

    def test_all_green_exits_zero(self, capsys, tmp_path, monkeypatch):
        from minla import bench

        monkeypatch.setattr(
            bench,
            "ALL_CRITERIA",
            (lambda: bench.CriterionResult(1, "alpha", True, "fine"),),
        )
        code, _, _ = run_cli(
            capsys, "bench", "--suite", "paper", "--out", str(tmp_path / "r")
        )
        assert code == 0

    def test_bad_out_fails_before_any_criterion(self, capsys, tmp_path, monkeypatch):
        from minla import bench

        calls = []
        monkeypatch.setattr(
            bench,
            "ALL_CRITERIA",
            (lambda: calls.append(1) or bench.CriterionResult(1, "alpha", True, "fine"),),
        )
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, "bench", "--suite", "paper", "--out", str(taken))
        assert (code, out, calls) == (2, "", [])
        assert "File exists" in err


class TestDuel:
    def test_report_and_dump(self, capsys, tmp_path):
        dump = tmp_path / "induced.txt"
        code, out, _ = run_cli(
            capsys, "duel", "--n", "9", "--dump-trace", str(dump),
        )
        assert code == 0
        assert "duel n=9" in out
        from minla import parse_trace, run

        induced = parse_trace(dump.read_text())
        cost = int(out.split("algo_cost=")[1].split()[0])
        assert run("det", induced).total_cost == cost

    def test_misplaced_det_step_exits_5(self, capsys, monkeypatch):
        # A det target that swaps the first two nodes of a 3-path splits the
        # path: the duel's det steps are checked as run("det")'s are.
        closest_feasible = minla.algorithms.closest_feasible

        def swap_path_head(pi0, parts):
            distance, target = closest_feasible(pi0, parts)
            node_at = list(target.node_at)
            for path in parts.nodes.values():
                if len(path) == 3:
                    i, j = (target.pos_of[v] for v in path[:2])
                    node_at[i], node_at[j] = node_at[j], node_at[i]
            return distance, Permutation(node_at)

        monkeypatch.setattr(minla.algorithms, "closest_feasible", swap_path_head)
        with pytest.raises(InvariantError):
            duel(9)
        code, out, err = run_cli(capsys, "duel", "--n", "9")
        assert (code, out) == (5, "")
        assert err.startswith("internal error:")
        assert "(size 3)" in err

    def test_past_the_old_cap(self, capsys):
        code, out, _ = run_cli(capsys, "duel", "--n", "33")
        assert code == 0
        assert "duel n=33" in out

    def test_past_the_node_bound_exits_2_at_once(self, capsys):
        code, out, err = run_cli(capsys, "duel", "--n", str((1 << 40) + 1))
        assert (code, out, err) == (2, "", "error: n must be at most 262144, got 1099511627777\n")

    def test_even_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "duel", "--n", "8")
        assert code == 2


_SRC = Path(__file__).resolve().parent.parent / "src"
# The C locale, with Python's locale coercion and UTF-8 mode off: the
# locale and file system encodings are then ASCII.
_C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def _subprocess_cli(cwd, *argv, stub="", **env):
    """``minla`` in a fresh interpreter where, once the package is imported,
    opening a file with the locale's encoding raises; ``stub`` runs just
    before the command."""
    code = (
        "import sys, warnings\nfrom minla.cli import main\n"
        f"{stub}\nwarnings.simplefilter('error', EncodingWarning)\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-c", code, *argv],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(_SRC), **env), capture_output=True,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def _fresh_commands(cwd, commands):
    """Runs ``commands`` (argv lists) in turn through ``minla`` in one fresh
    interpreter; returns per command its exit code, its stdout and which of
    numpy and ``minla.bench`` were loaded once it returned."""
    code = (
        "import contextlib, io, json, sys\nfrom minla.cli import main\nruns = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        status = main(argv)\n"
        "    loaded = [m for m in ('numpy', 'minla.bench') if m in sys.modules]\n"
        "    runs.append((status, out.getvalue(), loaded))\n"
        "print(json.dumps(runs))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(_SRC)), capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return [tuple(run) for run in json.loads(done.stdout)]


class TestUtf8Files:
    """Every file the CLI reads or writes is UTF-8 whatever the locale."""

    def test_no_file_uses_the_locale_encoding(self, tmp_path):
        _subprocess_cli(
            tmp_path, "gen", "--kind", "random", "--model", "lines", "--n", "6",
            "--seed", "4", "--out", "t.txt",
        )
        for fmt in ("csv", "json"):
            _subprocess_cli(
                tmp_path, "simulate", "--algo", "rand", "--trace", "t.txt",
                "--seed", "1", "--trials", "3", "--format", fmt, "--out", f"out.{fmt}",
            )
        assert b"cost: " in _subprocess_cli(tmp_path, "opt", "--trace", "t.txt")
        assert b"result: pass" in _subprocess_cli(
            tmp_path, "verify", "--lemma", "orientation", "--trials", "1000", "--seed", "1",
            "--trace", "t.txt",
        )
        _subprocess_cli(tmp_path, "duel", "--n", "5", "--dump-trace", "duel.txt")
        assert parse_trace((tmp_path / "duel.txt").read_text(encoding="utf-8")).n == 5

    def test_bench_reports_are_utf8_in_the_c_locale(self, tmp_path):
        # One stub criterion whose detail is not ASCII.  Its line on stdout,
        # the caller's ASCII stream here, goes to a UTF-8 null device.
        stub = (
            "import os\n"
            "from minla import bench\n"
            "bench.ALL_CRITERIA[:] = [lambda: bench.CriterionResult(1, 'a', True, 'na\\xefve')]\n"
            "sys.stdout = open(os.devnull, 'w', encoding='utf-8')"
        )
        _subprocess_cli(
            tmp_path, "bench", "--suite", "paper", "--out", "r", stub=stub, **_C_LOCALE
        )
        for name in ("criterion-01-a.txt", "summary.txt"):
            text = (tmp_path / "r" / name).read_text(encoding="utf-8")
            assert text == "PASS criterion 1 (a): na\xefve\n"
        assert (tmp_path / "r" / "timings.txt").read_text(encoding="utf-8").startswith(
            "criterion 1 (a): "
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_non_ascii_trace_name_writes_the_same_bytes_in_the_c_locale(
        self, tmp_path, fmt
    ):
        trace = random_trace(Model.CLIQUES, 6, seed=3)
        (tmp_path / "café.txt").write_text(emit_trace(trace), encoding="utf-8")
        out = {}
        for name, env in (("c", _C_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
            _subprocess_cli(
                tmp_path, "simulate", "--algo", "rand", "--trace", "café.txt",
                "--seed", "1", "--trials", "3", "--format", fmt, "--out", name, **env,
            )
            out[name] = (tmp_path / name).read_bytes()
        assert out["c"] == out["utf8"]
        text = out["utf8"].decode("utf-8")
        rows = csv.DictReader(io.StringIO(text)) if fmt == "csv" else json.loads(text)["records"]
        assert {row["trace_id"] for row in rows} == {"café"}


class TestColdStart:
    """Commands that run no exact solver load neither numpy nor the paper
    suite; the ones that do load numpy on first use, with unchanged output."""

    def test_light_commands_load_neither(self, tmp_path, capsys):
        light = [
            ["gen", "--kind", "random", "--model", "lines", "--n", "8", "--seed", "4"],
            ["gen", "--kind", "tree", "--model", "lines", "--n", "8", "--seed", "4"],
        ]
        for model in ("lines", "cliques"):
            path = str(tmp_path / f"{model}.txt")
            main(["gen", "--kind", "random", "--model", model, "--n", "7", "--seed", "4",
                  "--out", path])
            light += [
                ["simulate", "--algo", "rand", "--trace", path, "--seed", "1",
                 "--trials", "3", "--format", fmt]
                for fmt in ("csv", "json")
            ]
            light.append(["opt", "--trace", path])  # one component at the end
        light += [
            ["verify", "--lemma", lemma, "--trials", "1000", "--seed", "1"]
            for lemma in ("left-right", "orientation")
        ]
        heavy = [
            ["simulate", "--algo", "det", "--trace", str(tmp_path / "lines.txt"),
             "--seed", "1", "--trials", "1"],
            ["opt", "--trace", str(tmp_path / "cliques.txt"), "--exhaustive"],
            ["verify", "--lemma", "identities", "--trials", "1000", "--seed", "1"],
        ]
        runs = _fresh_commands(tmp_path, light + heavy)
        for argv, (status, out, loaded) in zip(light + heavy, runs):
            assert (status, out) == run_cli(capsys, *argv)[:2] and status == 0, argv
            if argv in light:
                assert loaded == [], argv
        # The first exact solver loads numpy, and nothing loads the suite.
        assert runs[len(light)][2] == ["numpy"]

    def test_no_module_imports_numpy_or_the_suite_when_imported(self):
        found = []
        for path in sorted((_SRC / "minla").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in _import_time_nodes(tree):
                for name in _imported_modules(node):
                    if name.split(".")[0] == "numpy" or (
                        name == "minla.bench" and path.stem != "bench"
                    ):
                        found.append(f"{path.name}:{node.lineno} imports {name}")
        assert found == []


def _import_time_nodes(tree):
    """Every import statement that runs when the module is imported: all but
    those inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node):
    """The modules an import statement in the ``minla`` package may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = ".".join(filter(None, ["minla" if node.level else None, node.module]))
    # ``from pkg import name`` loads pkg, and pkg.name when that is a module.
    return [base] + [f"{base}.{alias.name}" for alias in node.names]
