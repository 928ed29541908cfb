import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import minla.cli
import minla.harness
from conftest import (
    SPLITMIX64_GOLDEN,
    fraction_ratio,
    frequency_counts,
    reference_experiment_json,
    reference_harmonic_rows,
    reference_identity_rows,
    reference_rand,
    reference_records_csv,
    splitmix64,
)
from minla import bench
from minla import (
    ConfigError,
    ExperimentConfig,
    Model,
    Permutation,
    RevealEvent,
    RevealTrace,
    bound_for_trace,
    derive_trial_seed,
    dp_opt,
    duel,
    random_trace,
    run,
    run_experiment,
    verify_lemma,
)
from minla.harness import (
    CSV_HEADER,
    VerifyReport,
    experiment_to_json,
    format_ratio,
    records_to_csv,
)


class TestSeedDerivation:
    def test_reference_vector(self):
        # published splitmix64 outputs for the all-zero seed
        assert derive_trial_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_trial_seed(0, 1) == 0x6E789E6AA1B965F4
        assert derive_trial_seed(0, 2) == 0x06C45D188009454F

    @pytest.mark.parametrize("master", [0, 1, -1, 2**63, 2**64 - 1, 2**64 + 3])
    @pytest.mark.parametrize("count", [0, 1, 2000])
    def test_seed_stream_matches_the_reference(self, master, count):
        # The inline stream and derive_trial_seed both give trial i the
        # literal splitmix64 output for master + i * golden.
        expected = [splitmix64(master + i * SPLITMIX64_GOLDEN) for i in range(count)]
        assert list(minla.harness._trial_seeds(master, count)) == expected
        assert [derive_trial_seed(master, i) for i in range(count)] == expected

    def test_trial_zero_is_the_splitmix64_value_of_the_master(self):
        rng = random.Random(38)
        masters = [rng.randrange(-(1 << 70), 1 << 70) for _ in range(2_000)]
        for master in masters + [0, -1, (1 << 64) - 1, 1 << 64]:
            assert derive_trial_seed(master, 0) == splitmix64(master)

    def test_prefix_stable(self):
        first = [derive_trial_seed(99, i) for i in range(10)]
        assert [derive_trial_seed(99, i) for i in range(20)][:10] == first

    def test_avalanche_spread(self):
        outs = {derive_trial_seed(s, 0) for s in range(1000)}
        assert len(outs) == 1000

    @pytest.mark.parametrize("trial", [-1, -(2**64)])
    def test_negative_trial_index_rejected(self, trial):
        with pytest.raises(ValueError, match="trial_index must be >= 0, got -"):
            derive_trial_seed(1, trial)

    @pytest.mark.parametrize("args, name", [
        ((True, 0), "master_seed"), ((0, True), "trial_index"),
        ((np.int64(1), 0), "master_seed"), ((0, 1.0), "trial_index"),
    ], ids=["bool-master", "bool-trial", "numpy-master", "float-trial"])
    def test_non_int_arguments_refused(self, args, name):
        # Unchecked, derive_trial_seed(True, 0) returns master 1's seed.
        with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
            derive_trial_seed(*args)


class TestRatioFormatting:
    def test_na_for_zero_opt(self):
        assert format_ratio(0, 0) == "NA"
        assert format_ratio(5, 0) == "NA"

    def test_six_exact_digits(self):
        assert format_ratio(1, 3) == "0.333333"
        assert format_ratio(2, 3) == "0.666667"
        assert format_ratio(7, 1) == "7.000000"
        assert format_ratio(22, 7) == "3.142857"

    def test_round_half_even_on_exact_rational(self):
        assert format_ratio(1, 2_000_000) == "0.000000"
        assert format_ratio(3, 2_000_000) == "0.000002"

    def test_matches_exact_fraction_rounding(self):
        rng = random.Random(21)
        pairs = [(rng.randrange(10**9), rng.randrange(1, 10**7)) for _ in range(5000)]
        pairs += [(c, 2 * 10**6 * k) for k in (1, 3, 7) for c in range(0, 40 * k, k)]
        pairs += [(0, 0), (5, 0), (10**30 + 7, 3), (1, 1)]
        for cost, opt in pairs:
            assert format_ratio(cost, opt) == fraction_ratio(cost, opt)


class TestRunExperiment:
    def test_det_on_empty_trace(self):
        trace = random_trace(Model.LINES, 5, seed=1, events=0)
        cfg = ExperimentConfig(
            trace=trace, trace_id="t0", algo="det", trials=1, master_seed=7
        )
        exp = run_experiment(cfg)
        assert exp.stats.mean == 0
        assert exp.opt.cost == 0
        assert exp.rows == ((derive_trial_seed(7, 0), 0, 0),)
        assert records_to_csv(exp).endswith(",0,0,0,0,NA,%d\n" % exp.rows[0][0])

    def test_det_replays_once(self, monkeypatch):
        # det ignores the seed: one replay stands for every trial, and the
        # rows equal those of one run per trial.
        trace = random_trace(Model.LINES, 9, seed=31)
        seeds = [derive_trial_seed(7, trial) for trial in range(5)]
        loop = [run("det", trace, seed=seed) for seed in seeds]
        calls = []

        def counting_run(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(minla.harness, "run", counting_run)
        cfg = ExperimentConfig(
            trace=trace, trace_id="t", algo="det", trials=5, master_seed=7
        )
        exp = run_experiment(cfg)
        assert len(calls) == 1
        assert exp.rows == tuple(
            (seed, res.move_cost, res.rearrange_cost) for seed, res in zip(seeds, loop)
        )
        assert exp.opt == dp_opt(trace)
        assert exp.stats.min == exp.stats.max == loop[0].total_cost
        assert exp.stats.variance == 0.0

    def test_csv_reproducible_and_well_formed(self):
        trace = random_trace(Model.CLIQUES, 8, seed=2)
        cfg = ExperimentConfig(
            trace=trace, trace_id="t1", algo="rand", trials=5, master_seed=11
        )
        csv_a = records_to_csv(run_experiment(cfg))
        csv_b = records_to_csv(run_experiment(cfg))
        assert csv_a == csv_b
        lines = csv_a.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6

    def test_json_embeds_config_and_version(self):
        import json

        trace = random_trace(Model.LINES, 6, seed=3)
        cfg = ExperimentConfig(
            trace=trace, trace_id="t2", algo="rand", trials=3, master_seed=13
        )
        payload = json.loads(experiment_to_json(run_experiment(cfg)))
        assert payload["config"]["master_seed"] == 13
        assert payload["config"]["trace_id"] == "t2"
        assert "version" in payload and "prng" in payload
        assert len(payload["records"]) == 3

    def test_stats_match_numpy(self):
        trace = random_trace(Model.LINES, 9, seed=4)
        cfg = ExperimentConfig(
            trace=trace, trace_id="t3", algo="rand", trials=64, master_seed=17
        )
        stats = run_experiment(cfg).stats
        seeds = [derive_trial_seed(17, trial) for trial in range(64)]
        totals = np.array([run("rand", trace, seed=s).total_cost for s in seeds], dtype=float)
        assert stats.mean == pytest.approx(totals.mean())
        assert stats.variance == pytest.approx(totals.var(ddof=1))
        assert stats.std_error == pytest.approx(
            math.sqrt(totals.var(ddof=1) / len(totals))
        )
        assert stats.min == totals.min() and stats.max == totals.max()

    def test_extending_trials_preserves_prefix(self):
        trace = random_trace(Model.CLIQUES, 7, seed=5)
        short = ExperimentConfig(
            trace=trace, trace_id="t4", algo="rand", trials=4, master_seed=19
        )
        long = ExperimentConfig(
            trace=trace, trace_id="t4", algo="rand", trials=8, master_seed=19
        )
        assert run_experiment(long).rows[:4] == run_experiment(short).rows

    def test_mean_within_harmonic_bound_smoke(self):
        trace = random_trace(Model.CLIQUES, 16, seed=6)
        cfg = ExperimentConfig(
            trace=trace, trace_id="t5", algo="rand", trials=2000, master_seed=23
        )
        exp = run_experiment(cfg)
        assert exp.stats.mean <= bound_for_trace(trace, exp.opt)

    def test_csv_peak_memory_per_trial(self):
        # A trial keeps one row of three ints, and the CSV rows are joined as
        # they are made: the traced peak is about 280 B per trial, of which
        # the text itself is 55 B.
        trace = random_trace(Model.CLIQUES, 10, seed=3)
        run_experiment(ExperimentConfig(trace, "t", "rand", 1, 1))  # warm caches
        cfg = ExperimentConfig(trace, "t", "rand", 5000, 1)
        tracemalloc.start()
        try:
            records_to_csv(run_experiment(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / cfg.trials <= 400

    def test_bad_config_rejected(self):
        trace = random_trace(Model.LINES, 4, seed=7)
        with pytest.raises(ConfigError):
            ExperimentConfig(
                trace=trace, trace_id="x", algo="rand", trials=0, master_seed=1
            )
        with pytest.raises(ConfigError):
            ExperimentConfig(
                trace=trace, trace_id="x", algo="fast", trials=1, master_seed=1
            )
        for trials, master_seed in ((2.0, 1), (1, 1.0), (1, "1"), (None, 1)):
            with pytest.raises(TypeError):
                ExperimentConfig(trace, "x", "rand", trials, master_seed)

    def test_integer_likes_become_ints(self):
        trace = random_trace(Model.LINES, 4, seed=7)
        cfg = ExperimentConfig(trace, "x", "rand", True, np.int64(5))
        assert (type(cfg.trials), cfg.trials) == (int, 1)
        assert (type(cfg.master_seed), cfg.master_seed) == (int, 5)
        assert '"trials": 1\n' in experiment_to_json(run_experiment(cfg))
        with pytest.raises(ConfigError, match="trials must be >= 1, got 0"):
            ExperimentConfig(trace, "x", "rand", False, 1)


# Trace ids a format must escape or quote: a quote, a backslash, a comma, a
# line break, a carriage return, a tab, a non-ASCII letter, a control
# character, the template characters % and {}, and the empty id.
_AWKWARD_IDS = (
    'say "hi"', "back\\slash", "a,b", "two\nlines", "cr\rlf", "tab\there",
    "caf\u00e9", "bell\x07", "100% {id}", "",
)


class TestEmitterBytes:
    """Both emitters, byte for byte, against whole-payload stdlib calls."""

    def _cases(self):
        lines = random_trace(Model.LINES, 7, seed=31)
        cliques = random_trace(Model.CLIQUES, 9, seed=32)
        # Merging two pi0 neighbours keeps pi0 feasible: opt 0, ratio NA.
        free = RevealTrace(
            model=Model.LINES, n=3, pi0=Permutation.identity(3),
            events=(RevealEvent(0, 1),),
        )
        for i, trace_id in enumerate(_AWKWARD_IDS):
            trace = (lines, cliques)[i % 2]
            yield ExperimentConfig(trace, trace_id, "rand", 3 + i, i)
        for algo in ("rand", "det"):
            yield ExperimentConfig(free, "free", algo, 4, 5)
            yield ExperimentConfig(lines, "det-or-rand", algo, 6, 2**63 + 7)
            yield ExperimentConfig(cliques, "one", algo, 1, 2**64 + 1)

    def test_csv_and_json_match_the_stdlib(self):
        big_seed = na = False
        for cfg in self._cases():
            exp = run_experiment(cfg)
            big_seed |= any(seed >= 2**63 for seed, _, _ in exp.rows)
            na |= exp.opt.cost == 0
            assert records_to_csv(exp) == reference_records_csv(exp)
            assert experiment_to_json(exp) == reference_experiment_json(exp)
        assert big_seed and na


def _one_trial_at_a_time(trace, seeds):
    """The ``rand`` trials as a loop of single-trial runs."""
    for seed in seeds:
        yield run("rand", trace, seed=seed)


class TestLockstepChunks:
    """``run_trials`` against a loop of single-trial runs, at trial counts
    around the 256-trial chunks that the engine once stepped in lockstep."""

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_experiments_match_single_trial_runs(self, model, monkeypatch):
        trace = random_trace(model, 9, seed=22)
        results = {}
        for engine in ("run_trials", "single"):
            if engine == "single":
                monkeypatch.setattr(minla.harness, "run_trials", _one_trial_at_a_time)
            for trials in (1, 255, 256, 257, 515):
                cfg = ExperimentConfig(
                    trace=trace, trace_id="t", algo="rand", trials=trials,
                    master_seed=trials,
                )
                results[engine, trials] = run_experiment(cfg)
        for trials in (1, 255, 256, 257, 515):
            assert results["run_trials", trials] == results["single", trials]

    def test_verify_reports_match_single_trial_runs(self, monkeypatch):
        cases = (
            ("left-right", random_trace(Model.CLIQUES, 8, seed=23, events=4)),
            ("orientation", random_trace(Model.LINES, 8, seed=24, events=5)),
        )
        texts = {}
        for engine in ("run_trials", "single"):
            if engine == "single":
                monkeypatch.setattr(minla.harness, "run_trials", _one_trial_at_a_time)
            for kind, trace in cases:
                report = verify_lemma(kind, trials=1027, seed=3, trace=trace)
                texts[engine, kind] = report.to_text()
        for kind, _ in cases:
            assert texts["run_trials", kind] == texts["single", kind]


class TestVerifyLemma:
    @pytest.mark.parametrize("kind, model, rows_of", [
        ("left-right", Model.CLIQUES, "_left_right_rows"),
        ("orientation", Model.LINES, "_orientation_rows"),
    ])
    def test_frequencies_match_reference_permutations(self, kind, model, rows_of):
        # The counts read off 300 trial states, which share the trace's
        # replay, equal those read off the literal final permutations.
        trials = 300
        traces = [
            random_trace(model, 8, seed=41, events=4),
            random_trace(model, 9, seed=42, events=6),
            random_trace(model, 11, seed=43, events=3),
        ]
        if model is Model.LINES:
            traces.append(random_trace(model, 7, seed=44))
        for trace in traces:
            seeds = [derive_trial_seed(5, trial) for trial in range(trials)]
            finals = [reference_rand(trace, seed)[3][-1] for seed in seeds]
            counts = frequency_counts(trace, finals, kind)
            rows = getattr(minla.harness, rows_of)(trace, trials, 5)
            assert [row.observed for row in rows] == [c / trials for c in counts]

    def test_rejects_insufficient_trials(self):
        with pytest.raises(ConfigError):
            verify_lemma("harmonic", trials=999, seed=1)

    @pytest.mark.parametrize("kind", ["left-right", "orientation", "harmonic", "identities"])
    @pytest.mark.parametrize("trials, seed", [
        (1_000, 1.5), (1_000, "1"), (1_000, None), (1_000.0, 1), ("1000", 1),
    ])
    def test_rejects_non_integer_counts_before_any_work(
        self, monkeypatch, kind, trials, seed
    ):
        # Nothing is drawn, replayed or swept before the type check.
        def untouched(*args, **kwargs):
            raise AssertionError("work started before the type check")

        for name in ("random_trace", "run_trials", "_harmonic_rows", "_identity_rows",
                     "left_right_probability", "orientation_probability"):
            monkeypatch.setattr(minla.harness, name, untouched)
        with pytest.raises(TypeError):
            verify_lemma(kind, trials=trials, seed=seed)

    @pytest.mark.parametrize("kind", ["left-right", "orientation", "harmonic", "identities"])
    def test_bool_seed_counts_as_its_int(self, kind):
        # As in ExperimentConfig, a bool is an int: True runs and prints seed 1.
        report = verify_lemma(kind, trials=1_000, seed=True)
        assert report == verify_lemma(kind, trials=1_000, seed=1)
        assert report.to_text().startswith(f"verify {kind}: trials=1000 seed=1 ")

    def test_left_right_frequencies(self):
        trace = random_trace(Model.CLIQUES, 8, seed=11, events=4)
        report = verify_lemma("left-right", trials=20_000, seed=1, trace=trace)
        assert report.ok, report.to_text()
        assert all(0 <= float(row.expected) <= 1 for row in report.rows)

    @pytest.mark.parametrize("z,verdict", [(5, "FAIL"), (2, "pass")])
    def test_sigma_limit(self, monkeypatch, z, verdict):
        # The first row's expected frequency, moved z standard errors below
        # what the seeded run observes: the 4-sigma limit flags 5, not 2.
        trace = random_trace(Model.CLIQUES, 8, seed=11, events=4)
        trials = 4_000
        report = verify_lemma("left-right", trials=trials, seed=1, trace=trace)
        x = report.rows[0].observed
        target = Fraction(x - z * math.sqrt(x * (1 - x) / trials))
        real = minla.harness.left_right_probability
        calls = []

        def shifted(group_a, group_b, pi0):
            calls.append(None)
            return target if len(calls) == 1 else real(group_a, group_b, pi0)

        monkeypatch.setattr(minla.harness, "left_right_probability", shifted)
        moved = verify_lemma("left-right", trials=trials, seed=1, trace=trace)
        assert moved.rows[0].deviations == pytest.approx(z, abs=0.25)
        assert moved.rows[1:] == report.rows[1:]
        assert moved.to_text().endswith(f"result: {verdict}\n")

    def test_orientation_frequencies(self):
        trace = random_trace(Model.LINES, 8, seed=12, events=4)
        report = verify_lemma("orientation", trials=20_000, seed=2, trace=trace)
        assert report.ok, report.to_text()

    def test_orientation_never_observed_when_impossible(self):
        # a two-node path against its reversed start: forward probability 0
        from minla import Permutation, RevealEvent, RevealTrace

        trace = RevealTrace(
            Model.LINES, 2, Permutation([1, 0]), (RevealEvent(0, 1),)
        )
        report = verify_lemma("orientation", trials=5_000, seed=3, trace=trace)
        assert report.ok
        (row,) = report.rows
        assert float(row.expected) == 0.0
        assert row.observed == 0.0

    def test_model_mismatch_rejected(self):
        trace = random_trace(Model.LINES, 6, seed=13)
        with pytest.raises(ConfigError):
            verify_lemma("left-right", trials=2_000, seed=1, trace=trace)

    @pytest.mark.parametrize("kind, model, trace_seed", [
        ("left-right", Model.CLIQUES, 11),
        ("orientation", Model.LINES, 12),
    ])
    def test_no_trace_runs_the_default_trace_as_the_cli_prints_it(
        self, capsys, kind, model, trace_seed
    ):
        report = verify_lemma(kind, trials=1_000, seed=4)
        trace = random_trace(model, 8, seed=trace_seed, events=4)
        assert report == verify_lemma(kind, trials=1_000, seed=4, trace=trace)
        code = minla.cli.main(["verify", "--lemma", kind, "--trials", "1000", "--seed", "4"])
        assert (code, capsys.readouterr().out) == (0, report.to_text())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown verification kind 'sideways'"):
            verify_lemma("sideways", trials=1_000, seed=1)

    def test_left_right_needs_two_components(self):
        trace = random_trace(Model.CLIQUES, 5, seed=1)
        with pytest.raises(ConfigError, match="trace merges to one component; no pairs to track"):
            verify_lemma("left-right", trials=1_000, seed=1, trace=trace)

    def test_orientation_needs_a_path(self):
        trace = random_trace(Model.LINES, 5, seed=1, events=0)
        with pytest.raises(ConfigError, match="trace has no multi-node component to orient"):
            verify_lemma("orientation", trials=1_000, seed=1, trace=trace)

    @pytest.mark.parametrize("kind", ["harmonic", "identities"])
    def test_sweeps_reject_a_trace(self, kind):
        trace = random_trace(Model.LINES, 6, seed=13)
        with pytest.raises(ConfigError, match=f"verify {kind} takes no trace"):
            verify_lemma(kind, trials=1_000, seed=1, trace=trace)

    def test_harmonic_and_identities_pass(self):
        assert verify_lemma("harmonic", trials=1_000, seed=4).ok
        assert verify_lemma("identities", trials=1_000, seed=5).ok

    def test_report_text_is_deterministic(self):
        a = verify_lemma("identities", trials=1_000, seed=6).to_text()
        b = verify_lemma("identities", trials=1_000, seed=6).to_text()
        assert a == b


def _record_sweeps(monkeypatch):
    """Record, while ``verify`` sweeps, the generator each sweep was given
    and every instance checked: harmonic series in draw order with the size
    of each batch, identity instances as (a, b) pairs in the order of their
    batches with the (rows, N) shape of each batch."""
    seen = SimpleNamespace(
        rngs=[], harmonic=[], harmonic_batches=[], identities=[], identity_batches=[]
    )
    for name in ("_harmonic_rows", "_identity_rows"):
        sweep = getattr(minla.harness, name)

        def recording(trials, rng, sweep=sweep):
            seen.rngs.append(rng)
            return sweep(trials, rng)

        monkeypatch.setattr(minla.harness, name, recording)
    check_h = minla.harness.check_harmonic_bounds
    check_i = minla.harness.check_identity_lemmas

    def harmonic(batch):
        seen.harmonic.extend(list(series) for series in batch)
        seen.harmonic_batches.append(len(batch))
        return check_h(batch)

    def identities(a, b):
        seen.identities.extend((list(x), list(y)) for x, y in zip(a, b))
        assert np.shape(a) == np.shape(b)
        seen.identity_batches.append(np.shape(a))
        return check_i(a, b)

    monkeypatch.setattr(minla.harness, "check_harmonic_bounds", harmonic)
    monkeypatch.setattr(minla.harness, "check_identity_lemmas", identities)
    return seen


class TestAlgebraicSweeps:
    """The batched, inline-drawn sweeps against their literal loops.  Every
    row reads 0 failures, so equal reports alone would not show equal
    draws: each test also compares every drawn instance and the generator's
    final state."""

    @pytest.mark.parametrize(
        "seed,trials",
        [(1, 1_000), (2, 1_024), (3, 1_025), (4, 1_279), (5, 2_000), (6, 5_000), (7, 10_000)],
    )
    @pytest.mark.parametrize("kind", ["harmonic", "identities"])
    def test_verify_matches_the_literal_loop(self, kind, seed, trials, monkeypatch):
        seen = _record_sweeps(monkeypatch)
        report = verify_lemma(kind, trials=trials, seed=seed)
        reference = (
            reference_harmonic_rows if kind == "harmonic" else reference_identity_rows
        )
        rng = random.Random(seed)
        rows, drawn = reference(trials, rng)
        expected = VerifyReport(kind, trials, seed, tuple(rows), True)
        assert report.to_text() == expected.to_text()
        assert report == expected
        if kind == "harmonic":
            assert seen.harmonic == drawn
            # One batched check per chunk of 256 series.
            full, rest = divmod(trials, 256)
            assert seen.harmonic_batches == [256] * full + [rest] * (rest > 0)
        else:
            assert sorted(seen.identities) == sorted(drawn)
            # One check per full batch of one N, 2^15 choice-vector entries
            # (rows times 2^N), then one for what is left of each N.
            entries = {}
            for m, n in seen.identity_batches:
                entries.setdefault(n, []).append(m << n)
            for n, sizes in entries.items():
                assert sizes[:-1] == [1 << 15] * (len(sizes) - 1), n
                assert 0 < sizes[-1] <= 1 << 15, n
        (used,) = seen.rngs
        assert used.getstate() == rng.getstate()

    def test_criterion_10_shares_one_generator(self, monkeypatch):
        # Criterion 10 runs the harmonic sweep, then the identity sweep, on
        # one generator seeded 110: the second sweep's draws start where the
        # first one's stopped.  Both sweeps' instances and the final state
        # match the literal loops run in turn on one generator.
        seen = _record_sweeps(monkeypatch)
        for name in ("_harmonic_rows", "_identity_rows"):
            monkeypatch.setattr(bench, name, getattr(minla.harness, name))
        assert bench.criterion_algebraic_bounds().line().startswith("PASS criterion 10 ")
        rng = random.Random(110)
        _, series = reference_harmonic_rows(10_000, rng)
        _, instances = reference_identity_rows(10_000, rng)
        assert seen.harmonic == series
        assert sorted(seen.identities) == sorted(instances)
        used, again = seen.rngs
        assert used is again
        assert used.getstate() == rng.getstate()


class TestDuel:
    def test_sanity_floor(self):
        report = duel(5)
        assert report.ratio >= 1
        assert report.alternations >= 1

    def test_ratios_increase_with_n(self):
        ratios = [duel(n).ratio for n in (9, 13, 17)]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_closed_form(self):
        # For odd n = 2m + 1 the duel costs det m(2m - 1) against OPT = m, a
        # ratio of n - 2.
        for n in range(5, 102, 2):
            m = n // 2
            report = duel(n)
            assert (report.algo_cost, report.opt_cost) == (m * (2 * m - 1), m), n

    def test_opt_at_most_n(self):
        for n in (5, 9, 13):
            assert duel(n).opt_cost <= n
