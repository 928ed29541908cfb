"""Mutation gate: single-line defects that named tests must catch.

Each mutant names a file, an exact text that occurs there once, the text
that replaces it, and the tests that must fail once it is in place.
``tests/test_mutants.py`` checks in the normal suite that every old text
still occurs exactly once and every named test still exists, so the list
cannot rot.  Running this file applies each mutant in turn to a temporary
copy of the repository and runs only its named tests there:

    python tests/mutants.py            # every mutant
    python tests/mutants.py --list     # names only
    python tests/mutants.py NAME ...   # the named mutants

Everything runs on min(usable cores, mutants chosen) worker threads.  The
named tests first run once on an unchanged copy, split across the workers,
and must pass.  Then each mutant runs in its own copy and its own pytest
process, and the verdicts print in list order.  A mutant is killed when its
tests fail (pytest exit code 1).  The exit code is 0 when every mutant was
killed, 1 otherwise.  Stdlib only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_ENGINE = "src/minla/algorithms.py"
_REPLAY = "src/minla/trace.py"
_ORDERING = "src/minla/ordering.py"
_RAND_TESTS = (
    "tests/test_algorithms.py::TestWindowedKernel",
    "tests/test_harness.py::TestVerifyLemma::test_frequencies_match_reference_permutations",
)
# Criteria 5-6's tracked frequencies, read exactly off the walker's law.
_EXACT_FREQUENCIES = (
    "tests/test_acceptance.py::test_frequency_traces_hold_their_closed_forms_exactly",
)
# is_minla's and arrangement_cost's size check.
_SIZE_CHECK = (
    "if len(p) != parts.n:\n        raise InstanceMismatchError("
    'f"permutation of {len(p)} nodes, partition of {parts.n}")\n'
)
_SWEEP_TESTS = (
    "tests/test_harness.py::TestAlgebraicSweeps",
)

MUTANTS: tuple[Mutant, ...] = (
    # The rand engine's draw loops: each coin draws getrandbits(k) until the
    # word is below its bound, as random.Random.randrange does.
    Mutant(
        "move-draw-accepts-bound", _ENGINE,
        "while r >= denom:", "while r > denom:",
        ("tests/test_algorithms.py::TestRandCliqueStep",) + _RAND_TESTS + _EXACT_FREQUENCIES,
    ),
    Mutant(
        "orient-draw-accepts-bound", _ENGINE,
        "while r >= total_pairs:", "while r > total_pairs:",
        ("tests/test_algorithms.py::TestRandLineStep",) + _RAND_TESTS + _EXACT_FREQUENCIES,
    ),
    # rand's coin rows hold each coin's bound, its bit width and the
    # orientation cost terms, read off the replay rows beside the draws.
    Mutant(
        "move-draw-one-bit-short", _ENGINE,
        "(xl + zl).bit_length()", "(xl + zl - 1).bit_length()",
        _RAND_TESTS,
    ),
    Mutant(
        "orient-draw-one-bit-short", _ENGINE,
        "pairs.bit_length()", "(pairs - 1).bit_length()",
        _RAND_TESTS,
    ),
    Mutant(
        "cross-term-halved", _ENGINE,
        "xl * zl)", "xl * zl // 2)",
        (
            "tests/test_trace.py::TestCachedReplay::test_coin_rows_match_their_definitions",
            "tests/test_algorithms.py::TestRandLineStep",
        ) + _RAND_TESTS,
    ),
    Mutant(
        "move-coin-inverted", _ENGINE,
        "x_moved = r < zl", "x_moved = r < xl",
        (
            "tests/test_algorithms.py::TestRandCliqueStep",
            "tests/test_acceptance.py::test_criterion_11_coin_vectors",
        ) + _RAND_TESTS + _EXACT_FREQUENCIES,
    ),
    # The merged block stands at the staying block's slot.
    Mutant(
        "mover-keeps-its-slot", _ENGINE,
        "slot[ru] = b", "slot[ru] = a",
        ("tests/test_algorithms.py::TestRandCliqueStep",) + _RAND_TESTS,
    ),
    # A move pays for the blocks strictly between the two slots, never for
    # the left one's own.  Every acceptance criterion passes with it in place.
    Mutant(
        "leftward-move-overcharge", _ENGINE,
        "sum(sizes[b + 1 : a])", "sum(sizes[b : a])",
        (
            "tests/test_algorithms.py::TestRandCliqueStep::test_cost_equals_distance",
            "tests/test_algorithms.py::TestRandLineStep::"
            "test_candidate_costs_sum_to_span_pairs",
            "tests/test_algorithms.py::TestWindowedKernel::test_matches_literal_reference",
            "tests/test_algorithms.py::TestWindowedKernel::test_coin_laws_match_reference",
            "tests/test_algorithms.py::TestWindowedKernel::"
            "test_trials_over_one_replay_feasible_after_every_event",
            "tests/test_algorithms.py::TestWindowedKernel::"
            "test_large_final_states_match_reference",
            "tests/test_algorithms.py::TestMirroring::test_mirrored_laws_reverse",
        ),
    ),
    # The replay, the per-trial engine's checks, the final layout and the
    # inversion count.
    Mutant(
        "clique-sizes-after-merge", _REPLAY,
        "return (u, v, ru, rv, xl, zl, x_ends, z_ends, ends)",
        "return (u, v, ru, rv, len(x), len(z), x_ends, z_ends, ends)",
        (
            "tests/test_trace.py::TestCachedReplay::test_clique_sizes_are_read_before_the_merge",
        ),
    ),
    # A rejected merge raises before it writes anything (for lines it turns
    # a path only after both end checks), and an accepted one relabels
    # every node it absorbs and turns u's path to end at u.
    Mutant(
        "rejected-merge-changes-the-partition", _REPLAY,
        "        x_ends = z_ends = ends = None\n",
        "        labels[v] = ru\n        x_ends = z_ends = ends = None\n",
        (
            "tests/test_trace.py::TestPartition::"
            "test_rejected_merge_leaves_the_partition_unchanged",
        ),
    ),
    Mutant(
        "reversal-before-end-checks", _REPLAY,
        "            if v not in z_ends:\n",
        "            if u != x[-1]:\n                x.reverse()\n            if v not in z_ends:\n",
        (
            "tests/test_trace.py::TestPartition::"
            "test_rejected_merge_leaves_the_partition_unchanged[lines]",
        ),
    ),
    Mutant(
        "kept-path-not-reversed", _REPLAY,
        "x.reverse()", "pass",
        (
            "tests/test_trace.py::TestCachedReplay::test_steps_match_reference_components",
            "tests/test_trace.py::TestReplay::test_merged_path_restricted_to_parent",
        ),
    ),
    # One relabel loop serves both models.
    Mutant(
        "merge-skips-relabel", _REPLAY,
        "        for w in z:\n            labels[w] = ru\n",
        "        for w in ():\n            labels[w] = ru\n",
        (
            "tests/test_trace.py::TestPartition::"
            "test_misplaced_root_on_a_short_arrangement[cliques]",
            "tests/test_trace.py::TestPartition::"
            "test_misplaced_root_on_a_short_arrangement[lines]",
            "tests/test_trace.py::TestCachedReplay::test_steps_match_reference_components",
        ),
    ),
    # A merge only pops the absorbed root, so ``nodes`` keeps ascending root
    # order without a sort; re-inserting the kept root moves it last.
    Mutant(
        "merge-reinserts-kept-root", _REPLAY,
        "x.extend(nodes.pop(rv))", "x.extend(nodes.pop(rv)); nodes[ru] = nodes.pop(ru)",
        (
            "tests/test_trace.py::TestTraceProperties::test_roots_stay_in_ascending_order",
            "tests/test_algorithms.py::TestDetRun::test_carried_blocks_match_a_fresh_replay",
            "tests/test_harness.py::TestVerifyLemma::test_sigma_limit[2-pass]",
        ),
    ),
    # A trace's replayed partition refuses merges.
    Mutant(
        "read-only-replay-merges", _REPLAY,
        "if self._read_only:", "if False:",
        ("tests/test_algorithms.py::TestOneReplay::test_replay_refuses_merges",),
    ),
    # run returns finished states over the replay: det's over its final
    # partition, rand's as run_trials' trial for the same seed.
    Mutant(
        "det-run-keeps-its-own-partition", _ENGINE,
        "state.parts = trace.replay.final", "pass",
        (
            "tests/test_algorithms.py::TestOneReplay::"
            "test_run_returns_a_finished_state_over_the_replay",
        ),
    ),
    Mutant(
        "rand-run-reads-another-seed", _ENGINE,
        "return next(run_trials(trace, (seed,)))", "return next(run_trials(trace, (seed + 1,)))",
        ("tests/test_algorithms.py::TestOneReplay::test_run_matches_run_trials_and_steps_on",),
    ),
    # merge is the only event check: validation, det_step and rand_step
    # reach node ids only through it.
    Mutant(
        "event-range-check-dropped", _REPLAY,
        "if not (0 <= u < self.n and 0 <= v < self.n):", "if False:",
        (
            "tests/test_trace.py::TestPartition",
            "tests/test_trace.py::TestValidateTrace::test_out_of_range_rejected",
        ),
    ),
    Mutant(
        "merged-ends-swapped", _REPLAY,
        "ends = x[0], z[-1]", "ends = z[-1], x[0]",
        (
            "tests/test_trace.py::TestCachedReplay::test_rows_match_replay_components",
            "tests/test_trace.py::TestCachedReplay::test_steps_match_reference_components",
        ) + _RAND_TESTS,
    ),
    Mutant(
        "z-slot-check-dropped", _ENGINE,
        "if sizes[b] != zl or lines and z_left not in z_ends:",
        "if lines and z_left not in z_ends:",
        ("tests/test_algorithms.py::TestWindowedKernel::test_state_fault_caught_at_the_next_event",),
    ),
    # A permutation and a partition over different node counts are rejected.
    Mutant(
        "closest-feasible-any-size", _ENGINE,
        "if len(pi0) != parts.n:", "if False:",
        ("tests/test_algorithms.py::TestDetStep::"
         "test_closest_feasible_rejects_a_pi0_of_another_size",),
    ),
    Mutant(
        "is-minla-any-size", "src/minla/oracle.py",
        _SIZE_CHECK + "    return parts.misplaced_root", "return parts.misplaced_root",
        ("tests/test_oracle.py::TestSizeMismatch",),
    ),
    Mutant(
        "arrangement-cost-any-size", "src/minla/oracle.py",
        _SIZE_CHECK + "    pos = p.pos_of", "pos = p.pos_of",
        ("tests/test_oracle.py::TestSizeMismatch",),
    ),
    # The checks: each det step's arrangement is walked, a rand final state
    # read per component (every path's left end is a path end, every clique
    # block holds its component's nodes).
    Mutant(
        "final-check-skips-root-0", _ENGINE,
        "if (root := state.parts.misplaced_root(target.node_at)) is not None:",
        "if (root := state.parts.misplaced_root(target.node_at)):",
        ("tests/test_cli.py::TestSimulate::test_misplaced_det_target_exits_5",),
    ),
    Mutant(
        "final-check-accepts-inner-left-end", _ENGINE,
        "if left_end[root] != path[0] and left_end[root] != path[-1]:",
        "if left_end[root] not in path:",
        (
            "tests/test_algorithms.py::TestWindowedKernel::"
            "test_final_state_fault_caught_exactly_when_inconsistent",
            "tests/test_cli.py::TestSimulate::test_final_state_fault_exits_5[lines]",
        ),
    ),
    Mutant(
        "final-check-skips-clique-node-set", _ENGINE,
        " or not set(blocks[root]).issuperset(nodes):", ":",
        (
            "tests/test_algorithms.py::TestWindowedKernel::"
            "test_final_state_fault_caught_exactly_when_inconsistent",
            "tests/test_cli.py::TestSimulate::test_final_state_fault_exits_5[cliques]",
        ),
    ),
    Mutant(
        "clique-check-stops-after-first-root", _ENGINE,
        "for root, nodes in parts.nodes.items():",
        "for root, nodes in list(parts.nodes.items())[:1]:",
        (
            "tests/test_algorithms.py::TestWindowedKernel::"
            "test_final_state_fault_caught_exactly_when_inconsistent",
        ),
    ),
    Mutant(
        "layout-in-root-order", _ENGINE,
        "roots = sorted(nodes, key=state.slot.__getitem__)",
        "roots = sorted(nodes)",
        ("tests/test_algorithms.py::TestWindowedKernel",),
    ),
    # Trace intake: the event lines are checked as one block.
    Mutant(
        "event-shape-check-dropped", _REPLAY,
        "if not _EVENT_LINES.fullmatch(block):", "if False:",
        ("tests/test_trace.py::TestParseMatchesReference::test_corpus",),
    ),
    # The middle-line adversary runs out of nodes on one side: one range
    # check guards both ends.
    Mutant(
        "end-exhaustion-unchecked", "src/minla/adversaries.py",
        "if not 0 <= nxt < self.n:", "if False:",
        (
            "tests/test_adversaries.py::TestMiddleLineAdversary::"
            "test_side_exhausted_before_the_duel_ends[arrangements0-left]",
            "tests/test_adversaries.py::TestMiddleLineAdversary::"
            "test_side_exhausted_before_the_duel_ends[arrangements1-right]",
            "tests/test_adversaries.py::TestAgainstReference::test_every_side_sequence",
        ),
    ),
    Mutant(
        "inversions-bisect-left", "src/minla/perm.py",
        "j = bisect_right(seen, x)", "j = __import__('bisect').bisect_left(seen, x)",
        ("tests/test_perm.py::test_count_inversions_matches_quadratic",),
    ),
    # Entries are plain ints: bools and numpy ints are refused.
    Mutant(
        "permutation-takes-int-subclasses", "src/minla/perm.py",
        "type(v) is not int", "not isinstance(v, int)",
        ("tests/test_perm.py::TestPermutation::test_refusal_names_the_input[bool]",),
    ),
    # So are event ids.
    Mutant(
        "event-ids-take-int-subclasses", _REPLAY,
        "if type(u) is not int or type(v) is not int:",
        "if not isinstance(u, int) or not isinstance(v, int):",
        (
            "tests/test_trace.py::TestRevealEvent::test_ids_must_be_plain_ints",
            "tests/test_trace.py::TestTraceProperties::test_bool_ids_are_refused",
        ),
    ),
    # A trace takes a Permutation and a tuple of events.
    Mutant(
        "trace-takes-any-pi0", _REPLAY,
        "if not isinstance(t.pi0, Permutation):", "if False:",
        ("tests/test_trace.py::TestValidateTrace::test_pi0_must_be_a_permutation",),
    ),
    Mutant(
        "trace-events-any-container", _REPLAY,
        "if not isinstance(t.events, tuple) or not all(", "if not all(",
        (
            "tests/test_trace.py::TestValidateTrace::test_events_must_be_a_tuple_of_events[list]",
            "tests/test_trace.py::TestValidateTrace::"
            "test_events_must_be_a_tuple_of_events[generator]",
        ),
    ),
    Mutant(
        "trace-events-any-items", _REPLAY,
        "isinstance(e, RevealEvent) for e in t.events", "True for e in t.events",
        (
            "tests/test_trace.py::TestValidateTrace::"
            "test_events_must_be_a_tuple_of_events[tuple-pairs]",
            "tests/test_trace.py::TestValidateTrace::"
            "test_events_must_be_a_tuple_of_events[one-pair]",
        ),
    ),
    # The identity's size, H_s's s and the lemma oracles' node ids are
    # plain ints: bools and numpy ints are refused.
    Mutant(
        "identity-takes-any-n", "src/minla/perm.py",
        "if type(n) is not int:", "if False:",
        ("tests/test_perm.py::TestPermutation::test_identity_takes_a_plain_int",),
    ),
    Mutant(
        "harmonic-takes-any-s", "src/minla/oracle.py",
        "if type(s) is not int:", "if False:",
        ("tests/test_oracle.py::TestHarmonic::test_rejects_non_ints",),
    ),
    Mutant(
        "left-right-takes-any-ids", "src/minla/oracle.py",
        "if any(type(v) is not int for v in group_a + group_b):", "if False:",
        ("tests/test_oracle.py::TestLeftRightProbability::test_non_int_ids_rejected",),
    ),
    Mutant(
        "orientation-takes-any-ids", "src/minla/oracle.py",
        "if any(type(v) is not int for v in path_order):", "if False:",
        ("tests/test_oracle.py::TestOrientationProbability::test_non_int_ids_rejected",),
    ),
    Mutant(
        "seed-takes-int-subclasses", "src/minla/harness.py",
        "if type(value) is not int:", "if not isinstance(value, int):",
        (
            "tests/test_harness.py::TestSeedDerivation::test_non_int_arguments_refused[bool-master]",
            "tests/test_harness.py::TestSeedDerivation::test_non_int_arguments_refused[bool-trial]",
        ),
    ),
    Mutant(
        "harmonic-takes-bools-and-numpy-ints", "src/minla/oracle.py",
        "if {*map(type, flat)} != {int}:",
        "if not all(isinstance(s, (int, np.integer)) for s in flat):",
        ("tests/test_oracle.py::TestHarmonicBounds::test_bools_and_numpy_ints_refused",),
    ),
    # A partition, and so a trace, takes a Model and a plain int n.
    Mutant(
        "partition-takes-model-names-and-int-subclasses", _REPLAY,
        "if not isinstance(model, Model) or type(n) is not int:",
        "if not isinstance(model, str) or not isinstance(n, int):",
        (
            "tests/test_trace.py::TestPartition::test_takes_a_model_and_a_plain_int_n",
            "tests/test_trace.py::TestPartition::test_a_model_name_is_refused_before_any_merge",
        ),
    ),
    # Each generator checks the node bound before it builds anything.
    Mutant(
        "random-trace-past-node-bound", "src/minla/adversaries.py",
        "if n > NODE_BOUND:", "if n > 2 * NODE_BOUND:",
        ("tests/test_adversaries.py::TestNodeBound::test_refused_before_allocation",),
    ),
    Mutant(
        "tree-depth-past-node-bound", "src/minla/adversaries.py",
        "cfg.q >= NODE_BOUND.bit_length()", "cfg.q > NODE_BOUND.bit_length()",
        ("tests/test_adversaries.py::TestNodeBound::test_refused_before_allocation",),
    ),
    Mutant(
        "middle-line-past-node-bound", "src/minla/adversaries.py",
        "if self.n > NODE_BOUND:", "if self.n > 2 * NODE_BOUND:",
        ("tests/test_adversaries.py::TestNodeBound::test_refused_before_allocation",),
    ),
    # Each generator's size is a plain int, checked before its range checks.
    Mutant(
        "middle-line-n-any-type", "src/minla/adversaries.py",
        "if type(self.n) is not int:", "if False:",
        ("tests/test_adversaries.py::TestSizesArePlainInts::test_middle_line_n",),
    ),
    Mutant(
        "tree-depth-any-type", "src/minla/adversaries.py",
        "if type(cfg.q) is not int:", "if False:",
        ("tests/test_adversaries.py::TestSizesArePlainInts::test_tree_depth",),
    ),
    Mutant(
        "random-trace-n-any-type", "src/minla/adversaries.py",
        "if type(n) is not int:", "if False:",
        ("tests/test_adversaries.py::TestSizesArePlainInts::test_random_trace_n",),
    ),
    Mutant(
        "random-trace-events-any-type", "src/minla/adversaries.py",
        "if type(k) is not int:", "if False:",
        ("tests/test_adversaries.py::TestSizesArePlainInts::test_random_trace_events",),
    ),
    # main falls back to the full parse when the command's parser leaves
    # arguments over, so they are refused as before.
    Mutant(
        "cli-ignores-leftover-arguments", "src/minla/cli.py",
        "if command is None or rest:", "if command is None:",
        (
            "tests/test_cli.py::TestDispatch::test_matches_the_full_parse",
            "tests/test_cli.py::TestDispatch::test_a_well_formed_command_is_parsed_once",
        ),
    ),
    # Checks that once passed with their bound disabled.
    # The frequency counts, one per tracked pair or path, in tracked order.
    Mutant(
        "left-right-count-one-slot-off", "src/minla/harness.py",
        "if slot[ra] < slot[rb]:\n                hits[i] += 1",
        "if slot[ra] < slot[rb]:\n                hits[i - 1] += 1",
        ("tests/test_harness.py::TestVerifyLemma::test_frequencies_match_reference_permutations",),
    ),
    Mutant(
        "orientation-count-one-slot-off", "src/minla/harness.py",
        "if left_end[r] == head:\n                hits[i] += 1",
        "if left_end[r] == head:\n                hits[i - 1] += 1",
        ("tests/test_harness.py::TestVerifyLemma::test_frequencies_match_reference_permutations",),
    ),
    Mutant(
        "sigma-limit-40", "src/minla/harness.py",
        "_SIGMA_LIMIT = 4.0", "_SIGMA_LIMIT = 40.0",
        ("tests/test_harness.py::TestVerifyLemma::test_sigma_limit",),
    ),
    # One binomial standard error serves both frequency lemmas.
    Mutant(
        "binomial-sigma-without-complement", "src/minla/harness.py",
        "math.sqrt(float(p) * (1.0 - float(p)) / trials)", "math.sqrt(float(p) / trials)",
        ("tests/test_harness.py::TestVerifyLemma::test_sigma_limit",),
    ),
    # verify takes int counts, as ExperimentConfig does.
    Mutant(
        "verify-takes-any-seed", "src/minla/harness.py",
        "trials, seed = operator.index(trials), operator.index(seed)", "pass",
        ("tests/test_harness.py::TestVerifyLemma::"
         "test_rejects_non_integer_counts_before_any_work",),
    ),
    # The coin walker weighs each accepted word tuple by one over their
    # number, not by the words of the drawn widths.
    Mutant(
        "walker-weighs-by-word-width", _ENGINE,
        "Fraction(1, len(outcomes))", "Fraction(1, 1 << sum(zeros.widths))",
        ("tests/test_acceptance.py::test_criterion_11_coin_vectors",),
    ),
    # Trial indices count from 0.
    Mutant(
        "trial-index-sign-unchecked", "src/minla/harness.py",
        "if trial_index < 0:", "if trial_index < -1:",
        ("tests/test_harness.py::TestSeedDerivation::test_negative_trial_index_rejected",),
    ),
    Mutant(
        "tree-sandwich-no-lower-bound", "src/minla/bench.py",
        "lo = math.log2(n) / 16", "lo = 0.0",
        ("tests/test_acceptance.py::test_tree_sandwich_lower_bound_bites",),
    ),
    # The acceptance criteria's own comparisons, and the bound criteria 3
    # and 4 compare against.
    Mutant(
        "det-bound-n-not-n-minus-1", "src/minla/bench.py",
        "limit = 2 * (n - 1) * opt.cost", "limit = 2 * n * opt.cost",
        ("tests/test_acceptance.py::test_det_upper_bound_fails_one_past_the_bound",),
    ),
    Mutant(
        "rand-bound-rejects-mean-at-bound", "src/minla/bench.py",
        "if mean > bound:", "if mean >= bound:",
        ("tests/test_acceptance.py::test_rand_cliques_mean_is_run_experiments_bit_for_bit",),
    ),
    Mutant(
        "rand-bound-reads-the-move-mean", "src/minla/bench.py",
        "mean, bound = exp.stats.mean,", "mean, bound = exp.stats.mean_move,",
        ("tests/test_acceptance.py::test_rand_lines_bound_fails_on_the_first_trace_over_its_bound",),
    ),
    # The thresholds and counts each criterion states in its line.
    Mutant(
        "det-lower-bound-cost-growth-2", "src/minla/bench.py",
        "min_cost, min_ratio = 2.5, 1.5", "min_cost, min_ratio = 2.0, 1.5",
        ("tests/test_acceptance.py::test_criterion_02_det_lower_bound",),
    ),
    Mutant(
        "algebraic-sweeps-1000", "src/minla/bench.py",
        "trials = 10_000\n    rows", "trials = 1_000\n    rows",
        ("tests/test_acceptance.py::test_criterion_10_algebraic_bounds",),
    ),
    Mutant(
        "feasibility-check-inverted", "src/minla/bench.py",
        "if is_minla(p, parts) != (cost == best):",
        "if is_minla(p, parts) == (cost == best):",
        ("tests/test_acceptance.py::test_feasibility_characterization_fails_on_a_mismatch",),
    ),
    Mutant(
        "bound-factors-swapped", "src/minla/oracle.py",
        "factor = 4 if t.model is Model.CLIQUES else 8",
        "factor = 8 if t.model is Model.CLIQUES else 4",
        ("tests/test_oracle.py::TestBoundForTrace",),
    ),
    Mutant(
        "bound-opt-plus-one", "src/minla/oracle.py",
        "harmonic_number(t.n) * opt.cost)", "harmonic_number(t.n) * (opt.cost + 1))",
        ("tests/test_oracle.py::TestBoundForTrace::test_factor_times_h_n_times_opt",),
    ),
    # The bound reads only the trace's own optimum.
    Mutant(
        "bound-takes-any-optimum", "src/minla/oracle.py",
        "if len(opt.witness) != t.n:", "if False:",
        ("tests/test_oracle.py::TestBoundForTrace::test_refuses_another_traces_optimum",),
    ),
    # The closed forms the frequency checks compare against, and the trace
    # a check runs on when none is given.
    # Node ids outside 0..n-1 would read another node's position.
    Mutant(
        "left-right-ids-unchecked", "src/minla/oracle.py",
        "if min(a | b) < 0 or max(a | b) >= len(pi0):", "if False:",
        ("tests/test_oracle.py::TestLeftRightProbability::test_out_of_range_ids_rejected",),
    ),
    Mutant(
        "orientation-ids-unchecked", "src/minla/oracle.py",
        "if min(path_order) < 0 or max(path_order) >= len(pi0):", "if False:",
        ("tests/test_oracle.py::TestOrientationProbability::test_out_of_range_ids_rejected",),
    ),
    # A repeated node would count its pairs with itself as ordered.
    Mutant(
        "orientation-repeats-one-short", "src/minla/oracle.py",
        "if len(set(path_order)) < s:", "if len(set(path_order)) < s - 1:",
        ("tests/test_oracle.py::TestOrientationProbability::test_repeated_nodes_rejected",),
    ),
    Mutant(
        "left-right-cross-weight-swapped", "src/minla/oracle.py",
        "cross_weight(sorted(pos[x] for x in a), sorted(pos[y] for y in b))",
        "cross_weight(sorted(pos[y] for y in b), sorted(pos[x] for x in a))",
        ("tests/test_oracle.py::TestLeftRightProbability::test_matches_literal_pair_count",),
    ),
    Mutant(
        "default-trace-seeds-swapped", "src/minla/harness.py",
        "(Model.CLIQUES, 11, _left_right_rows),\n    \"orientation\": (Model.LINES, 12,",
        "(Model.CLIQUES, 12, _left_right_rows),\n    \"orientation\": (Model.LINES, 11,",
        ("tests/test_harness.py::TestVerifyLemma::"
         "test_no_trace_runs_the_default_trace_as_the_cli_prints_it",),
    ),
    # The batched algebraic sweeps.
    # One range check on a: finite, nonnegative, and each row summing to at
    # most 1e150, so that no product overflows.
    Mutant(
        "identity-a-finiteness-unchecked", "src/minla/oracle.py",
        "if not ((av >= 0.0) & (av <= 1e150 / av.shape[1])).all():", "if False:",
        ("tests/test_oracle.py::TestIdentityChecks::test_rejects_non_finite_a",),
    ),
    Mutant(
        "identity-a-sign-unchecked", "src/minla/oracle.py",
        "(av >= 0.0)", "(av >= -1.0)",
        ("tests/test_oracle.py::TestIdentityChecks::test_rejects_negative_a",),
    ),
    Mutant(
        "identity-a-row-sum-bound-per-entry", "src/minla/oracle.py",
        "av <= 1e150 / av.shape[1]", "av <= 1e150",
        ("tests/test_oracle.py::TestIdentityChecks::test_rejects_row_sums_past_1e150",),
    ),
    Mutant(
        "identity-tolerance-strict", "src/minla/oracle.py",
        "np.abs(lhs_eq - rhs_eq) <= _IDENTITY_TOL",
        "np.abs(lhs_eq - rhs_eq) < _IDENTITY_TOL",
        ("tests/test_oracle.py::TestIdentityChecks::test_exact_instances_hold_at_zero_tolerance",),
    ),
    # The tolerance scales with the right side, as rounding grows with it.
    Mutant(
        "identity-tolerance-unscaled", "src/minla/oracle.py",
        "_IDENTITY_TOL * np.maximum(1.0, rhs_eq)", "_IDENTITY_TOL",
        ("tests/test_oracle.py::TestIdentityChecks::test_tolerance_scales_with_the_sides",),
    ),
    Mutant(
        "sweep-draw-accepts-bound", "src/minla/harness.py",
        "while r >= bound:", "while r > bound:",
        _SWEEP_TESTS,
    ),
    # The identity sweep checks each N once a batch is full, then what is
    # left of each N.
    Mutant(
        "identity-final-flush-skipped", "src/minla/harness.py",
        "for n, batch in words.items():", "for n, batch in {}.items():",
        ("tests/test_harness.py::TestAlgebraicSweeps::test_verify_matches_the_literal_loop",),
    ),
    Mutant(
        "identity-batch-budget-doubled", "src/minla/harness.py",
        "(_IDENTITY_BATCH >> n) * 16 * n", "(_IDENTITY_BATCH >> n) * 32 * n",
        ("tests/test_harness.py::TestAlgebraicSweeps::test_verify_matches_the_literal_loop",),
    ),
    Mutant(
        "harmonic-chunks-drop-the-last", "src/minla/harness.py",
        "for start in range(0, trials, _SWEEP_CHUNK):\n        batch",
        "for start in range(0, trials - _SWEEP_CHUNK + 1, _SWEEP_CHUNK):\n        batch",
        _SWEEP_TESTS,
    ),
    # The harmonic check: floats decide only outside the certified margin,
    # the exact comparison keeps ties, and H_S is exact up to a total of
    # exactly 10^4.
    Mutant(
        "harmonic-float-decides-ties", "src/minla/oracle.py",
        "exact = np.abs(sums - h) <= (lengths + 2) * 2.0**-52 * h",
        "exact = np.zeros_like(ok)",
        (
            "tests/test_oracle.py::TestHarmonicBoundsMatchReference::"
            "test_all_ones_ties_reach_the_exact_comparison",
        ),
    ),
    Mutant(
        "at-most-strict", "src/minla/oracle.py",
        "return total * bound.denominator <= bound.numerator * common",
        "return total * bound.denominator < bound.numerator * common",
        (
            "tests/test_oracle.py::TestHarmonicBoundsMatchReference::"
            "test_all_ones_ties_reach_the_exact_comparison",
            "tests/test_oracle.py::TestHarmonicBounds::test_tight_boundary",
        ),
    ),
    Mutant(
        "harmonic-cap-off-by-one", "src/minla/oracle.py",
        "if s > _EXACT_HARMONIC_MAX:", "if s >= _EXACT_HARMONIC_MAX:",
        (
            "tests/test_oracle.py::TestHarmonic::test_raises_past_the_cap",
            "tests/test_oracle.py::TestHarmonicBoundsMatchReference::"
            "test_totals_at_the_cap_are_decided_exactly",
        ),
    ),
    # The exact optima: exhaustive_opt's feasibility masks (`== 1` -> `<= 1`
    # would be equivalent, since u != v) and _clique_opt's child order.
    Mutant(
        "exhaustive-path-stretch-2", "src/minla/oracle.py",
        "np.abs(pos[:, u] - pos[:, v]) == 1", "np.abs(pos[:, u] - pos[:, v]) <= 2",
        (
            "tests/test_oracle.py::TestDpOpt::test_two_line_segments",
            "tests/test_oracle.py::TestExhaustiveOpt::test_matches_dp_smoke",
        ),
    ),
    Mutant(
        "exhaustive-clique-span-loose", "src/minla/oracle.py",
        "cols.max(axis=1) - cols.min(axis=1) < cols.shape[1]",
        "cols.max(axis=1) - cols.min(axis=1) <= cols.shape[1]",
        (
            "tests/test_oracle.py::TestExhaustiveOpt::test_matches_dp_smoke",
            "tests/test_cli.py::TestOpt::test_dp_and_exhaustive_agree",
        ),
    ),
    # The exhaustive search reads each root's clique members off the replay
    # rows: a merge adds the absorbed root's members to the kept root's.
    Mutant(
        "exhaustive-members-drop-the-kept-root", "src/minla/oracle.py",
        "members[root] += members.pop(absorbed)", "members[root] = members.pop(absorbed)",
        (
            "tests/test_oracle.py::TestExhaustiveOpt::test_matches_dp_smoke",
            "tests/test_cli.py::TestOpt::test_dp_and_exhaustive_agree",
        ),
    ),
    Mutant(
        "clique-opt-child-tie", "src/minla/oracle.py",
        "seq_a[0] < seq_b[0]", "seq_a[0] > seq_b[0]",
        ("tests/test_oracle.py::TestDpOpt::test_clique_triangle_after_edge",),
    ),
    # det's own rules: the closest arrangement's path orientation tie and
    # the singletons' order by reference position.
    Mutant(
        "oriented-path-tie-flipped", _ENGINE,
        "tuple(nodes) < tuple(nodes[::-1])", "tuple(nodes) > tuple(nodes[::-1])",
        ("tests/test_algorithms.py::TestDetStep::test_closest_member_and_lex_order_vs_enumeration",),
    ),
    Mutant(
        "singletons-by-node-id", _ORDERING,
        "(pos_of[seq[0]], seq[0]) for seq in seqs", "(seq[0], seq[0]) for seq in seqs",
        (
            "tests/test_ordering.py::TestSolveBlockOrder::test_matches_brute_force",
            "tests/test_algorithms.py::TestDetStep::test_closest_member_and_lex_order_vs_enumeration",
            "tests/test_oracle.py::TestDpOpt::test_witness_realizes_cost_in_one_move",
        ),
    ),
    # A problem's blocks are labelled at their nodes' reference positions,
    # read off pi0's lookup, not at their node ids.
    Mutant(
        "labels-by-node-id", _ORDERING,
        "labels[pos_of[v]] = j", "labels[v] = j",
        (
            "tests/test_ordering.py::TestSolveBlockOrder::test_matches_brute_force",
            "tests/test_ordering.py::TestSingletonAwareOrder::test_matches_reference_on_drawn_layouts",
            "tests/test_algorithms.py::TestDetStep::test_closest_feasible_matches_enumeration",
            "tests/test_oracle.py::TestDpOpt::test_witness_realizes_cost_in_one_move",
        ),
    ),
    # det's carried blocks: a merge drops the absorbed root's block and
    # rebuilds the merged root's.
    Mutant(
        "det-block-keeps-absorbed-root", _ENGINE,
        "blocks.pop(rv)", "blocks[rv]",
        (
            "tests/test_algorithms.py::TestDetRun::test_carried_blocks_match_a_fresh_replay",
            "tests/test_algorithms.py::TestDetRun::test_matches_a_det_step_loop",
        ),
    ),
    Mutant(
        "det-block-not-rebuilt", _ENGINE,
        "blocks[ru] = _component_block(merged, pos0, lines)[0]",
        "blocks[ru] = blocks[ru]",
        (
            "tests/test_algorithms.py::TestDetRun::test_carried_blocks_match_a_fresh_replay",
            "tests/test_algorithms.py::TestDetRun::test_run_matches_the_loop_on_every_trace",
        ),
    ),
    # One state stepped by both algorithms: det pays from the arrangement
    # the state holds, and rand refuses a state det has moved.
    Mutant(
        "det-pays-from-pi0", _ENGINE,
        "before = state.current if state.total_cost else state.pi0",
        "before = state.pi0 if state.fixed is None else state.fixed",
        ("tests/test_algorithms.py::TestMixedSteps::"
         "test_det_after_rand_pays_from_the_current_arrangement",),
    ),
    Mutant(
        "rand-steps-a-det-state", _ENGINE,
        "if state.fixed is not None:\n        raise ValueError",
        "if False:\n        raise ValueError",
        ("tests/test_algorithms.py::TestMixedSteps::test_rand_refuses_a_state_det_has_moved",),
    ),
    # The block-order solver: the rebuild's tie-break (blocks numbered by
    # leading node) and the lead singleton's check, and the table's running
    # minimum over the trailing singletons.
    Mutant(
        "block-tie-prefers-larger-node", _ORDERING,
        "key=lambda seq: seq[0])", "key=lambda seq: -seq[0])",
        (
            "tests/test_ordering.py::TestSolveBlockOrder::test_lexicographic_tie_break",
            "tests/test_ordering.py::TestSolveBlockOrder::test_matches_brute_force",
        ),
    ),
    Mutant(
        "lead-singleton-unchecked", _ORDERING,
        "if g_at(t, k - 1) == target:", "if True:",
        (
            "tests/test_ordering.py::TestSolveBlockOrder::test_singleton_and_block_tie",
            "tests/test_ordering.py::TestSingletonAwareOrder::test_matches_reference_on_layouts",
        ),
    ),
    Mutant(
        "running-minimum-skipped", _ORDERING,
        "np.minimum.accumulate(best, axis=1, out=best)", "pass",
        (
            "tests/test_ordering.py::TestSingletonAwareOrder::test_tables_agree",
            "tests/test_ordering.py::TestSingletonAwareOrder::test_matches_reference_on_layouts",
        ),
    ),
    # The weights from the label arrays: a block before itself costs
    # nothing, and block j's step before the last k singletons sums k of
    # them, not k + 1.
    Mutant(
        "weight-diagonal-kept", _ORDERING,
        "part_cols.reshape(len(part), -1)[:, :: top + 1] = 0",
        "part_cols.reshape(len(part), -1)[:, :: top + 1]",
        (
            "tests/test_ordering.py::TestSingletonAwareOrder::test_tables_agree",
            "tests/test_ordering.py::TestSolveBlockOrder::test_matches_brute_force",
        ),
    ),
    Mutant(
        "singleton-column-off-by-one", _ORDERING,
        "out=step_cost[at : at + chunk, :, 1:]", "out=step_cost[at : at + chunk, :, :-1]",
        (
            "tests/test_ordering.py::TestSingletonAwareOrder::test_tables_agree",
            "tests/test_ordering.py::TestSingletonAwareOrder::test_matches_reference_on_layouts",
        ),
    ),
    # The batched table: every problem's row sums double from its own rows
    # (a batch of one starts both its rows and its blocks at 0).
    Mutant(
        "batch-row-sums-at-the-block-offset", _ORDERING,
        "np.add(sums[at:lo], cols[first + i]",
        "np.add(sums[first : first + (1 << i)], cols[first + i]",
        (
            "tests/test_ordering.py::TestBatchedSolve::test_random_batches_match_reference",
            "tests/test_ordering.py::TestBatchedSolve::test_batched_tables_agree",
        ),
    ),
    # Output digits and trial seeds.
    Mutant(
        "format-ratio-half-up", "src/minla/harness.py",
        "(2 * rest == opt_cost and units & 1)", "(2 * rest == opt_cost)",
        ("tests/test_harness.py::TestRatioFormatting::test_round_half_even_on_exact_rational",),
    ),
    Mutant(
        "splitmix-constant", "src/minla/harness.py",
        "(state >> 30)) * 0xBF58476D1CE4E5B9)", "(state >> 30)) * 0xBF58476D1CE4E5B8)",
        ("tests/test_harness.py::TestSeedDerivation::test_reference_vector",),
    ),
    # The inline seed stream that every run of trials reads.
    Mutant(
        "seed-stream-shift-29", "src/minla/harness.py",
        "(state ^ (state >> 30))", "(state ^ (state >> 29))",
        ("tests/test_harness.py::TestSeedDerivation::test_seed_stream_matches_the_reference",),
    ),
    # Each distinct total's ratio is formatted once per experiment.
    Mutant(
        "ratio-cache-keyed-by-move", "src/minla/harness.py",
        "    ratios = {total: format_ratio(total, exp.opt.cost) for total in totals}\n"
        "    for trial, (seed, move, rearrange) in enumerate(exp.rows):\n"
        "        total = move + rearrange\n"
        "        yield trial, seed, move, rearrange, total, ratios[total]",
        "    ratios = {}\n"
        "    for trial, (seed, move, rearrange) in enumerate(exp.rows):\n"
        "        total = move + rearrange\n"
        "        ratio = ratios.setdefault(move, format_ratio(total, exp.opt.cost))\n"
        "        yield trial, seed, move, rearrange, total, ratio",
        ("tests/test_harness.py::TestEmitterBytes",),
    ),
    # The emitters' per-call templates: the CSV trace id as csv.writer
    # quotes it, and each JSON cost in its own slot.
    Mutant(
        "csv-trace-id-unquoted", "src/minla/harness.py",
        'fixed = out.getvalue()[:-2].replace("%", "%%")',
        'fixed = f"{cfg.trace_id},{cfg.algo},{cfg.trace.n}".replace("%", "%%")',
        ("tests/test_harness.py::TestEmitterBytes",),
    ),
    Mutant(
        "json-costs-swapped", "src/minla/harness.py",
        "record % (move, rearr, total,", "record % (rearr, move, total,",
        ("tests/test_harness.py::TestEmitterBytes",),
    ),
)


def _copy_repo(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".perfbench_out")
    for name in ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json"):
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        elif source.exists():
            shutil.copy2(source, dest / name)


def _pytest(copy: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    done = subprocess.run(
        command + list(tests), cwd=copy, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode


def _apply(copy: Path, mutant: Mutant) -> None:
    path = copy / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text not found exactly once")
    path.write_text(text.replace(mutant.old, mutant.new))


def _run(tmp: Path, mutant: Mutant) -> int:
    """Apply ``mutant`` to a fresh copy in ``tmp`` and run its tests there."""
    copy = tmp / mutant.name
    _copy_repo(copy)
    _apply(copy, mutant)
    code = _pytest(copy, mutant.tests)
    shutil.rmtree(copy)
    return code


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    workers = min(len(os.sched_getaffinity(0)), len(chosen))
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(workers) as pool:
        clean = Path(tmp) / "clean"
        _copy_repo(clean)
        tests = sorted({t for m in chosen for t in m.tests})
        parts = [tests[i::workers] for i in range(min(workers, len(tests)))]
        if any(list(pool.map(lambda part: _pytest(clean, part), parts))):
            print("the named tests fail without a mutant", file=sys.stderr)
            return 1
        survivors = 0
        codes = pool.map(lambda mutant: _run(Path(tmp), mutant), chosen)
        for mutant, code in zip(chosen, codes):
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (exit {code})")
            survivors += code != 1
            print(f"{verdict:>16}  {mutant.name}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
