import copy
import dataclasses
import itertools
import pickle
import random
import re
from collections import namedtuple
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    TRACE_SETTINGS,
    make_trace,
    reference_components,
    reference_parse_trace,
    replay_components,
    stepped_state,
    valid_traces,
)
from minla import (
    ComponentPartition,
    Model,
    Permutation,
    RevealEvent,
    RevealTrace,
    TraceFormatError,
    TreeAdversaryConfig,
    TraceValidationError,
    det_step,
    emit_trace,
    parse_trace,
    rand_step,
    random_trace,
    tree_adversary,
    validate_trace,
)
from minla.algorithms import _coin_rows


class TestValidateTrace:
    def test_line_path_ok(self):
        validate_trace(make_trace(Model.LINES, 3, [(0, 1), (1, 2)]))

    @pytest.mark.parametrize("pi0", [[0, 1, 2], (0, 1, 2), range(3), "012"],
                             ids=["list", "tuple", "range", "str"])
    def test_pi0_must_be_a_permutation(self, pi0):
        # Unchecked, a list pi0 builds a trace that dp_opt, run, run_trials
        # and emit_trace fail on with AttributeError.
        with pytest.raises(TypeError, match=r"^pi0 must be a Permutation, got "):
            RevealTrace(Model.LINES, 3, pi0, (RevealEvent(0, 1),))

    @pytest.mark.parametrize("events", [
        [RevealEvent(0, 1)], ((0, 1),), (RevealEvent(0, 1), [1, 2]), (e for e in ()), None,
    ], ids=["list", "tuple-pairs", "one-pair", "generator", "none"])
    def test_events_must_be_a_tuple_of_events(self, events):
        # Unchecked, pairs fail in validation with AttributeError, and a
        # list of events builds a trace that cannot be hashed.
        with pytest.raises(TypeError, match=r"^events must be a tuple of RevealEvent, got "):
            RevealTrace(Model.LINES, 3, Permutation.identity(3), events)

    def test_same_component_rejected(self):
        with pytest.raises(TraceValidationError) as err:
            make_trace(Model.LINES, 3, [(0, 1), (1, 2), (0, 2)])
        assert err.value.event_index == 2

    def test_non_endpoint_rejected(self):
        with pytest.raises(TraceValidationError) as err:
            make_trace(Model.LINES, 4, [(0, 1), (1, 2), (1, 3)])
        assert err.value.event_index == 2
        assert "endpoint" in str(err.value)

    def test_self_event_rejected(self):
        with pytest.raises(TraceValidationError):
            make_trace(Model.CLIQUES, 3, [(1, 1)])

    def test_out_of_range_rejected(self):
        for u, v in [(-1, 0), (0, 3)]:
            with pytest.raises(TraceValidationError) as err:
                make_trace(Model.CLIQUES, 3, [(1, 2), (u, v)])
            assert str(err.value) == f"event 1: nodes ({u}, {v}) out of range"

    def test_n_mismatch_rejected(self):
        with pytest.raises(TraceValidationError):
            RevealTrace(Model.LINES, 4, Permutation.identity(3), ())

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_n_rejected(self, n):
        with pytest.raises(TraceValidationError, match=f"n must be positive, got {n}"):
            RevealTrace(Model.CLIQUES, n, Permutation([]), ())

    def test_clique_interior_attach_ok(self):
        # cliques have no endpoint restriction
        validate_trace(make_trace(Model.CLIQUES, 4, [(0, 1), (1, 2), (1, 3)]))


class TestReplay:
    def test_step_zero_is_singletons(self):
        trace = make_trace(Model.LINES, 4, [(0, 1)])
        parts = replay_components(trace, 0)
        assert len(parts.nodes) == 4

    def test_line_merge_path_order(self):
        trace = make_trace(Model.LINES, 3, [(0, 1), (1, 2)])
        parts = replay_components(trace, 2)
        assert list(parts.nodes.values()) == [[0, 1, 2]]

    def test_clique_union(self):
        trace = make_trace(Model.CLIQUES, 3, [(0, 2), (1, 0)])
        parts = replay_components(trace, 2)
        [nodes] = parts.nodes.values()
        assert sorted(nodes) == [0, 1, 2]

    def test_index_out_of_range(self):
        trace = make_trace(Model.LINES, 3, [(0, 1)])
        with pytest.raises(IndexError):
            replay_components(trace, 2)

    def test_components_decrease_by_one(self):
        trace = random_trace(Model.LINES, 9, seed=1)
        for i in range(trace.k):
            assert (
                len(replay_components(trace, i).nodes)
                == len(replay_components(trace, i + 1).nodes) + 1
            )

    def test_refinement(self):
        rng = random.Random(2)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(20):
                trace = random_trace(model, rng.randint(2, 10), seed=rng.random())
                for i in range(trace.k):
                    early = replay_components(trace, i)
                    late = replay_components(trace, i + 1)
                    for nodes in early.nodes.values():
                        targets = {late.find(v) for v in nodes}
                        assert len(targets) == 1

    def test_merged_path_restricted_to_parent(self):
        rng = random.Random(3)
        for _ in range(30):
            trace = random_trace(Model.LINES, rng.randint(3, 10), seed=rng.random())
            for i in range(trace.k):
                before = replay_components(trace, i)
                after = replay_components(trace, i + 1)
                ev = trace.events[i]
                merged_path = tuple(after.nodes[after.find(ev.u)])
                for root in (before.find(ev.u), before.find(ev.v)):
                    parent = tuple(before.nodes[root])
                    restricted = tuple(v for v in merged_path if v in set(parent))
                    assert restricted in (parent, parent[::-1])


def _replay_traces():
    """Cliques and lines at n = 2..64, full and partial random traces, and
    tree-adversary traces at q = 1..6."""
    rng = random.Random(31)
    traces = []
    for model in (Model.CLIQUES, Model.LINES):
        for n in (2, 3, 4, 5, 7, 10, 16, 23, 32, 47, 64):
            traces.append(random_trace(model, n, seed=rng.random()))
            events = rng.randint(0, n - 1)
            traces.append(random_trace(model, n, seed=rng.random(), events=events))
    for q in range(1, 7):
        traces.append(tree_adversary(TreeAdversaryConfig(q=q, seed=q)))
    return traces


def _line_shape_traces(n=64):
    """Line traces that grow one path node by node, plus one whose merges
    turn u's path, v's path and both."""
    end_grown = [(i, i + 1) for i in range(n - 1)]  # u last of the kept path
    front_grown = [(i + 1, i) for i in range(n - 1)]  # v first of the absorbed path
    # A fresh node joins the grown path's far end, so that path turns and
    # is absorbed on every merge.
    absorbing, path = [], [0]
    for u in range(1, n):
        absorbing.append((u, path[-1]))
        path = [u, *reversed(path)]
    turning = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (6, 7), (8, 9), (7, 9),
               (10, 11), (10, 8), (2, 6)]
    shapes = [(n, end_grown), (n, front_grown), (n, absorbing), (12, turning)]
    return [make_trace(Model.LINES, size, events) for size, events in shapes]


def _check_against_reference(trace):
    """Replay ``trace`` on a fresh partition: before every event and after
    the last, each root's node list (for lines its path) equals the tuple
    replay of ``reference_components``; each row equals the trace's replay
    row and the reference's nodes, roots, sizes and end pairs."""
    steps, ends = reference_components(trace)
    parts = ComponentPartition(trace.n, trace.model)

    def check(partition, expected):
        assert {r: tuple(nodes) for r, nodes in partition.nodes.items()} == expected

    for i, ev in enumerate(trace.events):
        check(parts, steps[i])
        ru, rv = (next(r for r, nodes in steps[i].items() if w in nodes) for w in (ev.u, ev.v))
        row = parts.merge(ev.u, ev.v)
        assert row == trace.replay.rows[i]
        assert row == (ev.u, ev.v, ru, rv, len(steps[i][ru]), len(steps[i][rv]), *ends[i])
    check(parts, steps[-1])
    check(trace.replay.final, steps[-1])


def _bit_width(bound):
    """The fewest bits whose words reach ``bound``: 2^k > bound."""
    return next(k for k in itertools.count() if bound < 1 << k)


class TestCachedReplay:
    def test_rows_match_replay_components(self):
        # Each row against the partitions before and after its event: the
        # event's nodes, the two roots and sizes and, for lines, both paths'
        # ends and the merged path's ends.
        for trace in _replay_traces():
            replay = trace.replay
            assert len(replay.rows) == trace.k
            for i, (ev, row) in enumerate(zip(trace.events, replay.rows)):
                before, after = replay_components(trace, i), replay_components(trace, i + 1)
                ru, rv = before.find(ev.u), before.find(ev.v)
                x, z = before.nodes[ru], before.nodes[rv]
                merged = after.nodes[after.find(ev.u)]
                expected = (ev.u, ev.v, ru, rv, len(x), len(z))
                if trace.model is Model.LINES:
                    expected += ((x[0], x[-1]), (z[0], z[-1]), (merged[0], merged[-1]))
                else:
                    expected += (None,) * 3
                assert row == expected
            final = replay_components(trace, trace.k)
            assert list(replay.final.nodes.items()) == list(final.nodes.items())
            for root, nodes in final.nodes.items():
                assert all(replay.final.find(v) == root for v in nodes)

    def test_coin_rows_match_their_definitions(self):
        # rand's coin row of each replay row, for both models: the row's
        # fields, then the moving coin's bound (the merged size) and bit
        # width after the sizes, and after the end pairs the orientation
        # coin's bound (the merged component's node pairs) and bit width and
        # the cost terms: pairs inside x, inside z and across.
        for trace in _replay_traces():
            coin_rows = _coin_rows(trace.replay.rows)
            assert len(coin_rows) == trace.k
            for i, (row, coins) in enumerate(zip(trace.replay.rows, coin_rows)):
                before, after = replay_components(trace, i), replay_components(trace, i + 1)
                x, z = before.nodes[row[2]], before.nodes[row[3]]
                merged = after.nodes[row[2]]
                pairs = len(list(itertools.combinations(merged, 2)))
                assert coins == (
                    *row[:6], len(merged), _bit_width(len(merged)), *row[6:],
                    pairs, _bit_width(pairs), len(list(itertools.combinations(x, 2))),
                    len(list(itertools.combinations(z, 2))), len(list(itertools.product(x, z))),
                )

    def test_steps_match_reference_components(self):
        for trace in _replay_traces() + _line_shape_traces():
            _check_against_reference(trace)
        # Which sides turn, per merge: the absorbing shape turns v's path
        # after its first merge, the last shape turns u's, v's and both.
        *_, absorbing, turning = _line_shape_traces()
        for trace, expected in [(absorbing, {(False, False), (False, True)}),
                                (turning, {(False, False), (True, False), (False, True),
                                           (True, True)})]:
            _, ends = reference_components(trace)
            turns = {(ev.u != x[1], ev.v != z[0]) for ev, (x, z, _) in zip(trace.events, ends)}
            assert turns == expected

    def test_clique_sizes_are_read_before_the_merge(self):
        # A clique's node list grows in place: read after its merge, event
        # 0's sizes would be (2, 1) and event 1's (3, 1).
        trace = make_trace(Model.CLIQUES, 4, [(0, 1), (1, 2), (3, 0)])
        assert [row[4:6] for row in trace.replay.rows] == [(1, 1), (2, 1), (1, 3)]

    def test_built_at_construction_and_outside_equality(self):
        trace = make_trace(Model.LINES, 3, [(0, 1), (2, 1)])
        twin = make_trace(Model.LINES, 3, [(0, 1), (2, 1)])
        replay = vars(trace)["replay"]
        assert all(trace.replay is replay for _ in range(3))
        assert trace == twin and hash(trace) == hash(twin)
        assert replay is not twin.replay
        assert "replay" not in repr(trace)
        assert replay.rows[1] == (2, 1, 2, 0, 1, 2, (2, 2), (0, 1), (2, 0))
        assert _coin_rows(replay.rows)[1] == (
            2, 1, 2, 0, 1, 2, 3, 2, (2, 2), (0, 1), (2, 0), 3, 2, 0, 1, 2
        )
        # A copy validates itself and gets its own replay of its own events.
        copy = dataclasses.replace(trace, events=trace.events[:1])
        assert copy.replay is not replay
        assert copy.replay.rows == replay.rows[:1]
        assert len(copy.replay.final.nodes) == 2
        assert dataclasses.replace(trace).replay is not replay


def _not_an_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return True
    return False


class TestTraceProperties:
    """Properties over the hypothesis strategy for valid traces (n <= 12)."""

    @TRACE_SETTINGS
    @given(valid_traces())
    def test_replay_matches_reference_components(self, trace):
        _check_against_reference(trace)

    @TRACE_SETTINGS
    @given(valid_traces())
    def test_roots_stay_in_ascending_order(self, trace):
        # ``nodes`` iterates in root order without a sort: a merge only pops
        # the absorbed root and never inserts one.
        parts = ComponentPartition(trace.n, trace.model)
        for ev in trace.events:
            parts.merge(ev.u, ev.v)
            assert list(parts.nodes) == sorted(parts.nodes)

    @TRACE_SETTINGS
    @given(valid_traces())
    def test_emit_then_parse_round_trips(self, trace):
        assert parse_trace(emit_trace(trace)) == trace

    @TRACE_SETTINGS
    @given(valid_traces().filter(lambda t: t.k), st.data())
    def test_a_corrupt_event_line_is_named(self, trace, data):
        # The one-pass read rejects the event block (its pattern or an id),
        # so the fallback reads it line by line; that must name the
        # corrupted line.
        lines = emit_trace(trace).splitlines()
        no = data.draw(st.integers(5, len(lines)), label="line")
        toks = lines[no - 1].split()
        junk = st.text(st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"),
                       min_size=1)
        kind = data.draw(st.sampled_from(["drop", "add", "garble", "prefix"]), label="kind")
        if kind == "drop":
            del toks[data.draw(st.integers(1, 2))]
        elif kind == "add":
            toks.insert(data.draw(st.integers(1, 3)), data.draw(junk))
        elif kind == "garble":
            toks[data.draw(st.integers(1, 2))] = data.draw(junk.filter(_not_an_int))
        else:
            cut = data.draw(st.integers(0, len("event:") - 1))
            toks[0] = toks[0][:cut] + toks[0][cut + 1:]
        lines[no - 1] = " ".join(toks)
        with pytest.raises(TraceFormatError) as err:
            parse_trace("\n".join(lines) + "\n")
        assert err.value.line == no

    def test_bool_ids_are_refused(self):
        # bool is an int subclass, but a permutation and an event refuse it,
        # as they refuse every id that is not a plain int.
        with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.2: \(False, True, 2\)$"):
            Permutation([False, True, 2])
        with pytest.raises(TypeError, match=r"^event ids must be ints, got True and 0$"):
            RevealEvent(True, 0)


class TestRevealEvent:
    """The slotted event keeps a frozen dataclass's semantics."""

    def test_equal_only_to_events(self):
        event = RevealEvent(1, 2)
        assert event == RevealEvent(1, 2)
        assert event != RevealEvent(2, 1)
        Pair = namedtuple("Pair", "u v")
        for other in (Pair(1, 2), (1, 2), [1, 2], None):
            assert event != other and other != event

    def test_hash_and_repr(self):
        event = RevealEvent(3, 0)
        assert hash(event) == hash((3, 0))
        assert len({event, RevealEvent(3, 0), RevealEvent(0, 3)}) == 2
        assert repr(event) == "RevealEvent(u=3, v=0)"

    def test_immutable(self):
        event = RevealEvent(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'u'"):
            event.u = 5
        # A slotted frozen dataclass refuses a name that is not a field with
        # TypeError, not FrozenInstanceError.
        with pytest.raises((AttributeError, TypeError)):
            event.w = 5
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'v'"):
            del event.v
        assert (event.u, event.v) == (1, 2)
        assert not hasattr(event, "__dict__")

    @pytest.mark.parametrize("bad", [1.0, "1", None, True, np.int64(1)],
                             ids=["float", "str", "None", "bool", "numpy-int"])
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_ids_must_be_plain_ints(self, bad, side):
        u, v = (bad, 0) if side == "u" else (0, bad)
        with pytest.raises(TypeError, match=re.escape(f"event ids must be ints, got {u!r} and {v!r}")):
            RevealEvent(u, v)

    def test_copies_are_equal_events(self):
        event = RevealEvent(4, 7)
        for twin in (copy.copy(event), copy.deepcopy(event), pickle.loads(pickle.dumps(event))):
            assert type(twin) is RevealEvent and twin == event


class TestPartition:
    @pytest.mark.parametrize("model, n", [
        ("lines", 3), ("cliques", 3), (None, 3),
        (Model.LINES, True), (Model.CLIQUES, 3.0), (Model.LINES, np.int64(3)),
    ], ids=["str-lines", "str-cliques", "None", "bool-n", "float-n", "numpy-n"])
    @pytest.mark.parametrize("build", [
        lambda model, n: ComponentPartition(n, model),
        lambda model, n: RevealTrace(model, n, Permutation.identity(int(n)), ()),
    ], ids=["partition", "trace"])
    def test_takes_a_model_and_a_plain_int_n(self, build, model, n):
        message = f"a partition takes a Model and an int n, got {model!r} and {n!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            build(model, n)

    def test_a_model_name_is_refused_before_any_merge(self):
        # Unchecked, the model's name builds clique events on a partition
        # that is neither model's, which dp_opt prices at 0 and emit_trace
        # cannot write.
        with pytest.raises(TypeError, match="got 'lines' and 8"):
            random_trace("lines", 8, seed=1)

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_misplaced_root_on_a_short_arrangement(self, model):
        # Component {0, 1, 2} (for lines the path 0-1-2) and singleton 3: an
        # arrangement cut inside the component names its root.
        parts = ComponentPartition(4, model)
        parts.merge(0, 1)
        parts.merge(1, 2)
        root = parts.find(0)
        for node_at in ([3, 0, 1], [0, 1], [3, 2]):
            assert parts.misplaced_root(node_at) == root
        assert parts.misplaced_root([3, 0, 1, 2]) is None
        assert parts.misplaced_root([3]) is None

    def test_lines_merge_extends_the_kept_list(self):
        # Growing the path at u's end keeps u's root and its list object,
        # and the absorbed root is gone; a path taken earlier stays as it was.
        parts = ComponentPartition(5, Model.LINES)
        parts.merge(0, 1)
        root = parts.find(0)
        kept, early = parts.nodes[root], tuple(parts.nodes[root])
        for u in (1, 2, 3):
            absorbed = parts.find(u + 1)
            parts.merge(u, u + 1)
            assert parts.nodes[root] is kept
            assert absorbed not in parts.nodes
        assert kept == [0, 1, 2, 3, 4]
        assert early == (0, 1)

    def test_nodes_is_read_only(self):
        parts = ComponentPartition(3, Model.LINES)
        parts.merge(0, 1)
        with pytest.raises(TypeError):
            parts.nodes[2] = [0]
        with pytest.raises(TypeError):
            del parts.nodes[2]
        assert dict(parts.nodes) == {0: [0, 1], 2: [2]}

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_a_trace_and_its_replay_pickle_and_copy(self, model):
        # The view is made per read, so no mapping proxy is stored to refuse
        # pickling.
        trace = random_trace(model, 8, seed=1, events=4)
        for twin in (copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))):
            assert twin == trace and twin.replay.rows == trace.replay.rows
            assert list(twin.replay.final.nodes.items()) == list(trace.replay.final.nodes.items())

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    def test_rejected_merge_leaves_the_partition_unchanged(self, model):
        # Components {0, 1, 2} and {3, 4, 5}: for lines the paths 0-1-2 and
        # 3-4-5, whose interior nodes are 1 and 4.
        parts = ComponentPartition(6, model)
        for u, v in [(0, 1), (1, 2), (3, 4), (4, 5)]:
            parts.merge(u, v)

        def snapshot():
            roots = [parts.find(v) for v in range(6)]
            return roots, [(r, tuple(nodes)) for r, nodes in parts.nodes.items()]

        before, fields = snapshot(), copy.deepcopy(vars(parts))
        rejected = [
            (0, 2, "already in the same component"),
            (5, 3, "already in the same component"),
            (-1, 0, r"nodes \(-1, 0\) out of range"),
            (0, 6, r"nodes \(0, 6\) out of range"),
            (2, 2, "self-event on node 2"),
        ]
        if model is Model.LINES:
            rejected += [(1, 3, "not an endpoint"), (0, 4, "not an endpoint")]
        for u, v, message in rejected:
            with pytest.raises(TraceValidationError, match=message):
                parts.merge(u, v)
            assert snapshot() == before
            assert vars(parts) == fields

    @pytest.mark.parametrize("model", [Model.CLIQUES, Model.LINES])
    @pytest.mark.parametrize("algo", ["det", "rand"])
    def test_steps_reject_bad_events_before_changing_the_state(self, model, algo):
        # A state on its own partition: one merge done, nodes 0..4.
        state = stepped_state(algo, make_trace(model, 5, [(1, 2)], Permutation([3, 1, 4, 0, 2])))
        rng = random.Random(5)
        step = det_step if algo == "det" else partial(rand_step, rng=rng)

        def snapshot():
            return (state.move_cost, state.rearrange_cost, state.current,
                    copy.deepcopy(vars(state.parts)), rng.getstate())

        before = snapshot()
        for u, v in [(-1, 0), (0, 5), (3, 3)]:
            with pytest.raises(TraceValidationError, match="out of range|self-event"):
                step(state, RevealEvent(u, v))
            assert snapshot() == before


CANONICAL = """minla-trace v1
model: lines
n: 5
pi0: 0 1 2 3 4
event: 0 1
event: 3 4
"""


class TestTraceIO:
    def test_round_trip_canonical(self):
        trace = parse_trace(CANONICAL)
        assert trace.k == 2
        assert emit_trace(trace) == CANONICAL

    def test_parse_accepts_comments(self):
        text = CANONICAL.replace("model: lines", "model: lines   # collection kind")
        assert parse_trace(text) == parse_trace(CANONICAL)

    def test_unknown_model_names_line(self):
        text = CANONICAL.replace("model: lines", "model: rings")
        with pytest.raises(TraceFormatError) as err:
            parse_trace(text)
        assert err.value.line == 2

    def test_empty_events_section(self):
        text = "minla-trace v1\nmodel: cliques\nn: 2\npi0: 1 0\n"
        trace = parse_trace(text)
        assert trace.k == 0
        assert emit_trace(trace) == text

    def test_bad_header(self):
        with pytest.raises(TraceFormatError) as err:
            parse_trace("minla-trace v2\nmodel: lines\nn: 1\npi0: 0\n")
        assert err.value.line == 1

    def test_bad_pi0_length(self):
        with pytest.raises(TraceFormatError) as err:
            parse_trace("minla-trace v1\nmodel: lines\nn: 3\npi0: 0 1\n")
        assert err.value.line == 4

    def test_malformed_event(self):
        with pytest.raises(TraceFormatError) as err:
            parse_trace(CANONICAL + "event: 7\n")
        assert err.value.line == 7

    def test_parse_validates(self):
        with pytest.raises(TraceValidationError):
            parse_trace(CANONICAL + "event: 0 1\n")

    def test_random_traces_round_trip(self):
        rng = random.Random(4)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(25):
                trace = random_trace(model, rng.randint(1, 12), seed=rng.random())
                assert parse_trace(emit_trace(trace)) == trace


def _outcome(parse, text):
    """The parsed trace with its canonical text, or the error's type,
    message, line and event index."""
    try:
        trace = parse(text)
    except (TraceFormatError, TraceValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "event_index", None)
    assert all(type(ev.u) is int and type(ev.v) is int for ev in trace.events)
    return trace, emit_trace(trace)


_HEAD = "minla-trace v1\nmodel: lines\nn: 5\npi0: 0 1 2 3 4\n"

# Inputs for every branch of the line-by-line parser, one error kind or odd
# acceptance each, plus variants of the layout around them.
PARSE_CORPUS = [
    "",
    "\n\n",
    "# only a comment\n",
    CANONICAL,
    CANONICAL.replace("\n", "\r\n"),
    CANONICAL.replace("\n", "\r"),
    "minla-trace v1\x0bmodel: lines\x0cn: 2\x85pi0: 1 0\u2029event: 1 0\u2028",
    "# a trace\n\n  minla-trace v1  # header\n\nmodel: lines\r\n  n:5\t\npi0:0 1 2 3 4#p\n"
    "\n# events\nevent: 0 1   # first\n   \n\tevent:3 4\n\n# end\n",
    "minla-trace v1\nmodel: cliques\nn: 4\npi0: 3 1 0 2\nevent: 0 1\nevent: 1 2\nevent: 3 0\n",
    _HEAD + "event:0 1\nevent:3\t4\n",
    _HEAD + "event: 0 1 event: 2 3\n",
    _HEAD + "event: 0\n",
    _HEAD + "event:\n",
    _HEAD + "event: 0 1 2\n",
    _HEAD + "event: 0 1 2\nevent: 3\n",
    _HEAD + "event: 0\nevent: 1 2 3\n",
    _HEAD + "event: 0 1\nevent: 2 x\nevent 3 4\n",
    _HEAD + "event: 0 1\nevent 3 4\nevent: 2 x\n",
    _HEAD + "event: 0 1\nEvent: 3 4\n",
    _HEAD + "event: 0 1\n3 4\n",
    _HEAD + "event: 0 1\nevents: 3 4\n",
    _HEAD + "event:event: 0\n",
    _HEAD + "event: 0 1event:\n",
    _HEAD + "event: +0 1_0\n",
    _HEAD + "event: +0 -1\n",
    _HEAD + "event: 00 01\nevent: \uff13 \u0664\n",
    _HEAD + "event: 0x1 2\n",
    _HEAD + "event: 1.0 2\n",
    _HEAD + "event: 1e0 2\n",
    _HEAD + "event: 1__0 2\n",
    _HEAD + "event: _1 2\n",
    _HEAD + "event: 1 2_\n",
    _HEAD + "event: 0\xa01\nevent:\u20033\u30004\n",
    _HEAD + "event: 0\x1f1\n",
    _HEAD + "event: 0\x1c1\n",
    _HEAD + "event: 0\u20281\n",
    _HEAD + "event: 0 1 # 2\nevent: 3 #4\n",
    _HEAD + "event: 0 1\nevent: 1 2\nevent: 0 2\n",
    _HEAD + "event: 0 1\nevent: 1 2\nevent: 1 3\n",
    _HEAD + "event: 0 0\n",
    _HEAD + "event: 0 5\n",
    _HEAD + "event: 0 99999999999999999999\n",
    "minla-trace v2\nmodel: lines\nn: 1\npi0: 0\n",
    "\ufeffminla-trace v1\nmodel: lines\nn: 1\npi0: 0\n",
    "minla-trace v1 extra\nmodel: lines\nn: 1\npi0: 0\n",
    "minla-trace v1\nmodels: lines\nn: 1\npi0: 0\n",
    "minla-trace v1\nmodel:lines\nn: 1\npi0: 0\n",
    "minla-trace v1\nmodel: rings\nn: 1\npi0: 0\n",
    "minla-trace v1\nmodel: Lines\nn: 1\npi0: 0\n",
    "minla-trace v1\nmodel: lines\nn: +1\npi0: 0\n",
    "minla-trace v1\nmodel: lines\nn: 1_0\npi0: 0 1 2 3 4 5 6 7 8 9\n",
    "minla-trace v1\nmodel: lines\nn: one\npi0: 0\n",
    "minla-trace v1\nmodel: lines\nn:\npi0: 0\n",
    "minla-trace v1\nmodel: lines\nn: 0\npi0:\n",
    "minla-trace v1\nmodel: lines\nn: -1\npi0:\n",
    "minla-trace v1\nmodel: lines\nnodes: 1\npi0: 0\n",
    "minla-trace v1\nmodel: lines\nn: 3\npi0: 0 x 2\n",
    "minla-trace v1\nmodel: lines\nn: 3\npi0: 0 0 1\n",
    "minla-trace v1\nmodel: lines\nn: 3\npi0: 0 1 3\n",
    "minla-trace v1\nmodel: lines\nn: 3\npi0: 0 1.0 2\n",
    "minla-trace v1\nmodel: lines\nn: 3\npi0: -0 +1 0_2\n",
    "minla-trace v1\nmodel: lines\nn: 3\npi0: 0 1\n",
    "minla-trace v1\nmodel: lines\nn: 3\nperm: 0 1 2\n",
    "minla-trace v1\nmodel: lines\nn: 3\n",
    "minla-trace v1\nmodel: lines\nn: 3\npi0: 0 1 2\nevent: 0 1\n\n\n",
]

# What an edit of an event block puts in: nothing, every str.splitlines
# separator, whitespace that str.split does and does not split on, comment
# and sign marks, underscores, non-ASCII digits and the format's own text.
_EDITS = (
    "", "\r\n", *"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
    *"\xa0\u3000\u200b\ufeff", *map(chr, range(0x2000, 0x200B)),
    *"#+-_\uff13\u0664\u0966", *" \t0123456789:evnt",
)


class TestParseMatchesReference:
    """parse_trace against the line-by-line parser in conftest: the same
    trace, or the same error type, message, line and event index."""

    @pytest.mark.parametrize("text", PARSE_CORPUS)
    def test_corpus(self, text):
        assert _outcome(parse_trace, text) == _outcome(reference_parse_trace, text)

    def test_canonical_traces_cut_after_every_line_and_character(self):
        rng = random.Random(6)
        texts = [CANONICAL, PARSE_CORPUS[6]]
        texts += [emit_trace(random_trace(model, 6, seed=rng.random(), events=4))
                  for model in (Model.CLIQUES, Model.LINES)]
        for text in texts:
            lines = text.splitlines(keepends=True)
            cuts = {"".join(lines[:i]) for i in range(len(lines) + 1)}
            cuts |= {text[:i] for i in range(len(text) + 1)}
            for cut in sorted(cuts):
                assert _outcome(parse_trace, cut) == _outcome(reference_parse_trace, cut), cut

    def test_random_edits(self):
        # Insert, delete or replace one to three characters of a canonical
        # trace, drawing from the characters the format gives meaning to.
        rng = random.Random(12)
        alphabet = "0123456789 \t\n\r#:-+_xev\xa0\x1c\x1f\uff13"
        base = emit_trace(random_trace(Model.LINES, 8, seed=3))
        for _ in range(3000):
            text = base
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(text) + 1)
                cut = rng.choice((0, 1))
                text = text[:i] + rng.choice(("", rng.choice(alphabet))) + text[i + cut :]
            assert _outcome(parse_trace, text) == _outcome(reference_parse_trace, text), text

    @settings(TRACE_SETTINGS, max_examples=300)
    @given(valid_traces().filter(lambda t: t.k), st.data())
    def test_corrupt_event_blocks(self, trace, data):
        # The block pattern and the line checks must read the same
        # whitespace: were a block to fail the pattern while every line
        # passes the line checks, parse_trace would raise neither error.
        text = emit_trace(trace)
        at = text.index("event:")
        head, block = text[:at], text[at:]
        for _ in range(data.draw(st.integers(1, 6), label="edits")):
            i = data.draw(st.integers(0, len(block)), label="at")
            cut = data.draw(st.integers(0, 2), label="cut")
            block = block[:i] + data.draw(st.sampled_from(_EDITS), label="put") + block[i + cut :]
        text = head + block
        assert _outcome(parse_trace, text) == _outcome(reference_parse_trace, text)
