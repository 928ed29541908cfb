import random

import pytest

from minla import (
    ComponentPartition,
    Model,
    Permutation,
    RevealEvent,
    RevealTrace,
    TraceFormatError,
    TraceValidationError,
    emit_trace,
    parse_trace,
    random_trace,
    replay_components,
    validate_trace,
)


def make_trace(model, n, events, pi0=None):
    return RevealTrace(
        model=model,
        n=n,
        pi0=pi0 or Permutation.identity(n),
        events=tuple(RevealEvent(u, v) for u, v in events),
    )


class TestValidateTrace:
    def test_line_path_ok(self):
        validate_trace(make_trace(Model.LINES, 3, [(0, 1), (1, 2)]))

    def test_same_component_rejected(self):
        trace = make_trace(Model.LINES, 3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(TraceValidationError) as err:
            validate_trace(trace)
        assert err.value.event_index == 2

    def test_non_endpoint_rejected(self):
        trace = make_trace(Model.LINES, 4, [(0, 1), (1, 2), (1, 3)])
        with pytest.raises(TraceValidationError) as err:
            validate_trace(trace)
        assert err.value.event_index == 2
        assert "endpoint" in str(err.value)

    def test_self_event_rejected(self):
        with pytest.raises(TraceValidationError):
            validate_trace(make_trace(Model.CLIQUES, 3, [(1, 1)]))

    def test_n_mismatch_rejected(self):
        trace = RevealTrace(Model.LINES, 4, Permutation.identity(3), ())
        with pytest.raises(TraceValidationError):
            validate_trace(trace)

    def test_clique_interior_attach_ok(self):
        # cliques have no endpoint restriction
        validate_trace(make_trace(Model.CLIQUES, 4, [(0, 1), (1, 2), (1, 3)]))


class TestReplay:
    def test_step_zero_is_singletons(self):
        trace = make_trace(Model.LINES, 4, [(0, 1)])
        parts = replay_components(trace, 0)
        assert parts.num_components == 4

    def test_line_merge_path_order(self):
        trace = make_trace(Model.LINES, 3, [(0, 1), (1, 2)])
        parts = replay_components(trace, 2)
        assert parts.num_components == 1
        assert parts.path_of(parts.components()[0]) == (0, 1, 2)

    def test_clique_union(self):
        trace = make_trace(Model.CLIQUES, 3, [(0, 2), (1, 0)])
        parts = replay_components(trace, 2)
        root = parts.components()[0]
        assert sorted(parts.nodes_of(root)) == [0, 1, 2]

    def test_index_out_of_range(self):
        trace = make_trace(Model.LINES, 3, [(0, 1)])
        with pytest.raises(IndexError):
            replay_components(trace, 2)

    def test_components_decrease_by_one(self):
        trace = random_trace(Model.LINES, 9, seed=1)
        for i in range(trace.k):
            assert (
                replay_components(trace, i).num_components
                == replay_components(trace, i + 1).num_components + 1
            )

    def test_refinement(self):
        rng = random.Random(2)
        for model in (Model.CLIQUES, Model.LINES):
            for _ in range(20):
                trace = random_trace(model, rng.randint(2, 10), seed=rng.random())
                for i in range(trace.k):
                    early = replay_components(trace, i)
                    late = replay_components(trace, i + 1)
                    for root in early.components():
                        nodes = early.nodes_of(root)
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
                merged_path = after.path_of(after.find(ev.u))
                for root in (before.find(ev.u), before.find(ev.v)):
                    parent = before.path_of(root)
                    restricted = tuple(v for v in merged_path if v in set(parent))
                    assert restricted in (parent, parent[::-1])


class TestPartition:
    def test_from_components(self):
        parts = ComponentPartition.from_components(
            5, Model.LINES, [[3, 0, 4], [1], [2]]
        )
        assert parts.num_components == 3
        assert parts.path_of(parts.find(0)) == (3, 0, 4)

    def test_from_components_must_cover(self):
        with pytest.raises(ValueError):
            ComponentPartition.from_components(3, Model.CLIQUES, [[0, 1]])


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
