"""Unit tests of span nesting, self time and the per-layer floor."""

import pytest

from bench.trace import Span, SpanRecorder, layer_floors, nest, self_times


def _by_name(nested, own):
    return {span.name: value for span, value in zip(nested, own)}


def test_self_time_is_the_span_minus_its_direct_children():
    spans = [
        Span("step", 0.0, 10.0, 0),
        Span("assign", 1.0, 9.0, 0),
        Span("plan", 2.0, 7.0, 0),
        Span("solve", 3.0, 4.0, 0),
        Span("solve", 5.0, 6.5, 0),
    ]
    nested = nest(reversed(spans))  # order of recording does not matter
    parents = [nested[s.parent].name if s.parent >= 0 else None for s in nested]
    assert parents == [None, "step", "assign", "plan", "plan"]
    own = self_times(nested)
    assert own == pytest.approx([2.0, 3.0, 2.5, 1.0, 1.5])
    # Self times partition the root span.
    assert sum(own) == pytest.approx(10.0)


def test_a_server_span_that_outlives_its_client_call_is_clipped():
    # The handler returns 0.2 after the client got its reply, while the
    # client is already inside the next call.
    spans = [
        Span("client", 0.0, 5.0, 0),
        Span("http", 1.0, 5.2, 0),
        Span("submit", 2.0, 4.0, 0),
        Span("client", 5.1, 9.0, 1),
        Span("http", 6.0, 8.0, 1),
    ]
    nested = nest(spans)
    own = self_times(nested)
    first_client, first_http, submit, second_client, second_http = nested
    assert first_http.parent == 0 and submit.parent == 1
    # The second call is nobody's child, least of all the late handler's.
    assert second_client.parent == -1
    assert nested[second_http.parent] is second_client
    assert own[0] == pytest.approx(5.0 - 4.0)  # http clipped to [1, 5]
    assert own[1] == pytest.approx(4.2 - 2.0)
    assert own[3] == pytest.approx(3.9 - 2.0)


def test_layer_floor_is_per_op_and_layer_across_epochs():
    def epoch(step0, solve0, step1):
        return [
            Span("step", 0.0, step0, 0),
            Span("solve", 0.0, solve0, 0),
            Span("step", 100.0, 100.0 + step1, 1),
        ]

    layer_self, layer_total, counts = layer_floors(
        [epoch(10.0, 4.0, 3.0), epoch(8.0, 5.0, 6.0)]
    )
    assert counts == {"step": 2, "solve": 1}
    # op 0: step self min(6, 3) = 3, solve min(4, 5) = 4; op 1: min(3, 6).
    assert layer_self == pytest.approx({"step": 3.0 + 3.0, "solve": 4.0})
    assert layer_total == pytest.approx({"step": 8.0 + 3.0, "solve": 4.0})


def test_layer_floor_refuses_epochs_with_different_spans():
    one = [Span("step", 0.0, 1.0, 0)]
    two = one + [Span("solve", 0.2, 0.4, 0)]
    with pytest.raises(ValueError, match="not deterministic"):
        layer_floors([one, two])


def test_recorder_round_trips_spans_through_a_file(tmp_path):
    recorder = SpanRecorder()
    recorder.op = 3
    recorder.record("lp.solve", 1.0, 2.0, 512.0)
    recorder.record("service.http", 0.5, 2.5, None, op=7)
    path = tmp_path / "spans.json"
    recorder.dump(path)
    assert SpanRecorder.load(path) == [
        Span("lp.solve", 1.0, 2.0, 3, 512.0),
        Span("service.http", 0.5, 2.5, 7, None),
    ]
    assert recorder.take() and recorder.spans == []
