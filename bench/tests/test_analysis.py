"""Span arithmetic: unions, overlap, self time, parents found after the fact."""

import pytest

from bench.analysis import SpanForest, max_overlap, traced_metrics, union_length


def test_union_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_max_overlap_treats_touching_intervals_as_sequential():
    assert max_overlap([(0, 1), (1, 2)]) == 1
    assert max_overlap([(0, 2), (1, 3), (1.5, 4)]) == 3


def _span(id, name, start, end, parent=None, **attrs):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, **attrs}


def test_self_time_is_duration_minus_the_union_of_children():
    call = _span("c0-0", "client.call", 0.0, 10.0, traces=["t1"])
    spans = [
        _span(1, "handler", 1.0, 9.0, trace="t1"),
        _span(2, "engine.run", 2.0, 8.0, parent=1, scope="service"),
        _span(3, "llm.above", 3.0, 5.0, parent=2, prompts=2),
        _span(4, "llm.above", 4.0, 7.0, parent=2, prompts=1),
        _span(5, "llm.below", 4.5, 6.5, parent=4, prompts=1),
        # A handler of a call outside the window is dropped with its subtree.
        _span(6, "handler", 0.0, 20.0, trace="other"),
        _span(7, "engine.run", 11.0, 12.0, parent=6, scope="service"),
    ]
    forest = SpanForest([call], spans)
    assert {span["id"] for span in forest.spans} == {"c0-0", 1, 2, 3, 4, 5}
    assert forest.self_time(call) == pytest.approx(2.0)
    assert forest.self_time(spans[1]) == pytest.approx(2.0)  # engine.run: 6 - union(3..7)
    metrics = traced_metrics(forest, wall=10.0, specs=1)
    assert metrics["transport.self_ms_per_call"] == pytest.approx(2000.0)
    assert metrics["service.pre_engine_ms_per_call"] == pytest.approx(1000.0)
    assert metrics["service.post_engine_ms_per_call"] == pytest.approx(1000.0)
    assert metrics["engine.llm_wait_share"] == pytest.approx(4.0 / 6.0)
    assert metrics["backend.busy_share"] == pytest.approx(0.2)
    # Server-side self times: handler 2 + run 2 + above (2 + 1) + below 2 = 9 of 10.
    assert metrics["trace.coverage"] == pytest.approx(0.8 + 0.1)


def test_cluster_parents_are_found_by_trace_then_scope_first_come_first_served():
    call = _span("c0-0", "client.call", 0.0, 10.0, traces=["t1"])
    spans = [
        _span(1, "handler", 0.5, 9.5, trace="t1"),
        # Two batches queue on one worker; the earlier one is served first.
        _span(2, "worker.submit", 1.0, 5.0, scope="worker-00", trace="t1"),
        _span(3, "worker.submit", 1.5, 9.0, scope="worker-00", trace="t1"),
        _span(4, "engine.run", 2.0, 4.0, scope="worker-00"),
        _span(5, "engine.run", 6.0, 8.0, scope="worker-00"),
        _span(6, "worker.submit", 1.0, 4.0, scope="worker-01", trace="t1"),
        _span(7, "engine.run", 2.0, 3.5, scope="worker-01"),
    ]
    forest = SpanForest([call], spans)
    parents = {span["id"]: span["parent"] for span in spans}
    assert parents[2] == parents[3] == parents[6] == 1
    assert parents[4] == 2 and parents[5] == 3 and parents[7] == 6
    metrics = traced_metrics(forest, wall=10.0, specs=4)
    assert metrics["service.overlap_max"] == 2.0
    # The handler minus the union of its worker spans (1.0 .. 9.0).
    assert metrics["router.self_ms_per_call"] == pytest.approx(1000.0)
