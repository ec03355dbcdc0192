"""From spans to per-layer numbers.

The server's spans (:mod:`bench.tracing`) and the load side's ``client.call``
spans are joined into one forest, one tree per client call:

``client.call`` > ``handler`` > [``worker.submit`` >] ``engine.run`` >
``llm.above`` > {``pcache.*``, ``llm.below``}

A span's *self time* is its duration minus the part its children cover (the
union of their intervals, so children that run side by side are not counted
twice).  Only trees rooted in a call of the traced window are kept.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable, Sequence

Span = dict[str, Any]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def max_overlap(intervals: Iterable[tuple[float, float]]) -> int:
    """The most intervals open at one instant."""
    edges = []
    for start, end in intervals:
        edges.append((start, 1))
        edges.append((end, -1))
    open_now = peak = 0
    for _, step in sorted(edges):  # an end sorts before a start at the same instant
        open_now += step
        peak = max(peak, open_now)
    return peak


def duration(span: Span) -> float:
    return span["end"] - span["start"]


def _contains(outer: Span, inner: Span) -> bool:
    return outer["start"] <= inner["start"] and inner["end"] <= outer["end"]


class SpanForest:
    """Client calls and server spans joined into per-call trees."""

    def __init__(self, calls: Sequence[Span], spans: Sequence[Span]):
        self.calls = list(calls)
        by_id: dict[Any, Span] = {span["id"]: span for span in spans}
        call_of_trace = {
            trace: call for call in self.calls for trace in call.get("traces", ())
        }
        handlers = [span for span in spans if span["name"] == "handler"]
        submits = [span for span in spans if span["name"] == "worker.submit"]

        for span in handlers:
            call = call_of_trace.get(span.get("trace"))
            span["parent"] = call["id"] if call is not None else None
        for span in submits:
            span["parent"] = _pick_parent(span, handlers, "trace")
        for span in spans:
            if span["name"] == "engine.run" and span["parent"] is None:
                # The run happened on a cluster worker's own thread.
                span["parent"] = _pick_parent(span, submits, "scope")

        by_id.update({call["id"]: call for call in self.calls})
        self.children: dict[Any, list[Span]] = defaultdict(list)
        for span in spans:
            if span["parent"] in by_id:
                self.children[span["parent"]].append(span)
        #: Every span reachable from a window call, the calls included.
        self.spans: list[Span] = []
        frontier = list(self.calls)
        while frontier:
            span = frontier.pop()
            self.spans.append(span)
            frontier.extend(self.children[span["id"]])

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span["name"] == name]

    def kids(self, span: Span, name: str | None = None) -> list[Span]:
        kids = self.children[span["id"]]
        return kids if name is None else [kid for kid in kids if kid["name"] == name]

    def covered(self, span: Span, name: str | None = None) -> float:
        """Length of ``span`` covered by its children (optionally of one name)."""
        return union_length(
            (max(kid["start"], span["start"]), min(kid["end"], span["end"]))
            for kid in self.kids(span, name)
        )

    def self_time(self, span: Span) -> float:
        return max(duration(span) - self.covered(span), 0.0)

    def descendants(self, span: Span, name: str) -> list[Span]:
        found, frontier = [], list(self.children[span["id"]])
        while frontier:
            kid = frontier.pop()
            if kid["name"] == name:
                found.append(kid)
            frontier.extend(self.children[kid["id"]])
        return found


def _pick_parent(span: Span, candidates: Sequence[Span], key: str) -> Any:
    """The candidate sharing ``span[key]`` whose interval contains the span.

    Several can (batches queue behind each other on one worker): work is
    served first come first served, so the earliest-started one is taken.
    """
    containing = [c for c in candidates if _contains(c, span)]
    matching = [c for c in containing if c.get(key) is not None and c.get(key) == span.get(key)]
    chosen = matching or containing
    return min(chosen, key=lambda c: c["start"])["id"] if chosen else None


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def traced_metrics(forest: SpanForest, *, wall: float, specs: int) -> dict[str, float]:
    """The per-layer metrics that come from spans (times in the named units)."""
    calls = forest.calls
    n_calls = max(len(calls), 1)
    specs = max(specs, 1)
    handlers = forest.named("handler")
    runs = forest.named("engine.run")
    above = forest.named("llm.above")
    below = forest.named("llm.below")

    pre = post = 0.0
    for handler in handlers:
        inner = forest.descendants(handler, "engine.run")
        if inner:
            pre += min(run["start"] for run in inner) - handler["start"]
            post += handler["end"] - max(run["end"] for run in inner)
    run_total = sum(duration(run) for run in runs)
    llm_wait = sum(forest.covered(run, "llm.above") for run in runs)
    busy = union_length((span["start"], span["end"]) for span in below)
    below_total = sum(duration(span) for span in below)
    prompts_above = sum(span["prompts"] for span in above)
    cache_self = sum(duration(span) - forest.covered(span, "llm.below") for span in above)
    routed = [handler for handler in handlers if forest.kids(handler, "worker.submit")]

    def mean_us(name: str) -> float:
        return _mean([duration(span) for span in forest.named(name)]) * 1e6

    return {
        "transport.self_ms_per_call": _mean([forest.self_time(call) for call in calls]) * 1e3,
        "transport.groups_per_call": len(handlers) / n_calls,
        "service.pre_engine_ms_per_call": pre / n_calls * 1e3,
        "service.post_engine_ms_per_call": post / n_calls * 1e3,
        "service.overlap_max": float(max_overlap((r["start"], r["end"]) for r in runs)),
        "engine.run_ms_per_call": run_total / n_calls * 1e3,
        "engine.self_ms_per_spec": (run_total - llm_wait) / specs * 1e3,
        "engine.llm_wait_share": llm_wait / run_total if run_total else 0.0,
        "llm_cache.self_us_per_prompt": cache_self / prompts_above * 1e6 if prompts_above else 0.0,
        "pcache.get_us": mean_us("pcache.get"),
        "pcache.put_us": mean_us("pcache.put"),
        "pcache.note_route_us": mean_us("pcache.route"),
        "pcache.puts_per_spec": len(forest.named("pcache.put")) / specs,
        "backend.busy_share": busy / wall if wall else 0.0,
        "backend.concurrency_mean": below_total / busy if busy else 0.0,
        "backend.prompts_per_round_trip": _mean([span["prompts"] for span in below]),
        "router.self_ms_per_call": (
            sum(duration(h) - forest.covered(h, "worker.submit") for h in routed) / n_calls * 1e3
        ),
        "cluster.workers_busy_mean": run_total / wall if wall else 0.0,
        # Server-side self times over client-observed time: what is left is
        # the wire; side-by-side children (cluster workers) push it above 1.
        "trace.coverage": (
            sum(forest.self_time(span) for span in forest.spans if span["name"] != "client.call")
            / max(sum(duration(call) for call in calls), 1e-9)
        ),
    }
