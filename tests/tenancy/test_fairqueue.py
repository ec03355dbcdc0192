"""Weighted-fair queue semantics, including the priority-heap parity property.

The load-bearing property: with every item on one tenant, the fair queue's
dequeue order is bit-identical to a plain ``(-priority, arrival)`` heap — so
turning tenancy on cannot change the scheduling any untagged deployment
observes.
"""

import copy
import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TransformationTask, UniDM, UniDMConfig
from repro.serving.engine import SHARE, EngineConfig, ExecutionEngine
from repro.tenancy import DEFAULT_TENANT, WeightedFairQueue


# ----------------------------------------------------------------- fair queue
def test_single_tenant_pops_by_priority_then_arrival():
    queue = WeightedFairQueue()
    for tag, priority in [("a", 0), ("b", 5), ("c", 0), ("d", 5)]:
        queue.push(tag, priority=priority)
    assert [queue.pop() for _ in range(4)] == ["b", "d", "a", "c"]


def test_weights_split_service_proportionally():
    queue = WeightedFairQueue()
    for index in range(30):
        queue.push(("heavy", index), tenant="heavy", weight=2.0)
        queue.push(("light", index), tenant="light", weight=1.0)
    first = [queue.pop()[0] for _ in range(12)]
    # Per unit of virtual time the weight-2 tenant drains twice the cost.
    assert first.count("heavy") == 8
    assert first.count("light") == 4


def test_priority_breaks_ties_within_a_tenant_only():
    queue = WeightedFairQueue()
    queue.push("a-low", tenant="a", priority=0)
    queue.push("a-high", tenant="a", priority=9)
    queue.push("b-high", tenant="b", priority=9)
    # Tenant a's head is its high-priority item; tenant b still gets its
    # fair share instead of being outbid by the priority alone.
    order = [queue.pop() for _ in range(3)]
    assert order[0] == "a-high"
    assert set(order[1:]) == {"a-low", "b-high"}
    assert order.index("a-low") > order.index("a-high")


def test_idle_tenant_earns_no_credit():
    queue = WeightedFairQueue()
    # Tenant a drains a long backlog, advancing virtual time far ahead.
    for index in range(10):
        queue.push(("a", index), tenant="a")
    for _ in range(10):
        queue.pop()
    # A late-arriving tenant bids at the *current* virtual time — it gets
    # its fair share from now on, not a catch-up burst for its idle past.
    for index in range(4):
        queue.push(("a", index), tenant="a")
        queue.push(("b", index), tenant="b")
    order = [queue.pop()[0] for _ in range(8)]
    assert order.count("b") == 4
    assert order[:2] != ["b", "b"] or order[2:4] != ["b", "b"]


def test_pop_drains_the_queue_and_then_raises():
    queue = WeightedFairQueue()
    queue.push("x", tenant="a", weight=3.0)
    queue.push("y", tenant="b")
    queue.pop()
    assert len(queue) == 1
    queue.pop()
    with pytest.raises(IndexError):
        queue.pop()


def test_push_validation():
    queue = WeightedFairQueue()
    with pytest.raises(ValueError):
        queue.push("x", weight=0.0)
    with pytest.raises(ValueError):
        queue.push("x", cost=0.0)


# -------------------------------------------------- priority-heap parity (SFQ)
@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.integers(min_value=-5, max_value=5)),
            st.tuples(st.just("pop"), st.just(0)),
        ),
        max_size=60,
    )
)
def test_single_tenant_is_bit_identical_to_priority_heap(ops):
    """Interleaved pushes/pops on one tenant == a (-priority, arrival) heap."""
    fair = WeightedFairQueue()
    reference: list = []
    sequence = itertools.count()
    for op, priority in ops:
        if op == "push":
            item = next(sequence)
            fair.push(item, priority=priority)
            heapq.heappush(reference, (-priority, item))
        elif reference:
            assert fair.pop() == heapq.heappop(reference)[1]
    while reference:
        assert fair.pop() == heapq.heappop(reference)[1]
    assert len(fair) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.just("push"),
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from([0.5, 1.0, 3.0]),
                st.integers(min_value=-2, max_value=2),
            ),
            st.tuples(st.just("pop"), st.just(""), st.just(1.0), st.just(0)),
        ),
        max_size=40,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_peek_is_what_the_next_pops_return_and_moves_nothing(ops, n):
    """Across tenants, weights and priorities: ``peek(n)`` lists the next
    ``n`` pops in order, and the pops that follow it are unchanged."""
    fair = WeightedFairQueue()
    sequence = itertools.count()

    def drain(queue):
        return [queue.pop() for _ in range(len(queue))]

    for op, tenant, weight, priority in ops:
        if op == "push":
            fair.push(next(sequence), tenant=tenant, weight=weight, priority=priority)
        elif len(fair):
            fair.pop()
        untouched = copy.deepcopy(fair)
        assert fair.peek(n) == drain(copy.deepcopy(fair))[:n]
        assert drain(copy.deepcopy(fair)) == drain(untouched)


# ------------------------------------------------- the engine's slot admission
# The orderings the fair queue promises, asserted where the serving stack
# applies them: which waiting task gets the engine's next free slot.  One
# slot (``workers=1``) makes admission order the order tasks reach the
# backend; a gated backend holds that slot while the contenders line up, and
# the resident's non-blocking ``submit`` (what ``run`` does before it waits)
# queues them from this one thread, so arrival order is the call order.
def tagged(tag):
    return TransformationTask(f"<{tag}>", [("20000101", "2000-01-01")])


def admission_order(backend, queue_up):
    """Hold the one slot, let ``queue_up(submit)`` line runs up, release, and
    return the tags in the order their tasks first reached the backend."""
    pipeline = UniDM(backend, UniDMConfig.full(seed=0))
    engine = ExecutionEngine(EngineConfig(workers=1))
    runs = []

    def submit(tags, tenant=DEFAULT_TENANT, weight=1.0, priority=0):
        share = SHARE.set((tenant, weight, priority))
        try:
            runs.append(engine._started().submit(pipeline, [tagged(t) for t in tags]))
        finally:
            SHARE.reset(share)

    try:
        submit(["holder"])
        assert backend.entered.acquire(timeout=10)  # the slot is taken
        queue_up(submit)
        backend.gate.set()
        for run in runs:
            run.future.result(timeout=30)
    finally:
        backend.gate.set()
        engine.close()
    order = backend.tag_order()
    assert order[0] == "holder"
    return order[1:]


def test_engine_slots_single_tenant_is_priority_then_arrival(gated_llm):
    def queue_up(submit):
        for priority, tag in [(0, "low-1"), (0, "low-2"), (5, "high"), (2, "mid")]:
            submit([tag], priority=priority)

    assert admission_order(gated_llm(), queue_up) == ["high", "mid", "low-1", "low-2"]


def test_engine_slots_weight_two_drains_two_tasks_per_weight_one_task(gated_llm):
    def queue_up(submit):
        submit([f"heavy-{i}" for i in range(8)], tenant="heavy", weight=2.0)
        submit([f"light-{i}" for i in range(8)], tenant="light", weight=1.0)

    first = [tag.split("-")[0] for tag in admission_order(gated_llm(), queue_up)[:9]]
    assert first.count("heavy") == 6
    assert first.count("light") == 3


def test_engine_slots_priority_orders_within_a_tenant_only(gated_llm):
    def queue_up(submit):
        submit(["a-low"], tenant="a", priority=0)
        submit(["a-high"], tenant="a", priority=9)
        submit(["b-low"], tenant="b", priority=0)

    order = admission_order(gated_llm(), queue_up)
    assert order.index("a-high") < order.index("a-low")
    # Tenant b keeps its fair share: a's priority does not outbid it.
    assert order.index("b-low") < order.index("a-low")


def test_engine_slots_a_flood_cannot_push_a_polite_tenant_past_second(gated_llm):
    def queue_up(submit):
        submit([f"flood-{i}" for i in range(10)], tenant="flooder")
        submit(["polite"], tenant="polite")

    assert admission_order(gated_llm(), queue_up).index("polite") <= 1
