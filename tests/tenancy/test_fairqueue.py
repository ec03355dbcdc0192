"""Weighted-fair queue semantics, including the priority-heap parity property.

The load-bearing property: with every item on one tenant, the fair queue's
dequeue order is bit-identical to a plain ``(-priority, arrival)`` heap — so
turning tenancy on cannot change the scheduling any untagged deployment
observes.
"""

import heapq
import itertools
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.tenancy import FairBlockingQueue, WeightedFairLock, WeightedFairQueue


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


def test_peek_matches_pop_and_empty_raises():
    queue = WeightedFairQueue()
    queue.push("x", tenant="a", weight=3.0)
    queue.push("y", tenant="b")
    assert queue.peek() == queue.pop()
    assert len(queue) == 1
    queue.pop()
    with pytest.raises(IndexError):
        queue.pop()
    with pytest.raises(IndexError):
        queue.peek()


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
    pushed = 0
    for op, priority in ops:
        if op == "push":
            item = next(sequence)
            fair.push(item, priority=priority)
            heapq.heappush(reference, (-priority, item))
            pushed += 1
        elif reference:
            assert fair.pop() == heapq.heappop(reference)[1]
    while reference:
        assert fair.pop() == heapq.heappop(reference)[1]
    assert len(fair) == 0


# ------------------------------------------------------------------ fair lock
def test_fair_lock_orders_default_tenant_like_priority_lock():
    lock = WeightedFairLock()
    order = []
    lock.acquire()

    def waiter(priority, tag):
        lock.acquire(priority)
        order.append(tag)
        lock.release()

    threads = []
    for priority, tag in [(0, "low-1"), (0, "low-2"), (5, "high"), (2, "mid")]:
        thread = threading.Thread(target=waiter, args=(priority, tag))
        thread.start()
        threads.append(thread)
        time.sleep(0.05)  # deterministic arrival order
    lock.release()
    for thread in threads:
        thread.join()
    assert order == ["high", "mid", "low-1", "low-2"]


def test_fair_lock_release_requires_holder():
    with pytest.raises(RuntimeError):
        WeightedFairLock().release()


def test_fair_lock_context_manager():
    lock = WeightedFairLock()
    with lock:
        pass
    with lock.hold(priority=3, tenant="t", weight=2.0, cost=4.0):
        pass


# -------------------------------------------------------------- blocking queue
def test_blocking_queue_serves_final_item_after_draining():
    queue = FairBlockingQueue()
    stop = object()
    queue.put_final(stop)
    queue.put("work-1")
    queue.put("work-2", priority=5)
    assert queue.get() == "work-2"
    assert queue.get() == "work-1"
    assert queue.get() is stop


def test_blocking_queue_bounded_put_blocks_until_get():
    queue = FairBlockingQueue(maxsize=1)
    queue.put("first")
    unblocked = threading.Event()

    def producer():
        queue.put("second")
        unblocked.set()

    thread = threading.Thread(target=producer)
    thread.start()
    try:
        assert not unblocked.wait(0.15), "put must block while the queue is full"
        assert queue.get() == "first"
        assert unblocked.wait(2.0), "put must resume once capacity frees up"
        assert queue.get() == "second"
    finally:
        thread.join()


def test_blocking_queue_dequeues_weighted_fair():
    queue = FairBlockingQueue()
    for index in range(6):
        queue.put(("big", index), tenant="big", weight=3.0)
        queue.put(("small", index), tenant="small", weight=1.0)
    first = [queue.get()[0] for _ in range(8)]
    assert first.count("big") == 6
    assert first.count("small") == 2
