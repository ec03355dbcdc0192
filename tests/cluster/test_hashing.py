"""Unit tests for the consistent-hash ring and the spec routing key."""

import sys
import threading

import pytest

from repro.api import TransformationSpec
from repro.cluster import HashRing, spec_key


def test_ring_is_deterministic_across_instances():
    keys = [f"key-{i}" for i in range(200)]
    ring_a = HashRing(["w0", "w1", "w2"])
    ring_b = HashRing(["w2", "w0", "w1"])  # insertion order must not matter
    assert [ring_a.node_for(k) for k in keys] == [ring_b.node_for(k) for k in keys]


def test_every_node_owns_some_keys():
    ring = HashRing([f"w{i}" for i in range(4)], replicas=64)
    counts = ring.distribution(f"key-{i}" for i in range(400))
    assert set(counts) == {"w0", "w1", "w2", "w3"}
    assert all(count > 0 for count in counts.values())


def test_removal_moves_only_the_dead_nodes_keys():
    ring = HashRing(["w0", "w1", "w2", "w3"])
    keys = [f"key-{i}" for i in range(300)]
    before = {key: ring.node_for(key) for key in keys}
    ring.remove("w2")
    for key in keys:
        after = ring.node_for(key)
        if before[key] != "w2":
            assert after == before[key], "a surviving node's key moved"
        else:
            assert after != "w2"


def test_add_is_idempotent_and_remove_unknown_is_noop():
    ring = HashRing(["w0"])
    ring.add("w0")
    ring.remove("ghost")
    assert ring.nodes == {"w0"}
    assert len(ring) == 1


def test_empty_ring_raises_lookup_error():
    ring = HashRing(["w0"])
    ring.remove("w0")
    with pytest.raises(LookupError):
        ring.node_for("anything")


def test_replicas_must_be_positive():
    with pytest.raises(ValueError):
        HashRing(replicas=0)


def test_spec_key_is_stable_and_content_addressed():
    spec = TransformationSpec(value="19990415", examples=[["a", "b"]])
    same = TransformationSpec(value="19990415", examples=[["a", "b"]])
    other = TransformationSpec(value="20230101", examples=[["a", "b"]])
    assert spec_key(spec) == spec_key(same)
    assert spec_key(spec) != spec_key(other)


# ----------------------------------------------------- elasticity properties
# The resize contract add_worker/remove_worker rely on: consistent hashing
# relocates only the minimal key set.  Derandomized so CI is reproducible.
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def moved_keys(before, after, keys):
    """``key -> (old_owner, new_owner)`` for the keys whose owner differs."""
    owners = {key: (before.node_for(key), after.node_for(key)) for key in keys}
    return {key: pair for key, pair in owners.items() if pair[0] != pair[1]}


_node_counts = st.integers(min_value=1, max_value=8)
_key_sets = st.sets(
    st.text(alphabet="abcdef0123456789-", min_size=1, max_size=16),
    min_size=1,
    max_size=200,
)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n_nodes=_node_counts, keys=_key_sets)
def test_join_moves_keys_only_onto_the_new_node(n_nodes, keys):
    before = HashRing([f"w{i}" for i in range(n_nodes)])
    after = before.with_node("joiner")
    moved = moved_keys(before, after, keys)
    for key, (old_owner, new_owner) in moved.items():
        # Minimality: every relocation lands on the joiner; no key ever
        # moves between two surviving nodes.
        assert new_owner == "joiner"
        assert old_owner != "joiner"
    for key in keys:
        if key not in moved:
            assert after.node_for(key) == before.node_for(key)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n_nodes=st.integers(min_value=2, max_value=8), keys=_key_sets)
def test_leave_moves_only_the_leavers_keys(n_nodes, keys):
    nodes = [f"w{i}" for i in range(n_nodes)]
    before = HashRing(nodes)
    after = HashRing(nodes[1:])
    moved = moved_keys(before, after, keys)
    for key, (old_owner, new_owner) in moved.items():
        assert old_owner == nodes[0]
        assert new_owner != nodes[0]
    for key in keys:
        if key not in moved:
            assert after.node_for(key) == before.node_for(key)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n_nodes=_node_counts, keys=_key_sets)
def test_add_remove_round_trip_restores_placement_exactly(n_nodes, keys):
    ring = HashRing([f"w{i}" for i in range(n_nodes)])
    placement = {key: ring.node_for(key) for key in keys}
    ring.add("transient")
    ring.remove("transient")
    assert {key: ring.node_for(key) for key in keys} == placement


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n_nodes=st.integers(min_value=2, max_value=8), keys=_key_sets)
def test_remove_add_round_trip_restores_placement_exactly(n_nodes, keys):
    nodes = [f"w{i}" for i in range(n_nodes)]
    ring = HashRing(nodes)
    placement = {key: ring.node_for(key) for key in keys}
    ring.remove(nodes[-1])
    ring.add(nodes[-1])
    assert {key: ring.node_for(key) for key in keys} == placement


def test_join_moved_fraction_is_about_one_over_n():
    # Deterministic (sha256 placement, fixed keys): a join should relocate
    # roughly 1/(N+1) of the keys — the consistent-hash-minimal fraction —
    # never the ~(N-1)/N a naive mod-N resharding would.
    keys = [f"key-{i}" for i in range(3000)]
    for n_nodes in (2, 4, 8):
        ring = HashRing([f"w{i}" for i in range(n_nodes)])
        moved = moved_keys(ring, ring.with_node("joiner"), keys)
        fraction = len(moved) / len(keys)
        expected = 1.0 / (n_nodes + 1)
        assert 0.3 * expected <= fraction <= 3.0 * expected


def test_a_reader_never_sees_a_ring_half_resized():
    """Readers see the ring before or after a resize, never between.

    At the parent ``add`` inserted into the points list and then into the
    owners list, and ``remove`` replaced them one after the other; a reader
    in between paired a point with the wrong node (thousands of impossible
    answers in this loop).
    """
    ring = HashRing([f"w{i}" for i in range(4)])
    grown = ring.with_node("w9")
    keys = [f"key-{i}" for i in range(64)]
    allowed = {key: {ring.node_for(key), grown.node_for(key)} for key in keys}
    stop = threading.Event()
    impossible: list = []

    def read() -> None:
        while not stop.is_set():
            impossible.extend(
                (key, owner)
                for key in keys
                if (owner := ring.node_for(key)) not in allowed[key]
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(3)]
    try:
        for reader in readers:
            reader.start()
        for _ in range(300):
            ring.add("w9")
            ring.remove("w9")
    finally:
        stop.set()
        for reader in readers:
            reader.join(10)
        sys.setswitchinterval(interval)
    assert not impossible
