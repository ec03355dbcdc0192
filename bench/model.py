"""A first-principles throughput ceiling, to read measurements against.

Following MLSYSIM (PAPERS.md): a throughput is reported next to what the
configuration allows at best, so a later claim reads "x % of ceiling".

With a backend that answers one round trip in ``latency`` seconds, a spec
that needs ``round_trips_per_spec`` of them, and at most ``overlap`` round
trips in flight at once, no stack can complete more than::

    overlap / (round_trips_per_spec * latency)      specs per second

``overlap`` is the smaller of what the server can have in flight
(``llm_threads`` per serving stack, times the stacks) and what the load
offers (clients, times the specs each call carries — the round trips of one
spec depend on each other, so a spec keeps at most one in flight).
``round_trips_per_spec`` is *measured*: better batching lowers it and so
raises the ceiling; the model says how close to the backend's limit the
stack runs, given the batches it formed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Ceiling:
    #: Specs per second the backend allows; ``None`` when the backend costs
    #: no time and throughput is bounded by CPU alone.
    specs_per_s: float | None
    #: Round trips that can be in flight at once.
    overlap: int

    @property
    def cpu_bound(self) -> bool:
        return self.specs_per_s is None

    def efficiency(self, measured_specs_per_s: float) -> float | None:
        """Measured throughput as a share of the ceiling (``None``: CPU-bound)."""
        if self.specs_per_s is None:
            return None
        return measured_specs_per_s / self.specs_per_s


def ceiling(
    latency: float,
    round_trips_per_spec: float,
    *,
    llm_threads: int = 1,
    workers: int = 1,
    clients: int = 1,
    specs_per_call: int = 1,
) -> Ceiling:
    """The backend-imposed throughput ceiling of one configuration."""
    if min(llm_threads, workers, clients, specs_per_call) < 1:
        raise ValueError("llm_threads, workers, clients and specs_per_call must be positive")
    overlap = min(llm_threads * workers, clients * specs_per_call)
    if latency <= 0 or round_trips_per_spec <= 0:
        return Ceiling(None, overlap)
    return Ceiling(overlap / (round_trips_per_spec * latency), overlap)
