"""The one periodic loop: a callable run every interval on its own thread.

The SLO monitor's tick, the crash supervisor's check, the autoscaler's
control pass and the router's health sweep are each *one callable, one
interval, one named daemon thread*; :class:`PeriodicLoop` is that, once.
Loops never share a thread — a supervisor pass that respawns a worker may
block for seconds and must not delay the SLO tick beside it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

__all__ = ["PeriodicLoop"]


class PeriodicLoop:
    """Calls ``fn()`` every ``interval`` seconds until stopped.

    Used directly (the router's sweep) or as a base class whose subclass
    passes its own bound method, which gives it ``start``/``stop`` and the
    ``with`` form.  ``interval`` is read before every wait, so assigning it
    retunes a running loop.  An exception from ``fn`` skips that pass, never
    the loop: monitoring must outlive a transient error.
    """

    def __init__(self, fn: Callable[[], Any], interval: float, thread_name: str):
        self.interval = interval
        self._fn = fn
        self._thread_name = thread_name
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Start the loop's daemon thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=self._thread_name
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._fn()
            except Exception:  # pragma: no cover - defensive
                continue

    def stop(self) -> None:
        """Stop the loop and join its thread (idempotent; a no-op if never started)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "PeriodicLoop":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
