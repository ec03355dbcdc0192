"""Keep the server process on a quiet CPU while it is measured.

The sandbox this benchmark runs in is a few vCPUs of a shared host.  Each
vCPU, on its own schedule and for one to twenty seconds at a time, runs
~1.55x slower (its hyper-thread sibling is busy with someone else's work);
two vCPUs of one machine do so independently of each other (correlation 0.07
over 90 s).  A CPU-bound server that the scheduler happens to leave on the
slow one measures the neighbour, not the program.

The server under test is bound by the GIL: it never uses more than one CPU.
So it is confined to one CPU — what ``taskset`` does for a deployment — from
its birth, on the CPU that is fastest at that moment.  Once it answers, a
probe thread of the load process times a fixed unit of work on every allowed
CPU ten times a second; when another CPU runs the unit more than a fifth
faster than the server's, twice in a row, the server is moved there.  The
load process's own threads are kept off the server's CPU.

Nothing here depends on the program under test, and nothing is scaled: every
figure the benchmark prints is as measured.  With a single allowed CPU, or
where the platform has no ``sched_setaffinity``, placement does nothing.
"""

from __future__ import annotations

import os
import threading
import time

#: Seconds between two rounds of probes.
PERIOD = 0.1
#: Another CPU must run the unit in less than this share of the server CPU's
#: time, on two successive probes, for the server to move (the slow state is
#: 1 / 1.55 = 0.65; the fast state repeats to ~10 %).
MOVE_BELOW = 0.8

_CAN_PLACE = hasattr(os, "sched_setaffinity")


def _unit() -> int:
    """~0.3 ms of interpreter work that touches no memory to speak of."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    return total


def _pin(tid: int, cpus: set[int]) -> None:
    try:
        os.sched_setaffinity(tid, cpus)
    except OSError:
        pass  # the thread has ended since it was listed


def _tasks(pid: int | str) -> list[int]:
    try:
        return [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        return []


class Placement:
    """Places one server process from its birth to its end; see the module docstring."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if _CAN_PLACE else []
        #: How often the server was moved (for the log).
        self.moves = 0
        self._server_pid: int | None = None
        self._current: int | None = None
        self._halt = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def active(self) -> bool:
        return len(self.cpus) > 1

    def settle(self) -> None:
        """Confine the calling thread to the CPU that is fastest right now.

        Called before the server is started: a process is born on the CPUs
        of the thread that starts it, so the server's start-up (``setup_s``)
        runs on a quiet CPU too.
        """
        if self.active:
            times = {cpu: self._probe(cpu) for cpu in self.cpus}
            self._current = min(times, key=times.get)
            _pin(threading.get_native_id(), {self._current})

    def start(self, server_pid: int) -> None:
        """From now to :meth:`stop`: the server on one CPU, this process on the rest."""
        if not self.active:
            return
        if self._current is None:
            self.settle()
        self._server_pid = server_pid
        self._place(self._current)
        self._thread = threading.Thread(target=self._run, name="bench-placement", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop probing and give this process its CPUs back (idempotent)."""
        self._halt.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self.active:
            for tid in _tasks("self"):
                _pin(tid, set(self.cpus))

    # ------------------------------------------------------------ the thread
    def _probe(self, cpu: int) -> float:
        """Thread CPU seconds of the unit on ``cpu``: the better of two."""
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        times = []
        for _ in range(2):
            started = time.thread_time()
            _unit()
            times.append(time.thread_time() - started)
        return min(times)

    def _place(self, cpu: int) -> None:
        """Server on ``cpu``, this process (but for the probe thread) on the others.

        Repeated every round: a thread inherits the CPUs of the thread that
        started it, so one started while the others were being moved may have
        been left behind.
        """
        self._current = cpu
        for tid in _tasks(self._server_pid):
            _pin(tid, {cpu})
        rest = set(self.cpus) - {cpu}
        probe = self._thread.native_id if self._thread is not None else None
        for tid in _tasks("self"):
            if tid != probe:
                _pin(tid, rest)

    def _best_other(self) -> tuple[int, float]:
        times = {cpu: self._probe(cpu) for cpu in self.cpus if cpu != self._current}
        best = min(times, key=times.get)
        return best, times[best]

    def _run(self) -> None:
        while not self._halt.wait(PERIOD):
            here = self._probe(self._current)
            cpu, there = self._best_other()
            if there < MOVE_BELOW * here:
                # Once more, so that one interrupted probe moves nothing.
                if self._probe(cpu) < MOVE_BELOW * self._probe(self._current):
                    self.moves += 1
                    self._place(cpu)
                    continue
            self._place(self._current)
