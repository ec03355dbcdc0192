"""The one periodic loop behind the monitor, supervisor, autoscaler and sweep."""

import threading

from repro.obs.periodic import PeriodicLoop


def test_loop_runs_on_its_named_thread_survives_errors_and_stops():
    seen = []
    enough = threading.Event()

    def fn():
        seen.append(threading.current_thread().name)
        if len(seen) == 1:
            raise RuntimeError("a failed pass is skipped, not fatal")
        if len(seen) == 3:
            enough.set()

    loop = PeriodicLoop(fn, 0.005, "repro-test-loop")
    loop.stop()  # never started: a no-op
    loop.start()
    thread = loop._thread
    loop.start()  # idempotent: still the one thread
    assert loop._thread is thread
    assert enough.wait(10)
    loop.stop()
    assert not thread.is_alive()
    assert set(seen) == {"repro-test-loop"}
    passes = len(seen)
    threading.Event().wait(0.05)
    assert len(seen) == passes  # stopped means stopped

    with loop:  # restartable, and the with-form stops it
        restarted = loop._thread
        assert restarted is not thread and restarted.is_alive()
    assert not restarted.is_alive()
