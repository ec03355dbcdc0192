"""CPU placement: the server on one CPU, the load process on the others."""

import os
import subprocess
import sys
import threading
import time

import pytest

from bench.placement import PERIOD, Placement

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity on this platform"
)


@pytest.fixture
def sleeper():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        yield child
    finally:
        child.kill()
        child.wait()


def test_the_server_gets_one_cpu_and_the_load_process_the_rest_until_stop(sleeper):
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        pytest.skip("one CPU: nothing to place")
    placement = Placement()
    placement.start(sleeper.pid)
    try:
        server_cpus = os.sched_getaffinity(sleeper.pid)
        assert len(server_cpus) == 1 and server_cpus < allowed
        assert os.sched_getaffinity(0) == allowed - server_cpus
        # A thread started now stays off the server's CPU too.
        seen = []
        thread = threading.Thread(target=lambda: seen.append(os.sched_getaffinity(0)))
        thread.start()
        thread.join()
        assert seen == [allowed - server_cpus]
    finally:
        placement.stop()
    assert os.sched_getaffinity(0) == allowed
    placement.stop()  # idempotent


def test_a_single_cpu_is_left_alone(sleeper, monkeypatch):
    allowed = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(allowed)})
    placement = Placement()
    assert not placement.active
    placement.settle()
    placement.start(sleeper.pid)
    placement.stop()
    monkeypatch.undo()
    assert os.sched_getaffinity(sleeper.pid) == allowed
    assert os.sched_getaffinity(0) == allowed


def test_a_server_that_dies_first_breaks_nothing(sleeper):
    allowed = os.sched_getaffinity(0)
    placement = Placement()
    placement.start(sleeper.pid)
    sleeper.kill()
    sleeper.wait()
    time.sleep(3 * PERIOD)  # a few rounds of probes with no process to place
    placement.stop()
    assert os.sched_getaffinity(0) == allowed
