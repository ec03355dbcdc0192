"""The per-test time cap, where pytest-timeout is not installed.

``pyproject.toml`` sets ``timeout = 120`` for pytest-timeout (in the CI
dependency set): a test that hangs — a drain that deadlocks, a batch nobody
lands — is ended instead of wedging the run.  Without the plugin that key
would be an unknown option that enforces nothing, so here it is registered
and enforced with :mod:`faulthandler`: a test still running ``timeout``
seconds after it started ends the whole run, with every thread's traceback
(the test's own frame among them) on the terminal.  With the plugin
installed this file does nothing.
"""

from __future__ import annotations

import faulthandler
import importlib.util
import os

import pytest

if importlib.util.find_spec("pytest_timeout") is None:
    #: A copy of the terminal's stderr, taken before tests capture fd 2.
    _terminal: list[int] = []

    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "seconds a test may run before the run ends with every thread's traceback "
            "(0: no cap)",
            default="0",
        )

    def pytest_configure(config):
        # Output capture is suspended while plugins configure.
        _terminal.append(os.dup(2))

    def pytest_unconfigure(config):
        while _terminal:
            os.close(_terminal.pop())

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        timeout = float(item.config.getini("timeout") or 0)
        if timeout > 0:
            faulthandler.dump_traceback_later(timeout, exit=True, file=_terminal[0])
        yield
        if timeout > 0:
            faulthandler.cancel_dump_traceback_later()
