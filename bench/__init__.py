"""The repo's benchmark of record: one end-to-end load test, five workloads.

``python -m bench`` starts the program under test as its own server process
(:mod:`bench.server`), drives it from one load process with two
``Client.remote`` connections (:mod:`bench.load`), checks every answer
(:mod:`bench.workloads`) and prints every metric of :mod:`bench.registry` by
name and unit.  See ``bench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Where the package under test lives.  The driver runs the benchmark without
#: ``PYTHONPATH``, so the entry points put it on ``sys.path`` themselves.
SRC = ROOT / "src"


def ensure_importable() -> None:
    """Make ``import repro`` work from a bare checkout (no-op when it does)."""
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
