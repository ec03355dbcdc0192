"""Shared emitter for the machine-readable ``BENCH_*.json`` artifacts.

Every throughput/efficiency benchmark writes its numbers through
:func:`write_bench`, so the artifacts share one location policy: the
gitignored ``bench-scratch/`` by default — a plain ``pytest`` run never
rewrites the committed baselines at the repo root — or ``$REPRO_BENCH_DIR``
when set.  That variable is both how CI regenerates fresh short-mode
results for ``scripts/check_bench.py`` to compare against the baselines
(fail on >20% regression of any gated ratio) and the one way to rebaseline:
``REPRO_BENCH_DIR=. pytest benchmarks/``.

Only *ratio* metrics (speedup, dedup factor, call reduction) are gated:
they compare two runs on the same machine, so they are robust to CI runner
speed.  Raw wall-clock numbers are recorded for humans but never compared
across machines.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

#: Environment variable redirecting where BENCH_*.json files land.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_dir() -> Path:
    """Where BENCH artifacts are written (``bench-scratch/`` unless redirected)."""
    override = os.environ.get(BENCH_DIR_ENV)
    return Path(override) if override else REPO_ROOT / "bench-scratch"


def bench_path(name: str) -> Path:
    return bench_dir() / f"BENCH_{name}.json"


def write_bench(name: str, payload: dict[str, Any]) -> Path:
    """Write one benchmark's payload as ``BENCH_<name>.json``; returns the path."""
    path = bench_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def load_bench(name: str, directory: Path | None = None) -> dict[str, Any]:
    """Read one BENCH artifact back (from ``directory`` or the default)."""
    path = (directory or bench_dir()) / f"BENCH_{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def reset_default_metrics() -> None:
    """Zero the process-default metrics registry between benchmark phases.

    Benchmarks in one pytest process share the default registry; phases that
    read counters (hit rates, batch sizes) must not see the previous phase's
    traffic.  Zeroing in place keeps the metric handles components cached at
    construction time valid.
    """
    from repro.obs import get_default_registry

    get_default_registry().reset()
