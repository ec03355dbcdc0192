#!/usr/bin/env python
"""CI perf-regression gate over the committed ``BENCH_*.json`` baselines.

The benchmark suite writes machine-readable artifacts through
``benchmarks/report.py``.  This script compares a freshly generated set
(``--fresh``, typically ``$REPRO_BENCH_DIR`` from a short-mode CI run)
against the committed baselines (``--baseline``, the repo root) and fails
when any **gated ratio** dropped by more than ``--threshold`` (default 20%).

Only within-run ratios are gated — flow dedup/call reduction, warm-cache
serving speedup, micro-batching round-trip reduction.  They compare two
runs on the *same* machine, so a slow CI runner cannot fail the gate; raw
wall-clock and throughput numbers are printed for context but never
compared across machines.

Usage::

    REPRO_BENCH_DIR=bench-fresh python -m pytest \
        benchmarks/test_cluster_throughput.py \
        benchmarks/test_flow_throughput.py \
        benchmarks/test_serving_throughput.py -q
    python scripts/check_bench.py --baseline . --fresh bench-fresh

Exit status 1 on any regression (or a missing fresh artifact), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Gated metrics: artifact name -> list of (dotted key path, human label).
#: Higher is better; the fresh value must stay above the baseline's floor.
GATED_METRICS: dict[str, list[tuple[str, str]]] = {
    "flow": [
        ("llm_call_reduction", "flow LLM-call reduction vs per-row loop"),
        ("flow_executor.dedup_factor", "flow spec dedup factor"),
    ],
    "serving": [("speedup", "warm-cache engine speedup vs cold sequential")],
    "batching": [("round_trip_reduction", "micro-batching round-trip reduction")],
    "wire": [
        (
            "overhead_reduction",
            "pipelined wire per-request overhead reduction vs thread-per-conn",
        )
    ],
}

#: Capped metrics: artifact name -> list of (dotted key path, label, cap).
#: Lower is better; the *fresh* value must stay at or below the absolute cap
#: regardless of the committed baseline (a budget, not a regression ratio).
CAPPED_METRICS: dict[str, list[tuple[str, str, float]]] = {
    "cluster": [
        (
            "elastic.migration_fraction",
            "avg per-resize fraction of cache entries migrated (2->4 live)",
            0.6,
        ),
        (
            "elastic.resize_error_rate",
            "requests failed during a live 2->4 resize",
            0.0,
        ),
    ],
    "obs": [
        (
            "overhead_ratio",
            "span+event instrumentation overhead (traced / untraced)",
            1.10,
        ),
        (
            "slo_overhead_ratio",
            "time-series + SLO monitoring overhead (monitored / untraced)",
            1.10,
        ),
    ],
    "tenancy": [
        (
            "p99_degradation",
            "well-behaved tenant p99 under a 20x flood (abuse / baseline)",
            2.0,
        )
    ],
}


def dig(payload: dict, path: str):
    value = payload
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def load(directory: Path, name: str) -> dict | None:
    path = directory / f"BENCH_{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=".",
        help="directory of the committed BENCH_*.json baselines (repo root)",
    )
    parser.add_argument(
        "--fresh",
        required=True,
        help="directory of the freshly generated BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated fractional drop of a gated ratio (default 0.20)",
    )
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline)
    fresh_dir = Path(args.fresh)
    failures: list[str] = []
    checked = 0

    for name, metrics in GATED_METRICS.items():
        baseline = load(baseline_dir, name)
        fresh = load(fresh_dir, name)
        if baseline is None:
            # No committed baseline yet: the first run establishes one.
            print(f"BENCH_{name}.json: no baseline committed, skipping")
            continue
        if fresh is None:
            failures.append(
                f"BENCH_{name}.json: baseline exists but no fresh artifact was "
                f"generated in {fresh_dir} — did the benchmark run?"
            )
            continue
        for path, label in metrics:
            old = dig(baseline, path)
            new = dig(fresh, path)
            if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
                failures.append(
                    f"BENCH_{name}.json: metric {path!r} missing or non-numeric "
                    f"(baseline={old!r}, fresh={new!r})"
                )
                continue
            checked += 1
            floor = old * (1.0 - args.threshold)
            status = "ok" if new >= floor else "REGRESSION"
            print(
                f"{status:>10}  {label}: baseline {old:.3f} -> fresh {new:.3f} "
                f"(floor {floor:.3f})"
            )
            if new < floor:
                failures.append(
                    f"{label} regressed: {old:.3f} -> {new:.3f} "
                    f"(allowed floor {floor:.3f}, threshold {args.threshold:.0%})"
                )

    for name, metrics in CAPPED_METRICS.items():
        fresh = load(fresh_dir, name)
        if fresh is None:
            if load(baseline_dir, name) is None:
                # Neither committed nor generated: the gate is not armed yet.
                print(f"BENCH_{name}.json: no baseline committed, skipping")
                continue
            failures.append(
                f"BENCH_{name}.json: baseline exists but no fresh artifact was "
                f"generated in {fresh_dir} — did the benchmark run?"
            )
            continue
        for path, label, cap in metrics:
            new = dig(fresh, path)
            if not isinstance(new, (int, float)):
                failures.append(
                    f"BENCH_{name}.json: metric {path!r} missing or non-numeric "
                    f"(fresh={new!r})"
                )
                continue
            checked += 1
            status = "ok" if new <= cap else "OVER BUDGET"
            print(f"{status:>10}  {label}: fresh {new:.3f} (cap {cap:.3f})")
            if new > cap:
                failures.append(
                    f"{label} over budget: {new:.3f} exceeds cap {cap:.3f}"
                )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"all {checked} gated benchmark ratios within threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
