"""``python -m bench``: the benchmark's command line.

Two ways in:

* **one run** — ``--workload NAME --seed N --seconds S --trace 0|1`` is what
  the driver calls: one workload, one window, and the last line of standard
  output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
  holding every end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``);
* **the set** — without ``--trace``, every workload (or the one named) is
  run untraced and then traced, and every metric is printed by name with its
  unit and the samples behind it.  ``--repeat N --check`` runs the set N
  times and fails when two runs of the same code disagree by more than a
  metric's own bound (an A/A test).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys

from . import ROOT, SRC, ensure_importable

DEFAULT_SCRATCH = ROOT / ".bench_scratch"


def _log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


def _parser(workload_names: list[str], run_seconds: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"length of a timed window (default {run_seconds}; 1 with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="one run only: 0 = end-to-end metrics, 1 = per-layer metrics; last line is JSON",
    )
    parser.add_argument("--smoke", action="store_true", help="1 s windows, 64-spec working set")
    parser.add_argument("--repeat", type=int, default=1, help="run the set this many times")
    parser.add_argument(
        "--check", action="store_true",
        help="with --repeat: exit 1 if runs differ by more than a metric's bound",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the results as one JSON document"
    )
    parser.add_argument("--out", help="also write the JSON document to this file")
    parser.add_argument(
        "--scratch", default=str(DEFAULT_SCRATCH),
        help="directory for cache dirs and span files (default .bench_scratch in the checkout)",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="rewrite BENCHMARK.json from bench/registry.py and exit (nothing else ever does)",
    )
    return parser


def _print_run(result) -> None:
    kind = "per-layer (traced window)" if result.trace else "end-to-end (untraced window)"
    print(f"  {kind}: attempted {result.attempted}, failed {result.failed}")
    for name, (value, unit, samples) in result.metrics.items():
        behind = f"  n={samples}" if samples is not None else ""
        print(f"    {name:<34} {value:>14.4f} {unit:<7}{behind}")
    for failure in result.failures[:5]:
        print(f"    ! {failure}")


def _as_document(runs: list[list]) -> dict:
    return {
        "repeats": [
            [
                {
                    "workload": result.workload,
                    "seed": result.seed,
                    "trace": result.trace,
                    **result.to_driver_json(),
                }
                for result in results
            ]
            for results in runs
        ]
    }


def _check(runs: list[list], end_to_end) -> bool:
    """Print per-metric spread across repeats; True when all are within bounds."""
    ok = True
    print("== A/A check: spread of each end-to-end metric across repeats ==")
    by_workload: dict[str, list] = {}
    for results in runs:
        for result in results:
            if not result.trace:
                by_workload.setdefault(result.workload, []).append(result)
    for workload, results in by_workload.items():
        for metric in end_to_end:
            values = [result.metrics[metric.name][0] for result in results]
            middle = statistics.median(values)
            spread = (max(values) - min(values)) / middle if middle else 0.0
            verdict = "ok" if spread <= metric.bound else "OUTSIDE"
            ok = ok and spread <= metric.bound
            print(
                f"  {workload:<17} {metric.name:<26} spread {spread:7.2%}  "
                f"bound {metric.bound:5.0%}  {verdict}"
            )
    return ok


def main(argv: list[str]) -> int:
    if not (SRC / "repro").is_dir():
        # The benchmark measures this checkout's program, never an installed copy.
        print(f"bench: no program under test at {SRC / 'repro'}", file=sys.stderr)
        return 2
    ensure_importable()
    try:
        from .load import SETUP_REPEATS, run_workload
        from .registry import END_TO_END, RUN_SECONDS, benchmark_json
        from .workloads import BY_NAME, WORKLOADS
    except ImportError as exc:
        print(f"bench: the program under test is not importable: {exc}", file=sys.stderr)
        return 2

    args = _parser([w.name for w in WORKLOADS], RUN_SECONDS).parse_args(argv)
    if args.write:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
        return 0

    # Let SIGTERM unwind like Ctrl-C, so every `finally` reaps its server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else RUN_SECONDS)
    setup_repeats = 1 if args.smoke else SETUP_REPEATS
    selected = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    selected = [workload.sized(args.smoke) for workload in selected]

    if args.trace is not None:
        if len(selected) != 1:
            print("bench: --trace needs --workload", file=sys.stderr)
            return 2
        result = run_workload(
            selected[0], args.seed, seconds, bool(args.trace), args.scratch, _log, setup_repeats
        )
        print(f"== {result.workload} (seed {result.seed}, {seconds:g} s window) ==")
        _print_run(result)
        print(json.dumps(result.to_driver_json()))
        return 0

    runs: list[list] = []
    for repeat in range(args.repeat):
        results = []
        for workload in selected:
            print(f"== {workload.name} (seed {args.seed}, {seconds:g} s windows, "
                  f"repeat {repeat + 1}/{args.repeat}) ==", flush=True)
            for trace in (False, True):
                result = run_workload(
                    workload, args.seed, seconds, trace, args.scratch, _log, setup_repeats
                )
                _print_run(result)
                results.append(result)
        runs.append(results)

    document = _as_document(runs)
    if args.json:
        print(json.dumps(document, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(document, out, indent=2)
    failed = sum(result.failed for results in runs for result in results)
    if failed:
        print(f"bench: {failed} failed requests", file=sys.stderr)
    within = _check(runs, END_TO_END) if args.check and args.repeat > 1 else True
    return 0 if within and not failed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
