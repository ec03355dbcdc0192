#!/usr/bin/env python
"""Generate ``docs/wire-protocol.md`` from the spec registry.

The wire protocol has one source of truth: the :mod:`repro.api` spec
registry (``SPEC_TYPES``) plus the :data:`repro.api.errors.ERROR_CODES`
table.  This script renders both into markdown — envelope prose, an error
code table, and one field table per registered task type — so the document
can never silently drift from the code.

Usage::

    python scripts/gen_protocol_docs.py            # rewrite docs/wire-protocol.md
    python scripts/gen_protocol_docs.py --check    # exit 1 when the doc is stale

CI runs ``--check`` on every push (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import ERROR_CODES, SPEC_TYPES  # noqa: E402  (path bootstrap above)

HEADER = """\
<!-- AUTO-GENERATED by scripts/gen_protocol_docs.py — do not edit by hand.
     The tables below are rendered from the repro.api spec registry;
     regenerate with:  python scripts/gen_protocol_docs.py  -->

# Wire protocol

`python -m repro serve` answers **newline-delimited JSON**: one request
object per line, one response object per line, in request order.  A blank
line (or EOF) flushes the accumulated batch through the engine, so piped
request files get full micro-batching while interactive sessions flush at
will.  The same line protocol runs over stdin/stdout, over TCP
(`--port 8765`), and over a sharded cluster (`--cluster --workers 4` — the
router speaks it to subprocess workers too, so the protocol is also the
cluster's internal transport).

## Transport handshake

Over TCP, a client may open with a **handshake line** —
`{"repro": 1, "frames": ["bin"]}` — to upgrade the connection to the
multiplexed binary transport: the server answers one JSON line
(`{"repro": 1, "frame": "bin", "max_frame": 8388608}`) and from then on
every message is a length-prefixed binary frame, requests are dispatched
*as they arrive* (no blank-line flush) and responses are correlated by the
envelope `id`.  Connections that send anything else as their first line
speak the blank-line-batch JSON lines described above (`nc`, piped files).
A handshake that does not offer `"bin"`, or a binary connection that loses
frame sync (torn frame, oversized declared length), receives a best-effort
`bad_frame` error and is closed.  The full framing spec — the decided wire
matrix, handshake, length-prefix layout, multiplexing and backpressure
semantics — lives in `docs/wire-transport.md`.

## Envelope

Every request and every response is a v2 envelope:

```json
{"v": 2, "id": 7, "task": {"type": "transformation",
                           "value": "19990415",
                           "examples": [["20000101", "2000-01-01"]]}}
```

Responses mirror the id and carry either a result or a structured error:

```json
{"v": 2, "id": 7, "ok": true,
 "result": {"answer": "1999-04-15", "raw": "1999-04-15",
            "task_type": "data transformation", "tokens": 978, "calls": 3}}
{"v": 2, "id": 8, "ok": false,
 "error": {"code": "invalid_request", "message": "'examples' must be a
            non-empty list of [input, output] pairs", "field": "examples"}}
```

Three optional envelope keys carry the observability layer (see
`docs/observability.md`): `"trace"` — a client-stamped trace id, echoed on
the response envelope so calls correlate end to end; `"span"` — the id of
the caller's active span, adopted as the parent of the receiver's spans so
one distributed waterfall covers client, router and subprocess workers; and
`"priority"` (integer, default 0, higher first), honored at dequeue when
admitted batches contend for the engine.  An admission-controlled service
sheds excess load with an `overloaded` error whose `retry_after` field
(seconds) hints the back-off and whose `details` object reports the
controller state at shed time (`queue_depth`, `inflight`, `pending`,
`capacity`).

A fourth optional key carries the tenancy layer (see `docs/tenancy.md`):
`"tenant"` — a string naming the submitting tenant, echoed verbatim on the
response envelope.  When the server runs with tenants configured
(`--tenant` / `--tenants-file`), the name is resolved against the registry
(unknown or missing names share the `default` tenant's budget) and the
request is charged against that tenant's token bucket and inflight cap
before global admission.  Over-budget requests are shed with a
`rate_limited` error whose `retry_after` field (seconds) says when the
bucket refills and whose `details` object reports the decision
(`tenant`, `reason` — `"rate"` or `"inflight"` — `requests`, `rate`,
`burst`, `max_inflight`, `inflight`).  Admitted work is scheduled
weighted-fair across tenants, with `"priority"` breaking ties within a
tenant.  Unknown envelope keys are ignored.

## Error codes
"""

TASKS_PREAMBLE = """\
## Task types

The `task` payload schema is defined by the registered
`repro.api.TaskSpec` classes, listed here in registration order.  Unknown
payload keys are ignored; missing required keys produce an
`invalid_request` error naming the field.  The `pipeline` type is the
plan-level request: the service (or cluster router) runs the streaming
flow executor over it instead of a single task.
"""


def _default_cell(field: dataclasses.Field) -> str:
    if field.default is not dataclasses.MISSING:
        return f"`{field.default!r}`"
    if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return f"`{field.default_factory()!r}`"
    return "—"


def _doc_first_paragraph(cls: type) -> str:
    doc = (cls.__doc__ or "").strip()
    if not doc:
        return ""
    paragraph = doc.split("\n\n", 1)[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def render() -> str:
    lines: list[str] = [HEADER]
    lines.append("| code | meaning |")
    lines.append("| --- | --- |")
    for code, meaning in ERROR_CODES.items():
        lines.append(f"| `{code}` | {meaning} |")
    lines.append("")
    lines.append(TASKS_PREAMBLE)
    for wire_type, spec_cls in SPEC_TYPES.items():
        lines.append(f"### `{wire_type}` — {spec_cls.__name__}")
        lines.append("")
        summary = _doc_first_paragraph(spec_cls)
        if summary:
            lines.append(summary)
            lines.append("")
        lines.append("| field | type | required | default |")
        lines.append("| --- | --- | --- | --- |")
        for field in dataclasses.fields(spec_cls):
            required = (
                field.default is dataclasses.MISSING
                and field.default_factory is dataclasses.MISSING  # type: ignore[misc]
            )
            type_cell = str(field.type).replace("|", "\\|")
            lines.append(
                f"| `{field.name}` | `{type_cell}` | "
                f"{'yes' if required else 'no'} | {_default_cell(field)} |"
            )
        lines.append("")
    lines.append(
        "See `docs/cookbook.md` for runnable request examples and "
        "`docs/architecture.md` for where the protocol sits in the stack."
    )
    lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/wire-protocol.md matches the registry; do not write",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "docs" / "wire-protocol.md"),
        help="target markdown file",
    )
    args = parser.parse_args(argv)

    target = Path(args.output)
    rendered = render()
    if args.check:
        current = target.read_text(encoding="utf-8") if target.exists() else ""
        if current != rendered:
            print(
                f"{target} is stale: the spec registry changed.\n"
                "Regenerate with: python scripts/gen_protocol_docs.py",
                file=sys.stderr,
            )
            return 1
        print(f"{target} is up to date ({len(SPEC_TYPES)} task types).")
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(rendered, encoding="utf-8")
    print(f"wrote {target} ({len(SPEC_TYPES)} task types, {len(ERROR_CODES)} error codes).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
