"""The metric catalogue of ``docs/observability.md`` is what the stack registers.

A fresh interpreter runs every component that registers series on the
default registry — a ``Client.local`` with a persistent cache over specs
and a ``PipelineSpec``, a ``Router.local(2)`` with tenancy and an SLO that
takes one join and one leave, one ``Supervisor`` pass and one
``Autoscaler`` pass — and prints the names registered.  Each name must
match a row of the catalogue (``<…>`` stands for one dotted segment), each
row must be matched by some name, and each row must name its reader.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "observability.md"

SCENARIO = """
import json, tempfile
from cluster_testing import make_mixed_specs
from repro.api import Client, PipelineSpec, encode_request
from repro.cluster import Router
from repro.cluster.autoscaler import Autoscaler
from repro.cluster.supervisor import Supervisor
from repro.obs import get_default_registry
from repro.obs.slo import SLOSpec
from repro.tenancy import TenantConfig, TenantRegistry

specs = make_mixed_specs(1)
plan = PipelineSpec(
    rows=[{"name": "ada's diner", "city": None}, {"name": "bob's grill", "city": "rome"}],
    stages=[{"op": "impute", "column": "city"}],
)
with tempfile.TemporaryDirectory() as cache_dir:
    with Client.local(seed=0, cache_dir=cache_dir + "/local") as client:
        assert all(result.error is None for result in client.submit_many(specs + [plan]))
    tenants = TenantRegistry([TenantConfig("acme", rate=1000.0)])
    slo = SLOSpec("acme-p99", kind="latency", tenant="acme", threshold=1.0)
    with Router.local(
        2, cache_dir=cache_dir + "/shards", tenants=tenants, slos=[slo], health_interval=None
    ) as router:
        requests = [
            encode_request(spec, index, tenant="acme") for index, spec in enumerate(specs + [plan])
        ]
        assert all(response["ok"] for response in router.handle_batch(requests))
        joined = router.add_worker()
        router.remove_worker(joined)
        Supervisor(router).check_once()
        Autoscaler(router, min_workers=1, max_workers=3).tick()
        router.stats_snapshot()
print(json.dumps(sorted(name for name, _ in get_default_registry().items())))
"""


def catalogue_rows() -> "list[tuple[list[str], str]]":
    """``(name patterns, read by)`` of each row of the metric catalogue."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        rows.append((re.findall(r"`([^`]+)`", cells[0]), cells[2]))
    return rows


def pattern(name: str) -> "re.Pattern[str]":
    return re.compile(r"[^.]+".join(re.escape(part) for part in re.split(r"<[^>]+>", name)))


@pytest.fixture(scope="module")
def registered() -> "list[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests" / "cluster")])
    run = subprocess.run(
        [sys.executable, "-c", SCENARIO],
        env=env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_every_registered_series_has_a_catalogue_row(registered):
    patterns = [pattern(name) for names, _ in catalogue_rows() for name in names]
    undocumented = [
        name for name in registered if not any(p.fullmatch(name) for p in patterns)
    ]
    assert not undocumented, f"registered but not in the catalogue: {undocumented}"


def test_every_catalogue_row_is_registered_and_names_its_reader(registered):
    rows = catalogue_rows()
    assert rows
    for names, read_by in rows:
        assert read_by and read_by != "-", f"row {names} names no reader"
        for name in names:
            assert any(pattern(name).fullmatch(seen) for seen in registered), (
                f"catalogue row {name!r} matches nothing the stack registers"
            )
