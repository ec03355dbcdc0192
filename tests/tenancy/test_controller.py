"""TenancyController: admission decisions, error shapes, metrics, snapshots."""

import pytest

from repro.obs import MetricsRegistry
from repro.tenancy import TenancyController, TenantConfig, TenantRegistry


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_controller(*configs, clock=None, **kwargs):
    return TenancyController(
        TenantRegistry(configs),
        clock=clock or FakeClock(),
        metrics=MetricsRegistry(),
        **kwargs,
    )


def test_admit_charges_bucket_and_inflight():
    clock = FakeClock()
    controller = make_controller(
        TenantConfig("t", rate=10.0, burst=2.0), clock=clock
    )
    assert controller.admit("t") is None
    assert controller.admit("t") is None
    error = controller.admit("t")
    assert error is not None and error.code == "rate_limited"
    assert error.details["reason"] == "rate"
    assert error.details["tenant"] == "t"
    assert error.retry_after == pytest.approx(0.1)
    clock.advance(0.1)
    assert controller.admit("t") is None


def test_inflight_cap_rejects_with_oversized_batch_exception():
    controller = make_controller(TenantConfig("t", max_inflight=2))
    # An idle tenant's batch larger than the whole cap is admitted (the
    # AdmissionController oversized-batch rule) so it cannot starve.
    assert controller.admit("t", 5) is None
    error = controller.admit("t", 1)
    assert error is not None and error.details["reason"] == "inflight"
    assert error.retry_after == controller.retry_after
    controller.release("t", 5)
    assert controller.admit("t", 2) is None
    assert controller.admit("t", 1) is not None
    controller.release("t", 2)


def test_unknown_tenants_share_the_default_state():
    controller = make_controller(
        TenantConfig("default", rate=10.0, burst=2.0)
    )
    assert controller.resolve("fresh-name-1") == "default"
    assert controller.admit("fresh-name-1") is None
    assert controller.admit("fresh-name-2") is None
    # Both charged one shared bucket: the third invented name is shed.
    error = controller.admit("fresh-name-3")
    assert error is not None and error.details["tenant"] == "default"


def test_weight_comes_from_the_resolved_config():
    controller = make_controller(TenantConfig("heavy", weight=4.0))
    assert controller.weight("heavy") == 4.0
    assert controller.weight("unknown") == 1.0
    assert controller.weight(None) == 1.0


def test_metrics_and_snapshot_reflect_admissions():
    controller = make_controller(TenantConfig("t", rate=10.0, burst=1.0))
    assert controller.admit("t") is None
    assert controller.admit("t") is not None
    controller.observe_latency("t", 0.02)
    controller.release("t")

    snapshot = controller.snapshot()
    row = snapshot["tenants"]["t"]
    assert row["admitted"] == 1
    assert row["rate_limited"] == 1
    assert row["inflight"] == 0
    assert "tokens" in row
    # Configured-but-idle tenants still appear (with zeroed state).
    assert snapshot["tenants"]["default"]["admitted"] == 0
    assert "tokens" not in snapshot["tenants"]["default"]

    narrowed = controller.snapshot("t")
    assert list(narrowed["tenants"]) == ["t"]
    # Unknown names narrow to the default row.
    assert list(controller.snapshot("invented")["tenants"]) == ["default"]


def test_rejection_details_carry_the_tenant_state():
    controller = make_controller(TenantConfig("t", rate=5.0, burst=2.0, max_inflight=9))
    controller.admit("t", 2)
    error = controller.admit("t", 1)
    assert error.details == {
        "tenant": "t",
        "reason": "rate",
        "requests": 1,
        "rate": 5.0,
        "burst": 2.0,
        "max_inflight": 9,
        "inflight": 2,
    }


def test_retry_after_validation():
    with pytest.raises(ValueError):
        TenancyController(retry_after=-0.1)


def test_a_reset_keeps_a_tenants_inflight_gauge_at_its_level():
    registry = MetricsRegistry()
    controller = TenancyController(
        TenantRegistry([TenantConfig("t", max_inflight=4)]), clock=FakeClock(), metrics=registry
    )
    assert controller.admit("t", 3) is None
    registry.reset()
    gauge = registry.gauge("tenant.t.inflight")
    assert gauge.value == 3
    controller.release("t", 3)
    assert gauge.value == 0
