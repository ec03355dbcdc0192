"""Tenancy through the wire: envelope echo, structured sheds, client retries."""

import time

import pytest

from repro.api import Client, ProtocolError, RateLimitedError, TransformationSpec
from repro.api.protocol import encode_request, parse_request
from repro.obs import MetricsRegistry
from repro.serving.service import ServingService
from repro.core import UniDM, UniDMConfig
from repro.llm import CachedLLM, SimulatedLLM
from repro.tenancy import TenantConfig, TenantRegistry

SPEC = TransformationSpec(value="19990415", examples=[["20000101", "2000-01-01"]])


def unique_spec(tag):
    return TransformationSpec(value=f"1999041{tag}", examples=[["20000101", "2000-01-01"]])


def make_service(tenants, **kwargs):
    registry = MetricsRegistry()
    pipeline = UniDM(CachedLLM(SimulatedLLM(seed=0)), UniDMConfig.full(seed=0))
    return ServingService(pipeline, metrics=registry, tenants=tenants, **kwargs)


# ------------------------------------------------------------------- envelope
def test_v2_envelope_carries_and_echoes_the_tenant():
    request = encode_request(SPEC, request_id=1, tenant="gold")
    assert request["tenant"] == "gold"
    assert parse_request(request).tenant == "gold"

    service = make_service(TenantRegistry([TenantConfig("gold")]))
    response = service.handle_request(request)
    assert response["ok"] is True
    assert response["tenant"] == "gold"


def test_non_string_tenant_is_a_protocol_error():
    request = encode_request(SPEC, request_id=1)
    request["tenant"] = 7
    with pytest.raises(ProtocolError) as excinfo:
        parse_request(request)
    assert excinfo.value.info.field == "tenant"


def test_untagged_requests_ride_the_default_tenant():
    service = make_service(
        TenantRegistry([TenantConfig("default", rate=1.0, burst=1.0)])
    )
    first = service.handle_request(encode_request(SPEC, request_id=1))
    second = service.handle_request(encode_request(SPEC, request_id=2))
    assert first["ok"] is True
    assert second["ok"] is False
    assert second["error"]["code"] == "rate_limited"
    assert second["error"]["details"]["tenant"] == "default"


def test_rate_limited_wire_shape_and_unwrap():
    service = make_service(
        TenantRegistry([TenantConfig("t", rate=1.0, burst=1.0)])
    )
    service.handle_request(encode_request(SPEC, request_id=1, tenant="t"))
    shed = service.handle_request(encode_request(SPEC, request_id=2, tenant="t"))
    assert shed["ok"] is False
    assert shed["tenant"] == "t"
    error = shed["error"]
    assert error["code"] == "rate_limited"
    assert error["retry_after"] > 0
    assert error["details"]["reason"] == "rate"

    from repro.api.protocol import decode_response

    result = decode_response(shed)
    assert result.tenant == "t"
    with pytest.raises(RateLimitedError) as excinfo:
        result.unwrap()
    assert excinfo.value.retry_after > 0


def test_mixed_tenant_batch_sheds_only_the_offender():
    service = make_service(
        TenantRegistry(
            [TenantConfig("good", rate=100.0, burst=50.0),
             TenantConfig("bad", rate=1.0, burst=1.0)]
        )
    )
    # Spend the offender's only token so its bucket is no longer full (a
    # full bucket would admit even an oversized group, at a debt).
    service.handle_request(encode_request(unique_spec(9), request_id=9, tenant="bad"))
    batch = [
        encode_request(unique_spec(0), request_id=0, tenant="good"),
        encode_request(unique_spec(1), request_id=1, tenant="bad"),
        encode_request(unique_spec(2), request_id=2, tenant="bad"),
        encode_request(unique_spec(3), request_id=3, tenant="good"),
    ]
    responses = service.handle_batch(batch)
    by_id = {response["id"]: response for response in responses}
    assert by_id[0]["ok"] and by_id[3]["ok"]
    # The offender's group of 2 cannot afford the drained bucket; it is
    # shed while the other tenant's work in the same batch is untouched.
    assert not by_id[1]["ok"] and not by_id[2]["ok"]
    assert by_id[1]["error"]["code"] == "rate_limited"


def test_tenant_metrics_and_stats_narrowing():
    service = make_service(
        TenantRegistry([TenantConfig("t", rate=1.0, burst=1.0)])
    )
    service.handle_request(encode_request(SPEC, request_id=1, tenant="t"))
    service.handle_request(encode_request(SPEC, request_id=2, tenant="t"))
    snapshot = service.stats_snapshot(tenant="t")
    assert snapshot["metrics"]["counters"] == {
        "tenant.t.admitted": 1,
        "tenant.t.rate_limited": 1,
    }
    assert snapshot["metrics"]["histograms"]["tenant.t.latency"]["count"] == 1
    assert snapshot["tenancy"]["tenants"]["t"]["admitted"] == 1
    # The un-narrowed snapshot reports every tenant.
    assert "default" in service.stats_snapshot()["tenancy"]["tenants"]


def test_tenancy_off_means_no_tenancy_section_or_limits():
    service = make_service(None)
    response = service.handle_request(encode_request(SPEC, request_id=1, tenant="x"))
    assert response["ok"] is True
    assert response["tenant"] == "x"  # echoed even without enforcement
    assert "tenancy" not in service.stats_snapshot()


# --------------------------------------------------------------------- client
def test_client_submit_tenant_and_stats_narrowing():
    tenants = TenantRegistry([TenantConfig("gold", weight=2.0, rate=100.0)])
    with Client.local(seed=0, tenants=tenants) as client:
        result = client.submit(SPEC, tenant="gold")
        assert result.ok and result.tenant == "gold"
        snapshot = client.stats(tenant="gold")
        assert list(snapshot["tenancy"]["tenants"]) == ["gold"]


def test_client_retries_honor_retry_after():
    tenants = TenantRegistry([TenantConfig("t", rate=20.0, burst=1.0)])
    with Client.local(seed=0, tenants=tenants) as client:
        client.submit_many([unique_spec(0)], tenant="t")
        started = time.monotonic()
        results = client.submit_many([unique_spec(1)], tenant="t", retries=3)
        elapsed = time.monotonic() - started
        assert results[0].ok
        # One token every 50ms: success required waiting for the refill.
        assert elapsed >= 0.01


def test_client_retries_give_up_after_the_budget():
    tenants = TenantRegistry([TenantConfig("t", rate=0.001, burst=1.0)])
    with Client.local(seed=0, tenants=tenants) as client:
        client.submit_many([unique_spec(0)], tenant="t")
        results = client.submit_many([unique_spec(1)], tenant="t", retries=0)
        assert not results[0].ok
        assert results[0].error.code == "rate_limited"


def test_client_async_retries():
    import asyncio

    tenants = TenantRegistry([TenantConfig("t", rate=20.0, burst=1.0)])
    with Client.local(seed=0, tenants=tenants) as client:
        asyncio.run(client.asubmit_many([unique_spec(0)], tenant="t"))
        results = asyncio.run(
            client.asubmit_many([unique_spec(1)], tenant="t", retries=3)
        )
        assert results[0].ok
