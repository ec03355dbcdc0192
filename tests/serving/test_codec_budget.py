"""The wire codec runs where bytes cross a process boundary, and only there.

A request is parsed once, at the door it arrives at.  Inside one process a
cluster's router hands its workers typed specs, so a whole pipeline plan —
every wave of it, on every worker — costs one ``parse_request`` and no
``encode_request``/``decode_response``.  The counts are exact: a hop that
creeps back in fails here without a timing.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "cluster"))

from cluster_testing import FULL_CONFIG, PromptPureLLM, make_pipeline_specs  # noqa: E402

from repro.api import encode_request, protocol  # noqa: E402
from repro.cluster import Router  # noqa: E402

CODEC = ("parse_request", "encode_request", "decode_response")


@pytest.fixture
def codec_calls(monkeypatch):
    """Calls of the codec functions from anywhere in ``repro``, by name."""
    counts: Counter = Counter()
    for name in CODEC:
        original = getattr(protocol, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        # Every module that imported the function holds its own binding.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)
    return counts


def test_a_plan_through_a_local_cluster_is_parsed_once(codec_calls):
    (plan,) = make_pipeline_specs(1)
    request = encode_request(plan, request_id=0)
    with Router.local(
        4, llm_factory=lambda index: PromptPureLLM(), config=FULL_CONFIG, health_interval=None
    ) as router:
        codec_calls.clear()
        (response,) = router.handle_batch([request])
        assert response["ok"], response
        assert response["result"]["answer"]["report"]["submitted"] > 4
        assert router.stats().routed == response["result"]["answer"]["report"]["submitted"]
    assert dict(codec_calls) == {"parse_request": 1}
