"""The ceiling formula on cases with a closed form."""

import pytest

from bench.model import ceiling


def test_one_client_c_round_trips_of_l_seconds():
    # 1 client, 1 spec a call, c dependent round trips of L seconds: 1/(cL).
    top = ceiling(0.010, 4.0)
    assert top.overlap == 1
    assert top.specs_per_s == pytest.approx(1 / (4 * 0.010))
    assert top.efficiency(12.5) == pytest.approx(0.5)


def test_n_overlapping_workers_multiply_the_ceiling():
    top = ceiling(0.010, 4.0, workers=4, clients=2, specs_per_call=16)
    assert top.overlap == 4
    assert top.specs_per_s == pytest.approx(4 / (4 * 0.010))


def test_llm_threads_overlap_like_workers():
    assert ceiling(0.010, 2.0, llm_threads=3, clients=8).specs_per_s == pytest.approx(150.0)


def test_offered_load_caps_the_overlap():
    # Four workers cannot overlap more round trips than the specs in flight.
    top = ceiling(0.010, 4.0, workers=4, clients=2, specs_per_call=1)
    assert top.overlap == 2
    assert top.specs_per_s == pytest.approx(2 / (4 * 0.010))


def test_fewer_round_trips_raise_the_ceiling():
    assert ceiling(0.010, 2.0).specs_per_s == 2 * ceiling(0.010, 4.0).specs_per_s


@pytest.mark.parametrize("latency, round_trips", [(0.0, 3.0), (0.010, 0.0)])
def test_no_backend_time_is_cpu_bound_not_a_division_by_zero(latency, round_trips):
    top = ceiling(latency, round_trips, workers=4)
    assert top.cpu_bound
    assert top.specs_per_s is None
    assert top.efficiency(500.0) is None


def test_rejects_a_configuration_that_cannot_run():
    with pytest.raises(ValueError):
        ceiling(0.010, 1.0, workers=0)
