import pytest

from mptunnel.engine import Simulation
from mptunnel.scenario import (LatencyStep, PathModel, TrafficSource, parse_scenario,
                               problems)
from mptunnel.simcore import (ACK, ARRIVAL, LATENCY_STEP, RECEIVER, SOURCE, TIMER, EventQueue,
                              PastEventError, PathState, serialization_us)


def test_serialization_exact_values():
    assert serialization_us(1500, 10_000_000) == 1200
    assert serialization_us(1000, 1_000_000) == 8000
    assert serialization_us(1000, 10_000_000) == 800


def run_queue(q: EventQueue) -> None:
    while (item := q.pop()) is not None:
        at, _, _, fn, arg = item
        fn(arg, at)


def test_queue_single_element_pops():
    q = EventQueue()
    fired = []
    q.schedule(0, SOURCE, lambda arg, t: fired.append((arg, t)), "x")
    at, rank, _, fn, arg = q.pop()
    assert rank == SOURCE
    fn(arg, at)
    assert fired == [("x", 0)]
    assert q.pop() is None


def test_queue_fifo_tie_break():
    q = EventQueue()
    fired = []
    record = lambda arg, t: fired.append(arg)  # noqa: E731
    q.schedule(5, ACK, record, "a")
    q.schedule(5, ACK, record, "b")
    q.schedule(4, ACK, record, "c")
    run_queue(q)
    assert fired == ["c", "a", "b"]


def test_queue_same_time_events_pop_by_rank_whatever_their_insertion_order():
    ranks = (LATENCY_STEP, ACK, ARRIVAL, TIMER, RECEIVER, SOURCE)
    assert sorted(ranks) == list(ranks) == list(range(6))
    fired = []
    record = lambda arg, t: fired.append(arg)  # noqa: E731
    for order in (ranks, ranks[::-1], ranks[2:] + ranks[:2]):
        q = EventQueue()
        fired.clear()
        for rank in order:
            q.schedule(7, rank, record, (rank, 0))
            q.schedule(7, rank, record, (rank, 1))
        q.schedule(6, SOURCE, record, "earlier")
        run_queue(q)
        assert fired == ["earlier"] + [(rank, i) for rank in ranks for i in (0, 1)]


def test_queue_runs_a_lower_rank_scheduled_at_the_current_time_next():
    # On a zero-latency path an arrival schedules its ack at its own µs:
    # the ack ranks lower than the arrival still queued there, so it runs
    # before it, and scheduling at the current µs is not in the past.
    q, fired = EventQueue(), []
    record = lambda arg, t: fired.append(arg)  # noqa: E731

    def arrive(name, t):
        fired.append(name)
        q.schedule(t, ACK, record, "ack " + name)

    q.schedule(3, ARRIVAL, arrive, "p0")
    q.schedule(3, ARRIVAL, arrive, "p1")
    q.schedule(3, TIMER, record, "timer")
    run_queue(q)
    assert fired == ["p0", "ack p0", "p1", "ack p1", "timer"]
    assert q.now == 3


def test_queue_rejects_past_events():
    q = EventQueue()
    q.schedule(4, SOURCE, print)
    q.pop()
    assert q.now == 4
    q.schedule(4, LATENCY_STEP, print)  # the current µs is not the past
    for rank in (LATENCY_STEP, SOURCE):
        with pytest.raises(PastEventError):
            q.schedule(3, rank, print)


def test_path_transmit_delivery_time():
    # 1500 bytes at 10 Mbps is 1.2 ms serialization plus 10 ms latency.
    p = PathState(PathModel(0, 10_000, 10_000_000), seed=1, size_bytes=1500)
    assert p.transmit(0) == 11_200


def test_path_transmit_certain_loss():
    p = PathState(PathModel(0, 10_000, 10_000_000, loss_rate=1.0), seed=1, size_bytes=1500)
    assert p.transmit(0) is None
    # the lost packet still occupied the link
    assert p.busy_until_us == 1200


def test_path_back_to_back_serialization_spacing():
    p = PathState(PathModel(0, 10_000, 10_000_000), seed=1, size_bytes=1500)
    first = p.transmit(0)
    second = p.transmit(0)
    assert second - first == 1200


def test_path_latency_step_spares_in_flight():
    p = PathState(PathModel(0, 0, 10_000_000), seed=1, size_bytes=1500)
    in_flight = p.transmit(0)
    p.current_latency_us = 40_000
    later = p.transmit(2000)
    assert in_flight == 1200          # kept its old zero-latency delivery
    assert later == 2000 + 1200 + 40_000


def test_path_latency_step_to_same_value_is_identity():
    p = PathState(PathModel(0, 10_000, 10_000_000), seed=1, size_bytes=1000)
    before = p.transmit(0)
    p.current_latency_us = 10_000
    after = p.transmit(100_000)
    assert after - 100_000 == before  # identical delay profile


def test_path_loss_sequence_is_per_path_and_seeded():
    model = PathModel(0, 0, 1_000_000, loss_rate=0.5)
    draws_a = [PathState(model, seed=9, size_bytes=100).transmit(i * 1000) for i in range(50)]
    draws_b = [PathState(model, seed=9, size_bytes=100).transmit(i * 1000) for i in range(50)]
    assert [d is None for d in draws_a] == [d is None for d in draws_b]


def test_cbr_emission_schedule_is_exact():
    log = Simulation(parse_scenario({
        "name": "cbr-schedule", "duration_s": 10, "seed": 1,
        "paths": [{"path_id": 0, "one_way_latency_us": 10_000, "bandwidth_bps": 10_000_000}],
        "traffic": {"kind": "cbr", "rate_bps": 1_000_000, "packet_size_bytes": 1000},
        "scheduler": {"kind": "round_robin"}, "reorder": {"kind": "none"},
    })).run()
    times = list(log.decisions.column(0))
    assert times[:4] == [0, 8000, 16000, 24000]
    # 1 Mbps of 1000-byte packets over 10 s emits exactly 1250 packets
    assert len(times) == 1250


def test_traffic_validation():
    assert problems(TrafficSource("cbr", 1000, rate_bps=0))
    assert problems(TrafficSource("warp", 1000))
    assert not problems(TrafficSource("greedy", 1000))


def test_path_model_validation():
    bad = PathModel(0, -1, 0, loss_rate=2.0,
                    latency_steps=[LatencyStep(5, 1), LatencyStep(5, 2)])
    assert len(problems(bad)) == 4
    assert not problems(PathModel(0, 10_000, 1_000_000))
