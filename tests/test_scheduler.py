import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptunnel.engine import Simulation
from mptunnel.flow import Flow, TunnelPacket
from mptunnel.reorder import RECEIVERS
from mptunnel.scenario import SchedulerConfig, parse_scenario, problems
from mptunnel.scheduler import SCHEDULERS, FixedRatio, Otias, otias_eta


def view(path_id=0, srtt=20_000.0, rttvar=0.0, cwnd=10.0, in_flight=0,
         queue=0, cost=0.0):
    """A flow in the given state, as the scheduler reads it in a run."""
    flow = Flow(path_id, srtt, None, cost)
    flow.rttvar_us = rttvar
    flow.cwnd = cwnd
    flow.in_flight = in_flight
    flow.send_queue.extend(TunnelPacket(i, 1000, 0) for i in range(queue))
    return flow


def picks(sched, views, n):
    return [sched.pick(views, i) for i in range(n)]


def registered(kind, n_paths=2, weights=None):
    """The scheduler a run of this kind over n_paths paths picks with, built
    from the run's ScenarioConfig."""
    scheduler = {"kind": kind} if weights is None else {"kind": kind, "weights": weights}
    return SCHEDULERS[kind].factory(parse_scenario({
        "duration_s": 1, "seed": 2,
        "paths": [{"path_id": i, "one_way_latency_us": 10_000, "bandwidth_bps": 10_000_000}
                  for i in range(n_paths)],
        "traffic": {"kind": "cbr", "rate_bps": 1_000_000, "packet_size_bytes": 1000},
        "scheduler": scheduler, "reorder": {"kind": "none"}}))


# -- round robin ---------------------------------------------------------------


def test_round_robin_two_paths():
    assert picks(registered("round_robin", 2), [view(0), view(1)], 4) == [0, 1, 0, 1]


def test_round_robin_single_path():
    assert picks(registered("round_robin", 1), [view(0)], 5) == [0] * 5


def test_round_robin_three_paths():
    vs = [view(0), view(1), view(2)]
    assert picks(registered("round_robin", 3), vs, 7) == [0, 1, 2, 0, 1, 2, 0]


def test_round_robin_exact_share_property():
    vs = [view(i) for i in range(4)]
    seq = picks(registered("round_robin", 4), vs, 4 * 13)
    for p in range(4):
        assert seq.count(p) == 13


# -- fixed ratio ---------------------------------------------------------------


def test_fixed_ratio_80_20():
    seq = picks(FixedRatio([80, 20]), [view(0), view(1)], 10)
    assert seq.count(0) == 8
    assert seq.count(1) == 2


def test_fixed_ratio_unit_weights_reduce_to_round_robin():
    assert picks(FixedRatio([1, 1]), [view(0), view(1)], 6) == [0, 1, 0, 1, 0, 1]


def test_fixed_ratio_3_1():
    seq = picks(FixedRatio([3, 1]), [view(0), view(1)], 8)
    assert seq.count(0) == 6
    assert seq.count(1) == 2


def test_fixed_ratio_exact_counts_over_any_window():
    weights = [5, 2, 1]
    total = sum(weights)
    seq = picks(FixedRatio(weights), [view(i) for i in range(3)], total * 6)
    for start in range(len(seq) - total):
        window = seq[start:start + total]
        for p, w in enumerate(weights):
            assert window.count(p) == w


def test_fixed_ratio_prefix_share_within_one_packet():
    weights = [4, 1]
    total = sum(weights)
    seq = picks(FixedRatio(weights), [view(0), view(1)], 200)
    for n in range(1, len(seq) + 1):
        for p, w in enumerate(weights):
            assert abs(seq[:n].count(p) - n * w / total) <= 1.0


class KeyedFixedRatio:
    """FixedRatio's pick by its definition: the highest credit, ties to the
    lowest index, by a key over every index."""

    def __init__(self, weights):
        self.weights, self.credits = weights, [0] * len(weights)

    def pick(self, views, now):
        for i, w in enumerate(self.weights):
            self.credits[i] += w
        best = max(range(len(self.credits)), key=lambda i: (self.credits[i], -i))
        self.credits[best] -= sum(self.weights)
        return best


# The last weight repeats the first, so two paths earn equal credit.
TIED_WEIGHTS = st.lists(st.integers(0, 3), min_size=1, max_size=5).map(
    lambda w: w + w[:1]).filter(any)


@settings(max_examples=200)
@given(weights=TIED_WEIGHTS, n=st.integers(1, 60))
def test_fixed_ratio_matches_keyed_pick(weights, n):
    vs = [view(i) for i in range(len(weights))]
    assert picks(FixedRatio(weights), vs, n) == picks(KeyedFixedRatio(weights), vs, n)


@pytest.mark.parametrize("weights", [[9, 1], [3, 0, 2], [5, 7, 11]])
def test_fixed_ratio_repeats_every_weight_total(weights):
    total, vs = sum(weights), [view(i) for i in range(len(weights))]
    keyed, defined = KeyedFixedRatio(weights), []
    for _ in range(3):
        defined += picks(keyed, vs, total)
        assert keyed.credits == [0] * len(weights)
    assert defined[total:] == defined[:-total]
    assert picks(FixedRatio(weights), vs, 3 * total) == defined


def test_fixed_ratio_keeps_only_the_picks_made():
    tracemalloc.start()
    try:
        picks(FixedRatio([10**12, 1]), [view(0), view(1)], 1_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"1,000 picks peak at {peak} bytes"


def test_fixed_ratio_rejects_all_zero():
    with pytest.raises(ValueError):
        FixedRatio([0, 0])


def test_fixed_ratio_config_validation_names_weights():
    found = problems(SchedulerConfig("fixed_ratio", weights=[0, 0]))
    assert any("weights" in p for p in found)


# -- cheapest pipe first and srtt ---------------------------------------------------


def test_cheapest_prefers_low_cost_with_room():
    vs = [view(0, cost=1.0), view(1, cost=10.0)]
    assert registered("cheapest_pipe_first").pick(vs, 0) == 0


def test_cheapest_spills_when_cheap_window_full():
    vs = [view(0, cost=1.0, cwnd=4.0, in_flight=4), view(1, cost=10.0)]
    assert registered("cheapest_pipe_first").pick(vs, 0) == 1


def test_cheapest_tie_breaks_on_path_id():
    vs = [view(0, cost=3.0), view(1, cost=3.0)]
    assert registered("cheapest_pipe_first").pick(vs, 0) == 0


def test_cheapest_falls_back_to_cheapest_when_all_full():
    vs = [view(0, cost=5.0, cwnd=2.0, in_flight=2),
          view(1, cost=1.0, cwnd=2.0, queue=3)]
    assert registered("cheapest_pipe_first").pick(vs, 0) == 1


def test_srtt_prefers_lower_rtt():
    vs = [view(0, srtt=10_000), view(1, srtt=20_000)]
    assert registered("srtt").pick(vs, 0) == 0


def test_srtt_switches_after_latency_event():
    vs = [view(0, srtt=100_000), view(1, srtt=20_000)]
    assert registered("srtt").pick(vs, 0) == 1


def test_srtt_respects_window_availability():
    vs = [view(0, srtt=10_000, cwnd=2.0, in_flight=2), view(1, srtt=20_000)]
    assert registered("srtt").pick(vs, 0) == 1


@pytest.mark.parametrize("kind, key", [
    ("cheapest_pipe_first", lambda v: (v.cost, v.path_id)),
    ("srtt", lambda v: (v.srtt_us, v.path_id)),
], ids=["cheapest_pipe_first", "srtt"])
def test_argmin_with_room_over_random_snapshots(kind, key):
    rng = random.Random(3)
    sched = registered(kind)
    for _ in range(300):
        vs = [view(i, srtt=rng.randrange(1, 200_000),
                   cwnd=rng.randrange(1, 12),
                   in_flight=rng.randrange(0, 12),
                   queue=rng.randrange(0, 4),
                   cost=float(rng.randrange(0, 4)))
              for i in range(rng.randrange(1, 5))]
        got = sched.pick(vs, 0)
        available = [v for v in vs if v.in_flight + len(v.send_queue) < v.cwnd]
        pool = available if available else vs
        assert got == min(pool, key=key).path_id


# -- otias ------------------------------------------------------------------------


def drain_oracle(queue, in_flight, cwnd, srtt):
    """Brute-force drain: the whole window is acked once per round trip and
    the queue refills from the front; report when the probe packet (appended
    last) reaches the wire, plus half a round trip to arrive."""
    backlog = queue + 1            # probe sits at the back of the send queue
    rounds = 0
    room = max(0, int(math.floor(cwnd)) - in_flight)
    while backlog > room:
        backlog -= room            # transmit what fits, wait one round trip
        rounds += 1
        room = int(math.floor(cwnd))
    return rounds * srtt + srtt / 2


def test_otias_eta_zero_wait():
    assert otias_eta(view(0, srtt=20_000, cwnd=10.0)) == 10_000


def test_otias_eta_one_round():
    v = view(0, srtt=20_000, cwnd=10.0, in_flight=10, queue=9)
    assert otias_eta(v) == 30_000
    assert otias_eta(v) == drain_oracle(9, 10, 10.0, 20_000)


def test_otias_eta_three_rounds():
    v = view(0, srtt=20_000, cwnd=10.0, in_flight=10, queue=25)
    assert otias_eta(v) == 70_000
    assert otias_eta(v) == drain_oracle(25, 10, 10.0, 20_000)


def test_otias_eta_matches_drain_oracle_on_grid():
    for cwnd in (1, 2, 5, 10):
        for in_flight in range(0, cwnd + 1):
            for queue in (0, 1, cwnd - 1, cwnd, 2 * cwnd + 3):
                v = view(0, srtt=40_000, cwnd=float(cwnd),
                         in_flight=in_flight, queue=queue)
                assert otias_eta(v) == drain_oracle(queue, in_flight,
                                                    float(cwnd), 40_000)


def test_otias_picks_lower_latency_when_idle():
    vs = [view(0, srtt=10_000), view(1, srtt=50_000)]
    assert Otias().pick(vs, 0) == 0


def test_otias_switches_when_queue_grows():
    # path 0's backlog pushes its eta past path 1's half-RTT
    vs = [view(0, srtt=10_000, cwnd=2.0, in_flight=2, queue=6),
          view(1, srtt=50_000)]
    assert otias_eta(vs[0]) > otias_eta(vs[1])
    assert Otias().pick(vs, 0) == 1


def test_otias_tie_breaks_on_path_id():
    vs = [view(0, srtt=30_000), view(1, srtt=30_000)]
    assert Otias().pick(vs, 0) == 0


def test_otias_lists_the_etas_each_pick_moved():
    sched = Otias()
    vs = [view(0, srtt=10_000), view(1, srtt=50_000)]
    sched.pick(vs, 0)
    assert (sched.etas, sched.moved) == ([5_000, 25_000], [0, 1])
    vs[1].srtt_us = 30_000
    sched.pick(vs, 0, {0, 1})
    assert (sched.etas, sched.moved) == ([5_000, 15_000], [1])


def test_otias_pick_is_argmin_over_random_snapshots():
    rng = random.Random(11)
    sched = Otias()
    for _ in range(300):
        vs = [view(i, srtt=rng.randrange(1, 300_000),
                   cwnd=float(rng.randrange(1, 20)),
                   in_flight=rng.randrange(0, 20),
                   queue=rng.randrange(0, 60))
              for i in range(rng.randrange(1, 5))]
        got = sched.pick(vs, 0)
        etas = [otias_eta(v) for v in vs]
        best = min(range(len(vs)), key=lambda i: (etas[i], vs[i].path_id))
        assert got == vs[best].path_id


# -- registry and determinism -----------------------------------------------------


def test_every_registered_plugin_runs():
    base = {
        "duration_s": 1,
        "seed": 2,
        "paths": [
            {"path_id": 0, "one_way_latency_us": 10_000, "bandwidth_bps": 10_000_000},
            {"path_id": 1, "one_way_latency_us": 30_000, "bandwidth_bps": 10_000_000},
        ],
        "traffic": {"kind": "cbr", "rate_bps": 1_000_000, "packet_size_bytes": 1000},
        "scheduler": {"kind": "round_robin"},
        "reorder": {"kind": "none"},
    }
    kinds = [("scheduler", k) for k in SCHEDULERS] + [("reorder", k) for k in RECEIVERS]
    for table, kind in kinds:
        data = dict(base, **{table: {"kind": kind}})
        if kind == "fixed_ratio":
            data[table]["weights"] = [2, 1]
        log = Simulation(parse_scenario(data)).run()
        assert log.ingress_count == 125, kind
        assert log.ingress_count == (len(log.deliveries) + len(log.drops)
                                     + len(log.discards)), kind
        assert log.drained, kind


def test_schedulers_are_deterministic_given_same_state():
    vs = [view(0, srtt=30_000, queue=2), view(1, srtt=40_000)]
    for kind in sorted(SCHEDULERS):
        weights = [2, 1] if kind == "fixed_ratio" else None
        a = picks(registered(kind, weights=weights), vs, 12)
        b = picks(registered(kind, weights=weights), vs, 12)
        assert a == b, kind
