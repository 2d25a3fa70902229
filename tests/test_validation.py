"""Whole runs against closed forms: what the path model, a greedy flow, the
resequencer and the fixed-ratio schedulers promise, derived from their definitions
rather than fitted to a run. Each test first checks that its run meets the
premises of its closed form, and that the property has something to show."""

import pytest

from mptunnel.engine import Simulation
from mptunnel.scenario import parse_scenario
from mptunnel.simcore import serialization_us


def run(paths, rate_bps, scheduler, reorder, packet_size_bytes=1000, duration_s=3):
    cfg = parse_scenario({
        "name": "validation", "duration_s": duration_s, "seed": 3,
        "paths": [{"path_id": i, **path} for i, path in enumerate(paths)],
        "traffic": {"kind": "cbr", "rate_bps": rate_bps,
                    "packet_size_bytes": packet_size_bytes},
        "scheduler": scheduler,
        "reorder": reorder,
    })
    return Simulation(cfg).run()


# (one-way latency, bandwidth, packet size, CBR interval): the interval is
# above the round trip, so each packet is acked before the next is sent,
# and the serialization delay need not be a whole number of µs (1000 B at
# 3 Mbps is 2,666.7 µs, rounded up).
SINGLE_PATH = [(10_000, 10_000_000, 1000, 40_000),
               (10_000, 3_000_000, 1000, 25_000),
               (1, 1_000_000, 1500, 13_000),
               (150_000, 50_000_000, 64, 301_000)]


@pytest.mark.parametrize("latency_us, bandwidth_bps, size, interval_us", SINGLE_PATH)
def test_cbr_below_capacity_arrives_after_serialization_plus_latency(
        latency_us, bandwidth_bps, size, interval_us):
    tx_us = serialization_us(size, bandwidth_bps)
    assert interval_us > 2 * latency_us + tx_us
    log = run([{"one_way_latency_us": latency_us, "bandwidth_bps": bandwidth_bps}],
              size * 8 * 1_000_000 // interval_us, {"kind": "round_robin"},
              {"kind": "none"}, packet_size_bytes=size)
    # Premises: no loss, no packet waits for the window or the link.
    assert log.ingress_count > 5 and not log.drops
    assert len(log.arrivals) == len(log.sends) == log.ingress_count
    assert set(log.flow_rows.column(5)) == {0}
    assert [t for t, *_ in log.sends] == list(log.arrivals.column(3))
    assert {t - ingress for t, _, _, ingress in log.arrivals} == {tx_us + latency_us}


def test_greedy_path_keeps_its_link_busy_once_the_window_exceeds_the_bdp():
    # One loss-free greedy path: once the window holds more packets than one
    # round trip of the link carries (the bandwidth-delay product), the link
    # never idles, so packets arrive exactly one serialization delay apart:
    # 8 ms for 1,000 B at 1 Mbps, 125 per second.
    latency_us, tx_us = 20_000, serialization_us(1000, 1_000_000)
    cfg = parse_scenario({
        "name": "validation", "duration_s": 4, "seed": 3,
        "paths": [{"path_id": 0, "one_way_latency_us": latency_us,
                   "bandwidth_bps": 1_000_000}],
        "traffic": {"kind": "greedy", "packet_size_bytes": 1000},
        "scheduler": {"kind": "round_robin"},
    })
    sim = Simulation(cfg)
    log = sim.run()
    assert tx_us == 8_000 and not log.drops and sim.flows[0].packets_lost == 0
    bdp = (tx_us + 2 * latency_us) / tx_us
    full = next(t for t, _, _, cwnd, _, _ in log.flow_rows if cwnd > bdp)
    times = [t for t, _, _, ingress in log.arrivals if ingress >= full]
    assert full < 1_000_000 and len(times) > 375
    assert {later - earlier for earlier, later in zip(times, times[1:])} == {tx_us}
    assert sum(1_000_000 <= t < 4_000_000 for t in log.arrivals.column(0)) == 375


# Fast path 5 ms, slow path 30 ms one way, so the skew is 25 ms. At a CBR
# interval of 12.5 ms, 4 of 5 packets take the fast path and the next one
# overtakes each slow one. Each path's packets are spaced above its round
# trip (12.5 ms against 10.8 on the fast path, 62.5 against 60.8 on the
# slow one), so neither window ever holds a packet back.
SKEW_US = 25_000
SKEWED_PATHS = [{"one_way_latency_us": 5_000, "bandwidth_bps": 10_000_000},
                {"one_way_latency_us": 5_000 + SKEW_US, "bandwidth_bps": 10_000_000}]


def static_run(threshold_us: int):
    return run(SKEWED_PATHS, 640_000, {"kind": "fixed_ratio", "weights": [4, 1]},
               {"kind": "static", "static_threshold_us": threshold_us})


@pytest.mark.parametrize("threshold_us", [SKEW_US, SKEW_US + 1, 2 * SKEW_US])
def test_static_threshold_at_least_the_skew_delivers_all_in_order(threshold_us):
    log = static_run(threshold_us)
    # Premises: no loss, nothing queued at the sender, and overtaking.
    assert not log.drops and set(log.flow_rows.column(5)) == {0}
    seqs = list(log.arrivals.column(1))
    assert seqs != sorted(seqs)
    assert any(log.deliveries.column(3)), "the resequencer held nothing"
    assert list(log.deliveries.column(1)) == list(range(log.ingress_count))
    assert set(log.deliveries.column(4)) == {"inorder"}
    assert log.timeout_gaps == 0


def test_static_threshold_below_the_skew_gives_up_gaps():
    # The same run with a threshold short of the 12.5 ms that each packet
    # overtaking a slow one waits: the property above is not one that every
    # threshold meets.
    log = static_run(SKEW_US // 5)
    assert log.timeout_gaps > 0
    assert {"timeout", "late"} <= set(log.deliveries.column(4))


# Three lossy paths of unequal latency: the fixed-ratio schedulers never
# read the network, so their shares hold whatever it does.
LOSSY_PATHS = [{"one_way_latency_us": 5_000 + 20_000 * i, "bandwidth_bps": 10_000_000,
                "loss_rate": 0.05} for i in range(3)]


def windows(log, size: int) -> list[list[int]]:
    """The run's picks in aligned windows of size, the last one full."""
    picks = list(log.decisions.column(2))
    return [picks[k:k + size] for k in range(0, len(picks) - size + 1, size)]


@pytest.mark.parametrize("weights", [[3, 1], [4, 1], [5, 0, 2]])
def test_fixed_ratio_gives_each_path_its_weight_in_every_window(weights):
    total = sum(weights)
    log = run(LOSSY_PATHS[:len(weights)], 640_000,
              {"kind": "fixed_ratio", "weights": weights}, {"kind": "none"})
    # Premises: one pick per ingress packet, in ingress order, over many
    # windows, on a network that lost packets.
    assert list(log.decisions.column(1)) == list(range(log.ingress_count))
    assert len(windows(log, total)) >= 20 and log.drops
    for window in windows(log, total):
        assert [window.count(p) for p in range(len(weights))] == weights


@pytest.mark.parametrize("n_paths", [1, 2, 3])
def test_round_robin_picks_every_path_once_in_every_window(n_paths):
    log = run(LOSSY_PATHS[:n_paths], 640_000, {"kind": "round_robin"}, {"kind": "none"})
    assert list(log.decisions.column(1)) == list(range(log.ingress_count))
    assert len(windows(log, n_paths)) >= 20
    for window in windows(log, n_paths):
        assert sorted(window) == list(range(n_paths))
