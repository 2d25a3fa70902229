import gc
import weakref

import pytest

from mptunnel import engine, metrics
from mptunnel.engine import Simulation
from mptunnel.flow import Flow
from mptunnel.scenario import ScenarioError, parse_scenario
from mptunnel.simcore import LatencyStep


def scenario(**overrides):
    data = {
        "name": "engine-test",
        "duration_s": 5,
        "seed": 3,
        "paths": [
            {"path_id": 0, "one_way_latency_us": 10_000, "bandwidth_bps": 10_000_000},
            {"path_id": 1, "one_way_latency_us": 20_000, "bandwidth_bps": 10_000_000},
        ],
        "traffic": {"kind": "cbr", "rate_bps": 1_000_000, "packet_size_bytes": 1000},
        "scheduler": {"kind": "round_robin"},
        "reorder": {"kind": "none"},
    }
    data.update(overrides)
    return parse_scenario(data)


def test_empty_scenario_produces_empty_log():
    cfg = scenario()
    cfg.traffic.start_us = cfg.duration_us   # traffic never starts
    log = Simulation(cfg).run()
    assert log.ingress_count == 0
    assert log.deliveries == []


def test_cbr_emits_exact_packet_count():
    cfg = scenario(duration_s=10)
    log = Simulation(cfg).run()
    assert log.ingress_count == 1250


def test_malformed_scenario_rejected_before_running():
    cfg = scenario()
    cfg.duration_s = -1
    with pytest.raises(ScenarioError):
        Simulation(cfg)


def test_conservation_with_loss():
    cfg = scenario(duration_s=8)
    for p in cfg.paths:
        p.loss_rate = 0.3
    log = Simulation(cfg).run()
    assert log.drained
    assert len(log.drops) > 0
    assert log.ingress_count == len(log.deliveries) + len(log.drops)


def test_conservation_with_equalizer_discards():
    cfg = scenario(reorder={"kind": "delay_equalize", "max_hold_us": 500_000})
    log = Simulation(cfg).run()
    assert log.ingress_count == len(log.deliveries) + len(log.drops) + len(log.discards)


def test_causality_no_early_delivery():
    cfg = scenario(duration_s=3)
    log = Simulation(cfg).run()
    latency = {0: 10_000, 1: 20_000}
    ser = 800   # 1000 bytes at 10 Mbps
    for time_us, _, path_id, ingress_time_us in log.arrivals:
        assert time_us >= ingress_time_us + latency[path_id] + ser


def test_per_path_fifo_preserved():
    cfg = scenario(duration_s=5)
    log = Simulation(cfg).run()
    for pid in (0, 1):
        times = [t for t, _, path_id, _ in log.arrivals if path_id == pid]
        seqs = [seq for _, seq, path_id, _ in log.arrivals if path_id == pid]
        assert times == sorted(times)
        assert seqs == sorted(seqs)


def test_overall_seq_stamped_densely_in_ingress_order():
    cfg = scenario(duration_s=4)
    log = Simulation(cfg).run()
    assert [seq for _, seq, _, _ in log.decisions] == list(range(log.ingress_count))


def test_identical_runs_are_bit_identical():
    cfg_a = scenario(duration_s=6)
    cfg_b = scenario(duration_s=6)
    for p in cfg_a.paths + cfg_b.paths:
        p.loss_rate = 0.1
    log_a = Simulation(cfg_a).run()
    log_b = Simulation(cfg_b).run()
    assert log_a == log_b


def test_adding_a_path_does_not_perturb_existing_loss_sequence():
    base = scenario(duration_s=4, scheduler={"kind": "fixed_ratio", "weights": [1, 1]})
    for p in base.paths:
        p.loss_rate = 0.25
    drops_two = {seq for _, path_id, seq in Simulation(base).run().drops
                 if path_id == 0}

    three = scenario(duration_s=4,
                     scheduler={"kind": "fixed_ratio", "weights": [1, 1, 0]},
                     paths=[
                         {"path_id": 0, "one_way_latency_us": 10_000,
                          "bandwidth_bps": 10_000_000, "loss_rate": 0.25},
                         {"path_id": 1, "one_way_latency_us": 20_000,
                          "bandwidth_bps": 10_000_000, "loss_rate": 0.25},
                         {"path_id": 2, "one_way_latency_us": 30_000,
                          "bandwidth_bps": 10_000_000, "loss_rate": 0.25},
                     ])
    drops_three = {seq for _, path_id, seq in Simulation(three).run().drops
                   if path_id == 0}
    assert drops_two == drops_three


def test_passthrough_delivers_at_arrival_times():
    cfg = scenario(duration_s=3)
    log = Simulation(cfg).run()
    arr = {seq: t for t, seq, _, _ in log.arrivals}
    for t, seq, _, _, residency_us, _ in log.deliveries:
        assert t == arr[seq]
        assert residency_us == 0


def test_latency_step_applies_to_later_packets_only():
    cfg = scenario(duration_s=3)
    cfg.paths[0].latency_steps = [LatencyStep(at_us=1_500_000, latency_us=100_000)]
    log = Simulation(cfg).run()
    for time_us, _, path_id, ingress_time_us in log.arrivals:
        if path_id != 0:
            continue
        if ingress_time_us < 1_400_000:
            assert time_us - ingress_time_us < 50_000
        if ingress_time_us >= 1_500_000:
            assert time_us - ingress_time_us > 100_000


def test_greedy_source_respects_windows_and_drains():
    cfg = scenario(duration_s=5,
                   traffic={"kind": "greedy", "packet_size_bytes": 1000})
    log = Simulation(cfg).run()
    assert log.drained
    assert log.ingress_count > 1000
    assert log.ingress_count == len(log.deliveries) + len(log.drops)
    assert log.window_violations == 0


class WindowIgnoringFlow(Flow):
    """Faulty flow that transmits its whole queue regardless of cwnd."""

    __slots__ = ()

    def pump(self, now):
        while self.send_queue:
            pkt = self.send_queue.popleft()
            self.in_flight += 1
            self._outstanding[pkt.flow_seq] = now
            self._transmit(pkt, now)


def test_window_violations_counted_for_a_faulty_flow(monkeypatch):
    # 4 Mbps of CBR over two 100 ms paths keeps ~50 packets in flight, far
    # above the initial window, so a flow that ignores cwnd must be caught.
    data = {"traffic": {"kind": "cbr", "rate_bps": 4_000_000, "packet_size_bytes": 1000},
            "paths": [
                {"path_id": i, "one_way_latency_us": 100_000,
                 "bandwidth_bps": 10_000_000} for i in (0, 1)]}
    cfg = scenario(duration_s=2, **data)
    honest = metrics.summarize(Simulation(cfg).run(), cfg.nominal_interval_us())
    monkeypatch.setattr(engine, "Flow", WindowIgnoringFlow)
    cfg = scenario(duration_s=2, **data)
    faulty = metrics.summarize(Simulation(cfg).run(), cfg.nominal_interval_us())
    assert honest["window_violations"] == 0
    assert faulty["window_violations"] > 0
    assert faulty["sent"] == honest["sent"]


def test_greedy_respects_stop_time():
    cfg = scenario(duration_s=5,
                   traffic={"kind": "greedy", "packet_size_bytes": 1000,
                            "stop_us": 1_000_000})
    log = Simulation(cfg).run()
    assert max(t for t, _, _, _ in log.decisions) < 1_000_000


def test_resequencer_rebuilds_order_under_rr():
    cfg = scenario(duration_s=5, reorder={"kind": "adaptive"})
    log = Simulation(cfg).run()
    seqs = [seq for _, seq, *_ in log.deliveries]
    assert seqs == sorted(seqs)
    assert len(seqs) == log.ingress_count


def test_static_threshold_derived_from_path_latencies():
    cfg = scenario(duration_s=5, reorder={"kind": "static"})
    sim = Simulation(cfg)
    # RTT gap of the configured paths: 2*(20ms - 10ms)
    assert sim.receiver.threshold_us() == 20_000
    log = sim.run()
    seqs = [seq for _, seq, *_ in log.deliveries]
    assert seqs == sorted(seqs)


def test_otias_decision_log_is_eta_consistent():
    # Runs on the decision log alternate and each run ends exactly when the
    # selected path's estimated arrival first exceeds the other path's.
    cfg = scenario(
        duration_s=10,
        paths=[
            {"path_id": 0, "one_way_latency_us": 10_000,
             "bandwidth_bps": 1_000_000, "loss_rate": 0.015},
            {"path_id": 1, "one_way_latency_us": 50_000,
             "bandwidth_bps": 1_000_000, "loss_rate": 0.015},
        ],
        traffic={"kind": "greedy", "packet_size_bytes": 1000},
        scheduler={"kind": "otias"},
    )
    log = Simulation(cfg).run()
    assert len(log.decisions) > 500
    switches = 0
    prev = None
    for _, _, path_id, etas in log.decisions:
        best = min(range(len(etas)), key=lambda i: (etas[i], i))
        assert path_id == best
        if prev is not None and path_id != prev:
            switches += 1
        prev = path_id
    assert switches >= 10


def test_rr_displacement_tracks_latency_gap():
    # Round robin over a 40 ms one-way gap: each slow-path packet is
    # overtaken by gap * per-path-rate = 40 ms * 62.5/s = 2.5 packets, so the
    # steady-state displacement sits at 2 (warmup queueing excluded).
    cfg = scenario(
        duration_s=10,
        paths=[
            {"path_id": 0, "one_way_latency_us": 10_000, "bandwidth_bps": 10_000_000},
            {"path_id": 1, "one_way_latency_us": 50_000, "bandwidth_bps": 10_000_000},
        ],
    )
    log = Simulation(cfg).run()
    seqs = [seq for t, seq, _, _ in log.arrivals if t >= 3_000_000]
    rank = {s: i for i, s in enumerate(sorted(seqs))}
    displacement = max(i - rank[s] for i, s in enumerate(seqs))
    assert seqs != sorted(seqs)
    assert 2 <= displacement <= 3


def test_otias_aggregate_throughput_near_offered_rate():
    # 1.5 Mbps over two 1 Mbps paths: the per-path series alternate while the
    # aggregate tracks the offered rate.
    cfg = scenario(
        duration_s=10,
        paths=[
            {"path_id": 0, "one_way_latency_us": 10_000, "bandwidth_bps": 1_000_000},
            {"path_id": 1, "one_way_latency_us": 50_000, "bandwidth_bps": 1_000_000},
        ],
        traffic={"kind": "cbr", "rate_bps": 1_500_000, "packet_size_bytes": 1000},
        scheduler={"kind": "otias"},
    )
    from mptunnel.metrics import throughput_series
    log = Simulation(cfg).run()
    rows = throughput_series(log, bin_us=1_000_000, per_path=False)
    mid = [bps for start, _, bps in rows if 3_000_000 <= start < 9_000_000]
    mean = sum(mid) / len(mid)
    assert 1_300_000 < mean < 1_600_000
    per_path = throughput_series(log, bin_us=1_000_000, per_path=True)
    used = {p for _, p, bps in per_path if bps > 0}
    assert used == {0, 1}


def test_otias_scrambles_strictly_less_than_rr_when_saturated():
    from mptunnel.metrics import reordering_extent
    counts = {}
    for kind in ("otias", "round_robin"):
        cfg = scenario(
            duration_s=10,
            paths=[
                {"path_id": 0, "one_way_latency_us": 10_000,
                 "bandwidth_bps": 1_000_000, "loss_rate": 0.015},
                {"path_id": 1, "one_way_latency_us": 50_000,
                 "bandwidth_bps": 1_000_000, "loss_rate": 0.015},
            ],
            traffic={"kind": "greedy", "packet_size_bytes": 1000},
            scheduler={"kind": kind},
        )
        counts[kind] = reordering_extent(Simulation(cfg).run())["out_of_order_count"]
    assert counts["otias"] < counts["round_robin"]


# -- record form and log lifetime ----------------------------------------------

EVENT_STREAMS = ("sends", "arrivals", "deliveries", "drops", "discards", "decisions")


@pytest.fixture(scope="module")
def guard_logs():
    """Two lossy runs that fill all six event streams between them: round
    robin into delay equalization across a latency jump (discards), and otias
    (decisions carrying ETA tuples)."""
    equalized = scenario(duration_s=3,
                         reorder={"kind": "delay_equalize", "max_hold_us": 10_000})
    equalized.paths[1].latency_steps = [LatencyStep(at_us=1_500_000,
                                                    latency_us=200_000)]
    otias = scenario(duration_s=3, scheduler={"kind": "otias"})
    logs = []
    for cfg in (equalized, otias):
        for p in cfg.paths:
            p.loss_rate = 0.05
        logs.append((cfg, Simulation(cfg).run()))
    return logs


def test_event_records_are_exact_tuples(guard_logs):
    for name in EVENT_STREAMS:
        records = [r for _, log in guard_logs for r in getattr(log, name)]
        assert records, name
        assert {type(r) for r in records} == {tuple}, name
    assert any(etas for _, log in guard_logs for *_, etas in log.decisions)
    for cfg, log in guard_logs:
        samples = metrics.compute_pdv(log, cfg.nominal_interval_us()).samples
        assert samples and {type(s) for s in samples} == {tuple}


def test_event_records_untracked_after_collection(guard_logs):
    # A record holding a tuple (a decision's ETAs) can be untracked only
    # once its inner tuple is, which may take a second pass.
    gc.collect()
    gc.collect()
    for name in EVENT_STREAMS:
        for _, log in guard_logs:
            records = getattr(log, name)
            sample = records[::max(1, len(records) // 50)]
            assert not any(gc.is_tracked(r) for r in sample), name


def test_finished_log_is_freed_by_reference_counting():
    cfg = scenario(duration_s=2)
    was_enabled = gc.isenabled()
    gc.disable()  # only reference counting may free the log
    try:
        log = Simulation(cfg).run()
        ref = weakref.ref(log)
        del log
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_simulation_runs_once_and_keeps_its_flows():
    cfg = scenario(duration_s=2)
    for p in cfg.paths:
        p.loss_rate = 0.1
    sim = Simulation(cfg)
    log = sim.run()
    with pytest.raises(RuntimeError) as exc:
        sim.run()
    assert "\n" not in str(exc.value)
    assert log.drops and sum(f.packets_lost for f in sim.flows) > 0
