import gc
import json
import struct
import tempfile
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_difference, write_rows
from mptunnel import engine, metrics
from mptunnel.cli import run_scenario
from mptunnel.engine import Simulation
from mptunnel.flow import Flow, TunnelPacket
from mptunnel.reorder import RECEIVERS
from mptunnel.scenario import (LatencyStep, ScenarioError, canned_scenario_names,
                               load_canned, parse_scenario)
from mptunnel.scheduler import SCHEDULERS, Otias, otias_eta
from mptunnel.simcore import ARRIVAL, EventQueue


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
    assert list(log.deliveries) == []


def test_cbr_emits_exact_packet_count():
    cfg = scenario(duration_s=10)
    log = Simulation(cfg).run()
    assert log.ingress_count == 1250


def read_counting(record, reads: Counter):
    """A copy of a config record that counts each attribute read in reads."""
    class Counted(type(record)):
        def __getattribute__(self, name):
            reads[name] += 1
            return super().__getattribute__(name)

    return Counted(**vars(record))


@pytest.mark.parametrize("traffic", [
    {"kind": "cbr", "rate_bps": 1_000_000, "packet_size_bytes": 1000},
    {"kind": "greedy", "packet_size_bytes": 1000},
], ids=lambda traffic: traffic["kind"])
def test_a_run_reads_no_config_per_packet(traffic):
    # The traffic source and path models are read at set-up, not per packet,
    # so a run twice as long reads them exactly as often.
    runs = []
    for duration_s in (1, 2):
        cfg = scenario(duration_s=duration_s, traffic=traffic, scheduler={"kind": "otias"})
        reads = Counter()
        cfg.traffic = read_counting(cfg.traffic, reads)
        cfg.paths = [read_counting(model, reads) for model in cfg.paths]
        for model in cfg.paths:
            model.loss_rate = 0.01
        sim = Simulation(cfg)
        reads.clear()
        runs.append((sim.run().ingress_count, reads))
    (short, short_reads), (long, long_reads) = runs
    assert long > 1.5 * short > 0
    assert long_reads == short_reads


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
    assert [seq for _, seq, _ in log.decisions] == list(range(log.ingress_count))


def test_identical_runs_are_bit_identical():
    cfg_a = scenario(duration_s=6)
    cfg_b = scenario(duration_s=6)
    for p in cfg_a.paths + cfg_b.paths:
        p.loss_rate = 0.1
    log_a = Simulation(cfg_a).run()
    log_b = Simulation(cfg_b).run()
    assert first_difference(log_a, log_b) is None


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
    for t, seq, _, residency_us, _ in log.deliveries:
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


def test_latency_step_after_the_hard_stop_leaves_the_run_drained():
    # 1 s of CBR delivers all 125 packets; a step long after the hard stop
    # (duration + max hold + drain slack) changes nothing the run does.
    paths = [{"path_id": 0, "one_way_latency_us": 10_000, "bandwidth_bps": 10_000_000,
              "latency_steps": [{"at_us": 10**12, "latency_us": 50_000}]},
             {"path_id": 1, "one_way_latency_us": 20_000, "bandwidth_bps": 10_000_000}]
    plain = Simulation(scenario(duration_s=1)).run()
    stepped = Simulation(scenario(duration_s=1, paths=paths)).run()
    assert plain.drained and stepped.drained
    assert len(plain.deliveries) == len(stepped.deliveries) == stepped.ingress_count == 125
    assert list(stepped.deliveries) == list(plain.deliveries)


def test_an_ack_at_its_timers_deadline_is_not_a_loss():
    # One 1,000 B packet over 8 Mbps (1,000 µs to serialize) on a path that
    # steps to 99,500 µs one way at 0: it arrives at 100,500 and its ack
    # lands at 200,000, the µs its timer's 200 ms floor expires. The ack
    # ranks before the timer, so the packet is acked, not lost.
    cfg = scenario(duration_s=1, traffic={"kind": "cbr", "rate_bps": 8_000,
                                          "packet_size_bytes": 1000, "stop_us": 1},
                   paths=[{"path_id": 0, "one_way_latency_us": 10_000,
                           "bandwidth_bps": 8_000_000,
                           "latency_steps": [{"at_us": 0, "latency_us": 99_500}]}])
    sim = Simulation(cfg)
    flow = sim.flows[0]
    assert flow.timeout_deadline_us(0) == 200_000
    log = sim.run()
    assert [t for t, *_ in log.arrivals] == [100_500]
    assert flow.packets_lost == 0 and flow.in_flight == 0
    assert flow.srtt_us == 200_000
    # One flow row at ingress and one at the ack; no timeout row.
    assert [(t, srtt) for t, _, srtt, *_ in log.flow_rows] == [(0, 20_000), (200_000, 200_000)]


def test_an_arrival_at_its_gaps_deadline_fills_the_gap():
    # Three packets 8,000 µs apart, round robin over 10 and 30 ms paths
    # (800 µs to serialize): seq 2 arrives at 26,800 and is held for 12,000
    # µs, to 38,800, the µs seq 1 arrives. The arrival ranks before the
    # receiver's deadline, so seq 1 fills the gap and nothing times out.
    cfg = scenario(duration_s=1,
                   traffic={"kind": "cbr", "rate_bps": 1_000_000,
                            "packet_size_bytes": 1000, "stop_us": 16_001},
                   paths=[{"path_id": 0, "one_way_latency_us": 10_000,
                           "bandwidth_bps": 10_000_000},
                          {"path_id": 1, "one_way_latency_us": 30_000,
                           "bandwidth_bps": 10_000_000}],
                   reorder={"kind": "static", "static_threshold_us": 12_000})
    log = Simulation(cfg).run()
    assert [(t, seq) for t, seq, *_ in log.arrivals] == [(10_800, 0), (26_800, 2), (38_800, 1)]
    assert [(t, seq, residency_us, disposition)
            for t, seq, _, residency_us, disposition in log.deliveries] == [
        (10_800, 0, 0, "inorder"), (38_800, 1, 0, "inorder"), (38_800, 2, 12_000, "inorder")]
    assert log.timeout_gaps == 0


@pytest.mark.parametrize("traffic", [
    {"kind": "cbr", "rate_bps": 1_000_000, "packet_size_bytes": 1000},
    {"kind": "greedy", "packet_size_bytes": 1000},
], ids=["cbr", "greedy"])
def test_source_starting_past_the_hard_stop_sends_nothing_and_drains(traffic):
    # start_us lies past duration + max hold + drain slack: neither source
    # may leave a start event behind to end the run as undrained.
    cfg = scenario(duration_s=1, traffic=dict(traffic, start_us=10**9))
    log = Simulation(cfg).run()
    assert log.ingress_count == 0
    assert log.drained


def test_overloaded_path_ends_the_run_undrained():
    # 10 Mbps of CBR into one 100 kbps path: the backlog needs about 80 s to
    # drain, longer than duration + max hold + drain slack.
    cfg = scenario(duration_s=1, traffic={"kind": "cbr", "rate_bps": 10_000_000,
                                          "packet_size_bytes": 1000},
                   paths=[{"path_id": 0, "one_way_latency_us": 10_000,
                           "bandwidth_bps": 100_000}])
    log = Simulation(cfg).run()
    assert not log.drained
    assert log.ingress_count == 1250
    assert len(log.deliveries) < len(log.sends) < log.ingress_count
    summary = metrics.summarize(log, cfg.nominal_interval_us())
    assert summary["drained"] is False


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


class OneOverWindowFlow(Flow):
    """Faulty flow that sends while in_flight <= cwnd: one packet over."""

    __slots__ = ()

    def pump(self, now):
        queue = self.send_queue
        while queue and self.in_flight <= self.cwnd:
            pkt = queue.popleft()
            self.in_flight += 1
            self._outstanding[pkt.flow_seq] = now
            self._send_order.append(pkt.flow_seq)
            self._transmit(pkt, now)


# 4 Mbps of lossless CBR over two 100 ms paths keeps ~50 packets in flight,
# far above the initial window.
WINDOW_TEST_DATA = {
    "traffic": {"kind": "cbr", "rate_bps": 4_000_000, "packet_size_bytes": 1000},
    "paths": [{"path_id": i, "one_way_latency_us": 100_000,
               "bandwidth_bps": 10_000_000} for i in (0, 1)]}


def test_window_violations_counted_for_a_faulty_flow(monkeypatch):
    # A flow that ignores cwnd must be caught.
    cfg = scenario(duration_s=2, **WINDOW_TEST_DATA)
    honest = metrics.summarize(Simulation(cfg).run(), cfg.nominal_interval_us())
    monkeypatch.setattr(engine, "Flow", WindowIgnoringFlow)
    cfg = scenario(duration_s=2, **WINDOW_TEST_DATA)
    faulty = metrics.summarize(Simulation(cfg).run(), cfg.nominal_interval_us())
    assert honest["window_violations"] == 0
    assert faulty["window_violations"] > 0
    assert faulty["sent"] == honest["sent"]


def test_window_violations_counted_one_packet_over_an_integer_window(monkeypatch):
    # The boundary of the transmit check: with no loss every cwnd stays a
    # whole number, so the faulty flow's last send of each window starts at
    # in_flight == cwnd, which must count, and the honest flow's never does.
    counts = {}
    for flow_class in (Flow, OneOverWindowFlow):
        monkeypatch.setattr(engine, "Flow", flow_class)
        sim = Simulation(scenario(duration_s=2, **WINDOW_TEST_DATA))
        log = sim.run()
        assert not log.drops and not any(f.packets_lost for f in sim.flows)
        assert all(cwnd == int(cwnd) for _, _, _, cwnd, _, _ in log.flow_rows)
        counts[flow_class] = log.window_violations
    assert counts[Flow] == 0
    assert counts[OneOverWindowFlow] > 0


def test_greedy_respects_stop_time():
    cfg = scenario(duration_s=5,
                   traffic={"kind": "greedy", "packet_size_bytes": 1000,
                            "stop_us": 1_000_000})
    log = Simulation(cfg).run()
    assert max(t for t, _, _ in log.decisions) < 1_000_000


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
    assert sim.receiver.static_threshold_us == 20_000
    log = sim.run()
    seqs = [seq for _, seq, *_ in log.deliveries]
    assert seqs == sorted(seqs)


def test_static_threshold_is_capped_at_max_hold():
    # Slow-path packets come about 10 ms behind, so a 400 ms threshold would
    # hold their successors until the gap fills; the cap gives up after 5 ms.
    cfg = scenario(duration_s=2, reorder={"kind": "static", "max_hold_us": 5_000,
                                          "static_threshold_us": 400_000})
    sim = Simulation(cfg)
    assert sim.receiver.static_threshold_us == 5_000
    log = sim.run()
    residencies = [row[3] for row in log.deliveries]
    assert len(residencies) == log.ingress_count
    assert 0 < max(residencies) <= 5_000


def test_static_kind_keeps_no_path_stats():
    # A static threshold never reads the path stats, so a static run updates
    # none, and it delivers exactly as a run that updates them on arrival.
    cfg = scenario(duration_s=3, reorder={"kind": "static"})
    for p in cfg.paths:
        p.loss_rate = 0.05
    sim = Simulation(cfg)
    log = sim.run()
    assert sim.receiver.stats.srtts == {}
    assert any(residency for *_, residency, _ in log.deliveries)

    updating = Simulation(cfg)
    receiver, on_packet = updating.receiver, updating.receiver.on_packet

    def updating_on_packet(pkt, now):
        receiver.stats.update(pkt.path_id, pkt.sender_rtt_report)
        on_packet(pkt, now)

    receiver.on_packet = updating_on_packet
    assert list(updating.run().deliveries) == list(log.deliveries)
    assert set(receiver.stats.srtts) == {0, 1}


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
    table = metrics.METRICS["decisions"](log, None)
    assert table.header[3:] == ("eta_0_us", "eta_1_us")
    switches = 0
    prev = None
    for _, _, path_id, *etas in table:
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
    rows = throughput_series(log, bin_us=1_000_000)
    aggregate: dict[int, float] = {}
    for start, _, bps in rows:
        aggregate[start] = aggregate.get(start, 0.0) + bps
    mid = [bps for start, bps in aggregate.items() if 3_000_000 <= start < 9_000_000]
    mean = sum(mid) / len(mid)
    assert 1_300_000 < mean < 1_600_000
    used = {p for _, p, bps in rows if bps > 0}
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


# -- receiver independence -------------------------------------------------------

SENDER_STREAMS = ("sends", "arrivals", "drops", "decisions", "etas", "flow_rows")


def sender_log(log) -> metrics.MetricsLog:
    """A log of the run's sender streams alone, every total at its start."""
    view = metrics.MetricsLog()
    for stream in SENDER_STREAMS:
        setattr(view, stream, getattr(log, stream))
    return view


@pytest.mark.parametrize("name", ["rr-saturated", "adaptive-jump"])
def test_receiver_kind_changes_nothing_the_sender_sees(name):
    # Acks leave at arrival, so the receiver never feeds back into the
    # sender: every receiver kind sees the same network run.
    logs = {}
    for kind in RECEIVERS:
        cfg = load_canned(name)
        cfg.reorder.kind = kind
        logs[kind] = sender_log(Simulation(cfg).run())
    assert logs["none"].sends
    for kind, log in logs.items():
        assert first_difference(log, logs["none"]) is None, kind


# -- the receiver as a function of the arrival trace ------------------------------

def replay(cfg, log, kind) -> metrics.MetricsLog:
    """The run's log as a fresh receiver of this kind rebuilds it, fed the
    run's arrivals at the arrival rank on its own event queue, each packet
    rebuilt with the flow_seq and RTT report it was sent with: the
    receiver's deliveries, discards and given-up gaps, and every other
    stream and total the run's."""
    sent = {seq: (flow_seq, rtt_us) for _, _, seq, flow_seq, rtt_us in log.sends}
    replayed = sender_log(log)
    for total in metrics.Totals._fields:
        setattr(replayed, total, getattr(log, total))
    queue = EventQueue()
    receiver = RECEIVERS[kind].factory(cfg).wire(
        lambda pkt, now, residency_us, disposition: write_rows(replayed.deliveries, [
            (now, pkt.overall_seq, pkt.path_id, residency_us, disposition)]),
        queue.schedule,
        lambda pkt, now: write_rows(replayed.discards, [(now, pkt.path_id, pkt.overall_seq)]))
    for now, seq, path_id, ingress_us in log.arrivals:
        flow_seq, rtt_us = sent[seq]
        queue.schedule(now, ARRIVAL, receiver.on_packet,
                       TunnelPacket(seq, ingress_us, path_id, flow_seq, rtt_us))
    while (item := queue.pop()) is not None:
        at, _, _, fn, arg = item
        fn(arg, at)
    replayed.timeout_gaps = receiver.gap_count
    return replayed


def receiver_run(runs, name, kind):
    """A canned run with this receiver kind: the shared run for its own."""
    cfg, log = runs(name)
    if kind != cfg.reorder.kind:
        cfg = load_canned(name)
        cfg.reorder.kind = kind
        log = Simulation(cfg).run()
    return cfg, log


@pytest.mark.parametrize("kind", sorted(RECEIVERS))
@pytest.mark.parametrize("name", canned_scenario_names())
def test_receiver_replays_the_arrival_trace(runs, name, kind):
    cfg, log = receiver_run(runs, name, kind)
    assert log.drained and log.arrivals
    assert first_difference(replay(cfg, log, kind), log) is None


# -- record form and log lifetime ----------------------------------------------

EVENT_STREAMS = tuple(metrics.STREAMS)
FIELD_TYPES = {"q": {int}, "d": {float}, "c": {str}}


@pytest.fixture(scope="module")
def guard_logs():
    """Two lossy runs that fill all eight record streams between them: round
    robin into delay equalization across a latency jump (discards), and otias
    (ETA changes)."""
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


def test_event_records_read_back_as_exact_tuples(guard_logs):
    for name in EVENT_STREAMS:
        fields, kinds = metrics.STREAMS[name]
        records = [r for _, log in guard_logs for r in getattr(log, name)]
        assert records, name
        assert {type(r) for r in records} == {tuple}, name
        assert {len(r) for r in records} == {len(fields)} == {len(kinds)}, name
        for i, kind in enumerate(kinds):
            assert {type(r[i]) for r in records} <= FIELD_TYPES[kind], (name, i)
    for cfg, log in guard_logs:
        pdv = metrics.compute_pdv(log, cfg.nominal_interval_us())
        assert pdv.values and {type(v) for v in pdv.values} == {float}


def held_objects(stream) -> list:
    """Every object reachable from a stream, short of classes and the packed
    row layout that all logs share."""
    held, todo = {}, [stream]
    while todo:
        obj = todo.pop()
        if id(obj) not in held and not isinstance(obj, (type, struct.Struct)):
            held[id(obj)] = obj
            todo.extend(gc.get_referents(obj))
    return list(held.values())


def test_event_records_are_packed_out_of_the_collectors_sight(guard_logs):
    # Rows live in bytes, which the cyclic collector never scans: whatever a
    # stream's length, it holds a few objects plus one per sealed chunk, and
    # the collector tracks only the stream and its chunk list.
    greedy = Simulation(scenario(duration_s=1, scheduler={"kind": "otias"},
                                 traffic={"kind": "greedy", "packet_size_bytes": 1000})).run()
    assert len(greedy.decisions) > 2 * metrics.CHUNK_ROWS
    for log in [greedy] + [log for _, log in guard_logs]:
        for name in EVENT_STREAMS:
            stream = getattr(log, name)
            held = held_objects(stream)
            assert len(held) <= 20 + len(stream) // metrics.CHUNK_ROWS, name
            assert sum(map(gc.is_tracked, held)) <= 2, name


def test_flow_samples_view_matches_flow_rows(guard_logs):
    for _, log in guard_logs:
        view = log.flow_samples
        assert {type(s) for s in view} == {metrics.FlowSample}
        assert view == tuple(metrics.FlowSample._make(r) for r in log.flow_rows)
    log = metrics.MetricsLog()
    write_rows(log.flow_rows, [(5, 1, 20_000.0, 2.0, 1, 0)])
    assert log.flow_samples == (metrics.FlowSample(5, 1, 20_000.0, 2.0, 1, 0),)


def test_flow_samples_view_is_read_only(guard_logs):
    _, log = guard_logs[0]
    with pytest.raises(AttributeError):
        log.flow_samples.append(log.flow_samples[0])
    with pytest.raises(AttributeError):
        log.flow_samples = []


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


def reorder_section(kind: str, **keys) -> dict:
    """A reorder section of the kind, with those of keys that the kind reads:
    a key it does not read must keep its default."""
    reads = {key for key, _ in RECEIVERS[kind].params}
    return {"kind": kind, **{key: v for key, v in keys.items() if key in reads}}


@pytest.mark.parametrize("traffic", [
    {"kind": "cbr", "rate_bps": 1_000_000, "packet_size_bytes": 1000},
    {"kind": "greedy", "packet_size_bytes": 1000}], ids=["cbr", "greedy"])
@pytest.mark.parametrize("kind", sorted(RECEIVERS))
def test_event_handlers_are_bound_once_per_run(monkeypatch, kind, traffic):
    # Every scheduled fn is kept alive, so a handler bound anew per event
    # shows up as one more distinct object rather than a recycled id.
    scheduled = []
    schedule = engine.EventQueue.schedule

    def recording(queue, at_us, rank, fn, arg=None):
        scheduled.append(fn)
        schedule(queue, at_us, rank, fn, arg)

    monkeypatch.setattr(engine.EventQueue, "schedule", recording)
    cfg = scenario(duration_s=2, traffic=traffic, scheduler={"kind": "otias"},
                   reorder=reorder_section(kind, max_hold_us=50_000))
    cfg.paths[1].latency_steps = [LatencyStep(at_us=1_000_000, latency_us=60_000)]
    for p in cfg.paths:
        p.loss_rate = 0.05
    Simulation(cfg).run()
    assert len(scheduled) > 500
    assert {"_arrive", "_ack", "_timer_fire"} <= {fn.__name__ for fn in scheduled}
    assert len({id(fn) for fn in scheduled}) <= 8


# -- path order ------------------------------------------------------------------

# Every metric, in CSV where it is a table; pdv_histogram is a JSON document.
ALL_OUTPUTS = [{"metric": m, "format": "json" if m == "pdv_histogram" else "csv",
                "path": f"{m}.out"} for m in metrics.METRICS]


def outputs_of(data):
    """Run a scenario dict with every output; return the written files'
    bytes by name, summary.json included, and the summary."""
    with tempfile.TemporaryDirectory() as out:
        summary = run_scenario(parse_scenario(data), Path(out))
        return {p.name: p.read_bytes() for p in Path(out).iterdir()}, summary


def listed_in_order(data, order):
    """data with its paths listed in the given order of path_id."""
    shuffled = json.loads(json.dumps(data))
    shuffled["paths"] = [data["paths"][i] for i in order]
    return shuffled


PATH = st.fixed_dictionaries({
    "one_way_latency_us": st.integers(0, 80_000),
    "bandwidth_bps": st.sampled_from([1_000_000, 4_000_000, 20_000_000]),
    "loss_rate": st.sampled_from([0.0, 0.0, 0.03]),
    "cost": st.sampled_from([0.0, 1.0, 2.0]),
    "latency_steps": st.lists(st.fixed_dictionaries({
        "at_us": st.integers(0, 1_000_000),
        "latency_us": st.integers(0, 80_000)}), max_size=1),
})


@st.composite
def cbr_scenarios(draw):
    """A small bounded CBR scenario (at most 2 s of at most 3 Mbps) with its
    paths in path_id order, and a permutation of those path_ids."""
    paths = draw(st.lists(PATH, min_size=2, max_size=4))
    for i, path in enumerate(paths):
        path["path_id"] = i
    kind = draw(st.sampled_from(sorted(SCHEDULERS)))
    sched = {"kind": kind}
    if kind == "fixed_ratio":
        sched["weights"] = draw(st.lists(st.integers(0, 3), min_size=len(paths),
                                         max_size=len(paths)).filter(any))
    data = {
        "name": "path-order", "duration_s": draw(st.sampled_from([0.5, 1, 2])),
        "seed": draw(st.integers(0, 9)), "paths": paths,
        "traffic": {"kind": "cbr", "rate_bps": draw(st.integers(200_000, 3_000_000)),
                    "packet_size_bytes": draw(st.sampled_from([500, 1000]))},
        "scheduler": sched,
        "reorder": reorder_section(draw(st.sampled_from(sorted(RECEIVERS))),
                                   max_hold_us=draw(st.sampled_from([50_000, 500_000]))),
        "outputs": ALL_OUTPUTS,
    }
    return data, draw(st.permutations(range(len(paths))))


@settings(max_examples=25)
@given(cbr_scenarios())
def test_paths_listed_in_any_order_give_the_same_bytes(case):
    data, order = case
    expected, _ = outputs_of(data)
    got, summary = outputs_of(listed_in_order(data, order))
    assert got == expected
    assert summary["window_violations"] == 0
    if summary["drained"]:
        assert (summary["delivered"] + summary["dropped"] + summary["discarded"]
                == summary["transmitted"] == summary["sent"])


def overall_seqs(stream):
    return list(stream.column(metrics.STREAMS[stream.name][0].index("overall_seq")))


@settings(max_examples=25)
@given(cbr_scenarios())
def test_every_arrival_ends_in_one_delivery_or_discard(case):
    data, _ = case
    log = Simulation(parse_scenario(data)).run()
    if log.drained:
        assert len(log.sends) == len(log.arrivals) + len(log.drops)
        ends = overall_seqs(log.deliveries) + overall_seqs(log.discards)
        assert sorted(ends) == sorted(overall_seqs(log.arrivals))


def test_greedy_paths_listed_in_reverse_give_the_same_bytes():
    data = {
        "name": "path-order-greedy", "duration_s": 2, "seed": 4,
        "paths": [
            {"path_id": 0, "one_way_latency_us": 10_000, "bandwidth_bps": 4_000_000},
            {"path_id": 1, "one_way_latency_us": 40_000, "bandwidth_bps": 2_000_000,
             "loss_rate": 0.01},
        ],
        "traffic": {"kind": "greedy", "packet_size_bytes": 1000},
        "scheduler": {"kind": "srtt"},
        "reorder": {"kind": "adaptive"},
        "outputs": ALL_OUTPUTS,
    }
    expected, _ = outputs_of(data)
    got, summary = outputs_of(listed_in_order(data, [1, 0]))
    assert got == expected
    assert summary["drained"] and summary["window_violations"] == 0
    assert (summary["delivered"] + summary["dropped"] + summary["discarded"]
            == summary["transmitted"] == summary["sent"])


# -- what changes between picks ------------------------------------------------


class ChangedOracle(Otias):
    """otias that checks the engine's changed argument at every pick: the
    first pick names every path in path_id order, every view whose ETA
    inputs (srtt, cwnd, backlog) moved since the previous pick is named,
    every ETA kept equals one computed afresh, and moved lists exactly the
    paths whose ETA changed value (every path at the first pick). history
    keeps the ETAs as of every pick."""

    def __init__(self, n):
        super().__init__(n)
        self.inputs = None
        self.history = []

    def pick(self, views, changed):
        at = len(self.history)  # this pick's index, named by each failure
        inputs = [(v.srtt_us, v.cwnd, len(v.send_queue) + v.in_flight) for v in views]
        if self.inputs is None:
            assert list(changed) == list(range(len(views))), (at, changed)
        else:
            moved = {i for i, (a, b) in enumerate(zip(self.inputs, inputs)) if a != b}
            assert moved <= set(changed), (at, moved, changed)
        self.inputs = inputs
        before = list(self.etas)
        picked = super().pick(views, changed)
        assert self.etas == list(map(otias_eta, views)), at
        assert sorted(self.moved) == [i for i, eta in enumerate(self.etas)
                                      if eta != before[i]], at
        self.history.append(tuple(self.etas))
        return picked


@pytest.fixture
def checked(monkeypatch):
    """Counts of greedy pumps inside the traffic window and of ack-silence
    timeouts. Each such pump must leave no flow idle (window room and an
    empty send queue), except that the start of traffic pumps the flows one
    by one in path_id order, so there only flows not yet pumped may be."""
    counts = {"pumps": 0, "timeouts": 0}
    pump = Simulation._pump_greedy

    def checked_pump(sim, now, path_id):
        pump(sim, now, path_id)
        traffic = sim.cfg.traffic
        if traffic.kind == "greedy" and traffic.start_us <= now < sim._traffic_stop_us:
            counts["pumps"] += 1
            idle = [f.path_id for f in sim.flows if f.in_flight < f.cwnd and not f.send_queue]
            assert not idle or (now == traffic.start_us and min(idle) > path_id), (now, idle)

    class TimeoutCountingFlow(Flow):
        __slots__ = ()

        def on_timeout(self, now):
            counts["timeouts"] += 1
            return super().on_timeout(now)

    monkeypatch.setattr(Simulation, "_pump_greedy", checked_pump)
    monkeypatch.setattr(engine, "Flow", TimeoutCountingFlow)
    return counts


def run_with_oracle(cfg):
    """Run cfg under the ChangedOracle, and check that the decisions export
    replays the recorded ETA changes into exactly the ETAs of every pick."""
    sim = Simulation(cfg)
    oracle = sim.scheduler = ChangedOracle(len(cfg.paths))
    log = sim.run()
    table = metrics.METRICS["decisions"](log, None)
    assert len(table.header) == 3 + len(cfg.paths)
    # float.hex tells 1.0 from 1.0000000000000002 and -0.0 from 0.0.
    assert ([tuple(map(float.hex, row[3:])) for row in table]
            == [tuple(map(float.hex, etas)) for etas in oracle.history])
    return log


@pytest.mark.parametrize("name", canned_scenario_names())
def test_canned_runs_name_every_changed_flow(checked, name):
    cfg = load_canned(name)
    log = run_with_oracle(cfg)
    assert log.decisions
    assert (checked["pumps"] > 0) == (cfg.traffic.kind == "greedy")


def lossy(kind, n_paths):
    """2 s of traffic over n paths listed in reverse path_id order, at 5%
    loss and with the fastest path's latency jumping to 400 ms at 1 s, so
    that ack-silence timeouts fire."""
    paths = [{"path_id": i, "one_way_latency_us": 5_000 + 10_000 * i,
              "bandwidth_bps": 2_000_000 * (1 + i % 3), "loss_rate": 0.05,
              "latency_steps": [{"at_us": 1_000_000, "latency_us": 400_000}]
              if i == 0 else []}
             for i in reversed(range(n_paths))]
    traffic = {"kind": "greedy", "packet_size_bytes": 1000}
    if kind == "cbr":
        traffic.update(kind="cbr", rate_bps=3_000_000)
    return scenario(duration_s=2, paths=paths, traffic=traffic,
                    scheduler={"kind": "otias"})


@pytest.mark.parametrize("n_paths", [2, 5, 8])
@pytest.mark.parametrize("kind", ["greedy", "cbr"])
def test_lossy_runs_name_every_changed_flow(checked, kind, n_paths):
    log = run_with_oracle(lossy(kind, n_paths))
    assert checked["timeouts"] > 0
    assert (checked["pumps"] > 0) == (kind == "greedy")
    assert log.window_violations == 0


def test_first_decision_records_every_paths_eta_in_path_id_order():
    # 16 greedy otias paths of 50 Mbps, one-way latencies spread over 5-40 ms.
    # At the first pick every flow is idle with cwnd 2 and srtt twice its
    # latency, so each ETA is srtt / 2: the configured one-way latency.
    latencies = [int(round(1000 * (5 + 35 * i / 15))) for i in range(16)]
    paths = [{"path_id": i, "one_way_latency_us": us, "bandwidth_bps": 50_000_000,
              "loss_rate": 0.001} for i, us in enumerate(latencies)]
    cfg = scenario(duration_s=0.05, seed=0, paths=paths,
                   traffic={"kind": "greedy", "packet_size_bytes": 1000},
                   scheduler={"kind": "otias"})
    log = Simulation(cfg).run()
    first = [row for row in log.etas if row[0] == 0]
    assert first == [(0, i, float(us)) for i, us in enumerate(latencies)]
