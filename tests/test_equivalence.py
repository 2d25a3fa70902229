"""Property tests: the O(1) loss detection, the expiry-ordered resequencer
and the receiver's thresholds against reference models, plus a guard that
runs hand the schedulers the flows themselves rather than building
snapshots."""

import heapq
from collections import OrderedDict, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from mptunnel.engine import Simulation
from mptunnel.flow import (DUP_ACK_THRESHOLD, MIN_SSTHRESH, RTTVAR_GAIN, SRTT_GAIN,
                           Flow, TunnelPacket)
from mptunnel.reorder import (EqualizerLines, PathStats, ReorderBuffer,
                              adaptive_threshold)
from mptunnel.scenario import parse_scenario
from mptunnel.scheduler import SCHEDULERS, PathView
from test_reorder import drive_buffer, per_arrival, pkt, reference_reorder

# Deterministic example generation and no example database on disk, so the
# suite stays reproducible run to run.
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


class CountingLossOracle:
    """Window and loss state of a flow by the direct rule: every outstanding
    packet keeps a count of acknowledged successors, bumped by a scan of the
    whole outstanding map on each ack, and is lost at three."""

    def __init__(self, cwnd, ssthresh):
        self.cwnd, self.ssthresh, self.credit = cwnd, ssthresh, 0.0
        self.in_flight = self.lost = self.recover = self.next_seq = 0
        self.queue = deque()
        self.outstanding = OrderedDict()  # flow_seq -> [send_time, acks_seen_above]

    def enqueue(self, now):
        self.queue.append(self.next_seq)
        self.next_seq += 1
        self.pump(now)

    def pump(self, now):
        while self.queue and self.in_flight < self.cwnd:
            self.in_flight += 1
            self.outstanding[self.queue.popleft()] = [now, 0]

    def ack(self, seq, now):
        if self.outstanding.pop(seq, None) is None:
            return
        self.in_flight -= 1
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.credit += 1.0
            if self.credit >= self.cwnd:
                self.credit -= self.cwnd
                self.cwnd += 1.0
        lost = []
        for s, entry in self.outstanding.items():
            if s < seq:
                entry[1] += 1
                if entry[1] >= DUP_ACK_THRESHOLD:
                    lost.append(s)
        for s in lost:
            self.declare_lost(s)
        self.pump(now)

    def declare_lost(self, seq):
        del self.outstanding[seq]
        self.in_flight -= 1
        self.lost += 1
        if seq >= self.recover:
            self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
            self.cwnd = self.ssthresh
            self.credit = 0.0
            self.recover = self.next_seq

    def timeout(self, now):
        for seq in list(self.outstanding):
            self.declare_lost(seq)
        self.pump(now)


def state(flow):
    return (flow.cwnd, flow.ssthresh, flow.in_flight, flow.packets_lost,
            flow.outstanding_seqs())


def oracle_state(oracle):
    return (oracle.cwnd, oracle.ssthresh, oracle.in_flight, oracle.lost,
            list(oracle.outstanding))


# One step: (kind, pick, time advance). "ack" acknowledges the pick-th
# outstanding packet (reordered acks), "newest" the last one sent of those
# (overtaking acks, which open multi-packet gaps); "stale" acknowledges any
# flow_seq up to two past the last one sent (duplicate, late and unknown
# acks).
STEP = st.tuples(st.sampled_from(["send", "send", "ack", "ack", "newest", "stale",
                                  "timeout"]),
                 st.integers(0, 1 << 16), st.integers(1, 5_000))


@PROPERTY
@given(cwnd=st.sampled_from([2.0, 3.5, 8.0, 24.0]),
       ssthresh=st.sampled_from([2.0, 5.0, 16.0, 64.0]),
       steps=st.lists(STEP, min_size=10, max_size=150))
def test_loss_detection_matches_counting_oracle(cwnd, ssthresh, steps):
    flow = Flow(0, 20_000.0, lambda pkt, now: None)
    flow.cwnd, flow.ssthresh = cwnd, ssthresh
    oracle = CountingLossOracle(cwnd, ssthresh)
    now = 0
    for kind, pick, advance in steps:
        now += advance
        if kind == "send":
            flow.enqueue(TunnelPacket(oracle.next_seq, 1000, now), now)
            oracle.enqueue(now)
        elif kind == "timeout":
            flow.on_timeout(now)
            oracle.timeout(now)
        else:
            if kind in ("ack", "newest"):
                pending = list(oracle.outstanding)
                if not pending:
                    continue
                seq = pending[-1 if kind == "newest" else pick % len(pending)]
            else:
                seq = pick % (oracle.next_seq + 2)
            flow.ack_received(seq, now)
            oracle.ack(seq, now)
        assert state(flow) == oracle_state(oracle)


def drive_like_engine(arrivals, thresholds, buf):
    """Feed arrivals as the engine does: one deadline event per hold, fired
    at that hold's deadline whether or not the packet is still held."""
    out = []
    events = []  # (deadline, hold number)

    def fire(up_to):
        while events and events[0][0] <= up_to:
            at, _ = heapq.heappop(events)
            out.extend((at, p.overall_seq, d) for p, _, d in buf.on_deadline(at))

    for i, (t, s, th) in enumerate(per_arrival(arrivals, thresholds)):
        fire(t)
        released = buf.on_arrival(pkt(s), t, th)
        if released:
            out.extend((t, p.overall_seq, d) for p, _, d in released)
        else:
            heapq.heappush(events, (buf.held[s].deadline_us, i))
    fire(float("inf"))
    return out


@PROPERTY
@given(st.data())
def test_heap_resequencer_matches_reference_with_per_arrival_thresholds(data):
    # Arbitrary seqs (gaps, reordering, duplicates) with a threshold per
    # arrival, so deadlines are not monotone in arrival order.
    seqs = data.draw(st.lists(st.integers(0, 24), max_size=40))
    gaps = data.draw(st.lists(st.integers(0, 40), min_size=len(seqs), max_size=len(seqs)))
    thresholds = data.draw(st.lists(st.integers(0, 120), min_size=len(seqs),
                                    max_size=len(seqs)))
    times = [sum(gaps[:i + 1]) for i in range(len(seqs))]
    arrivals = list(zip(times, seqs))
    expected = reference_reorder(arrivals, thresholds)
    for drive in (drive_buffer, drive_like_engine):
        buf = ReorderBuffer()
        got = drive(arrivals, thresholds, buf)
        assert got == expected
        assert not buf.held and buf.next_deadline() is None
        released = {s for _, s, d in got if d != "late"}
        assert buf.gap_count == buf.expected_next - len(released)
        assert buf.late_count == sum(1 for _, _, d in got if d == "late")


class PathStatsOracle:
    """Receiver path stats by the direct rule: a record per path id, read
    through sorted path ids into fresh lists for every threshold."""

    def __init__(self):
        self.stats = {}  # path_id -> [srtt_us, rttvar_us]

    def update(self, path_id, report_us):
        stat = self.stats.get(path_id)
        if stat is None:
            self.stats[path_id] = [float(report_us), report_us / 2.0]
            return
        stat[1] = (1 - RTTVAR_GAIN) * stat[1] + RTTVAR_GAIN * abs(stat[0] - report_us)
        stat[0] = (1 - SRTT_GAIN) * stat[0] + SRTT_GAIN * report_us

    def adaptive_threshold(self, k, max_hold_us):
        paths = sorted(self.stats)
        if len(paths) < 2:
            return float(max_hold_us)
        srtts = [self.stats[p][0] for p in paths]
        spread = (max(srtts) - min(srtts)) / 2.0
        guard = k * max(self.stats[p][1] for p in paths)
        return min(spread + guard, float(max_hold_us))

    def target_delay_us(self, k):
        paths = sorted(self.stats)
        srtts = [self.stats[p][0] for p in paths]
        guard = k * max(self.stats[p][1] for p in paths)
        return max(srtts) / 2.0 + guard


REPORT = st.tuples(st.integers(0, 7),
                   st.one_of(st.integers(0, 4_000_000),
                             st.floats(0.0, 4e6, allow_nan=False)))


@PROPERTY
@given(reports=st.lists(REPORT, min_size=1, max_size=80),
       k=st.sampled_from([0.0, 1.0, 2.5, 4.0]),
       max_hold_us=st.integers(0, 1_000_000))
def test_thresholds_match_rebuilding_oracle(reports, k, max_hold_us):
    # Bit-identical floats after every report, paths first seen in any order.
    stats, oracle = PathStats(), PathStatsOracle()
    lines = EqualizerLines(k, max_hold_us)
    for path_id, report_us in reports:
        stats.update(path_id, report_us)
        oracle.update(path_id, report_us)
        assert (adaptive_threshold(stats, k, max_hold_us).hex()
                == oracle.adaptive_threshold(k, max_hold_us).hex())
        assert lines.target_delay_us(stats).hex() == oracle.target_delay_us(k).hex()
        for p, (srtt, _) in oracle.stats.items():
            assert stats.srtt(p).hex() == srtt.hex()


def test_runs_build_no_path_view(monkeypatch):
    built = []
    original = PathView.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PathView, "__init__", counting_init)
    PathView(0, 1.0, 0.0, 2.0, 0, 0, 0.0)
    assert len(built) == 1  # the guard sees a construction
    built.clear()
    for kind in sorted(SCHEDULERS):
        scheduler = {"kind": kind}
        if kind == "fixed_ratio":
            scheduler["weights"] = [2, 1, 1]
        log = Simulation(parse_scenario({
            "duration_s": 1, "seed": 1,
            "paths": [{"path_id": i, "one_way_latency_us": 5_000 * (i + 1),
                       "bandwidth_bps": 10_000_000, "loss_rate": 0.01}
                      for i in range(3)],
            "traffic": {"kind": "greedy", "packet_size_bytes": 1000},
            "scheduler": scheduler,
        })).run()
        assert log.ingress_count > 100
    assert built == []
