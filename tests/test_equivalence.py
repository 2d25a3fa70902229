"""Property tests: the O(1) loss detection, the resequencer driven by one
deadline event per hold, the receiver's thresholds and otias's per-path ETA
cache against reference models."""

from collections import OrderedDict, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from mptunnel.flow import (DUP_ACK_THRESHOLD, MIN_SSTHRESH, RTTVAR_GAIN, SRTT_GAIN,
                           Flow, TunnelPacket)
from mptunnel.reorder import (EqualizerLines, PathStats, ReorderBuffer,
                              adaptive_threshold)
from mptunnel.scheduler import Otias, otias_eta
from mptunnel.simcore import ARRIVAL, RECEIVER, EventQueue
from test_reorder import drive_buffer, per_arrival, pkt, reference_reorder

class CountingLossOracle:
    """Window and loss state of a flow by the direct rule: every outstanding
    packet keeps a count of acknowledged successors, bumped by a scan of the
    whole outstanding map on each ack, and is lost at three."""

    def __init__(self, cwnd, ssthresh):
        self.cwnd, self.ssthresh, self.credit = cwnd, ssthresh, 0.0
        self.in_flight = self.lost = self.recover = self.next_seq = 0
        self.queue = deque()
        self.sent, self.lost_seqs = [], []
        self.outstanding = OrderedDict()  # flow_seq -> [send_time, acks_seen_above]

    def enqueue(self, now):
        self.queue.append(self.next_seq)
        self.next_seq += 1
        self.pump(now)

    def pump(self, now):
        while self.queue and self.in_flight < self.cwnd:
            self.in_flight += 1
            seq = self.queue.popleft()
            self.sent.append(seq)
            self.outstanding[seq] = [now, 0]

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
        self.lost_seqs.append(seq)
        if seq >= self.recover:
            self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
            self.cwnd = self.ssthresh
            self.credit = 0.0
            self.recover = self.next_seq

    def timeout(self, now):
        for seq in list(self.outstanding):
            self.declare_lost(seq)
        self.pump(now)


class LossRecordingFlow(Flow):
    """A Flow that records each flow_seq it transmits and, in order, each
    one it gives up on (a declare_lost call that raised packets_lost)."""

    __slots__ = ("sent", "lost_seqs")

    def __init__(self, cwnd, ssthresh):
        super().__init__(0, 20_000.0, lambda pkt, now: self.sent.append(pkt.flow_seq))
        self.cwnd, self.ssthresh = cwnd, ssthresh
        self.sent, self.lost_seqs = [], []

    def declare_lost(self, flow_seq):
        lost = self.packets_lost
        super().declare_lost(flow_seq)
        if self.packets_lost > lost:
            self.lost_seqs.append(flow_seq)


# Equal sends and equal losses, in order, after every step pin the set of
# outstanding packets as well: it is what was sent and neither acked nor lost,
# and an ack counts (moves cwnd and in_flight) only for an outstanding packet.
def state(flow):
    return (flow.cwnd, flow.ssthresh, flow.in_flight, flow.packets_lost, flow.sent,
            flow.lost_seqs)


def oracle_state(oracle):
    return (oracle.cwnd, oracle.ssthresh, oracle.in_flight, oracle.lost, oracle.sent,
            oracle.lost_seqs)


# One step: (kind, pick, time advance). "ack" acknowledges the pick-th
# outstanding packet (reordered acks), "newest" the last one sent of those
# (overtaking acks, which open multi-packet gaps); "stale" acknowledges any
# flow_seq up to two past the last one sent (duplicate, late and unknown
# acks).
STEP = st.tuples(st.sampled_from(["send", "send", "ack", "ack", "newest", "stale",
                                  "timeout"]),
                 st.integers(0, 1 << 16), st.integers(1, 5_000))


@settings(max_examples=300)
@given(cwnd=st.sampled_from([2.0, 3.5, 8.0, 24.0]),
       ssthresh=st.sampled_from([2.0, 5.0, 16.0, 64.0]),
       steps=st.lists(STEP, min_size=10, max_size=150))
def test_loss_detection_matches_counting_oracle(cwnd, ssthresh, steps):
    flow = LossRecordingFlow(cwnd, ssthresh)
    oracle = CountingLossOracle(cwnd, ssthresh)
    now = 0
    for kind, pick, advance in steps:
        now += advance
        if kind == "send":
            flow.enqueue(TunnelPacket(oracle.next_seq, now), now)
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


def draw_arrivals(data):
    """Arbitrary seqs (gaps, reordering, duplicates) at non-decreasing times,
    with a threshold per arrival, so deadlines are not monotone in arrival
    order: (arrivals as (time, seq), thresholds)."""
    seqs = data.draw(st.lists(st.integers(0, 24), max_size=40))
    gaps = data.draw(st.lists(st.integers(0, 40), min_size=len(seqs), max_size=len(seqs)))
    thresholds = data.draw(st.lists(st.integers(0, 120), min_size=len(seqs),
                                    max_size=len(seqs)))
    times = [sum(gaps[:i + 1]) for i in range(len(seqs))]
    return list(zip(times, seqs)), thresholds


@settings(max_examples=300)
@given(st.data())
def test_heap_resequencer_matches_reference_with_per_arrival_thresholds(data):
    arrivals, thresholds = draw_arrivals(data)
    expected = reference_reorder(arrivals, thresholds)
    buf = ReorderBuffer()
    got = drive_buffer(arrivals, thresholds, buf)
    assert got == expected
    assert not buf.held
    released = {s for _, s, d in got if d != "late"}
    assert buf.gap_count == buf.expected_next - len(released)


@settings(max_examples=300)
@given(st.data())
def test_step_results_state_what_the_buffer_handed_its_sinks(data):
    # The benchmark's hooks read these results: on_arrival is True exactly
    # when it scheduled a deadline, and on_deadline counts the packets it
    # delivered, 0 for a released seq or a re-held duplicate.
    arrivals, thresholds = draw_arrivals(data)
    buf = ReorderBuffer()
    queue = EventQueue()
    delivered, scheduled = [], []

    def schedule(at_us, rank, fn, arg):
        scheduled.append((at_us, rank, fn, arg))
        queue.schedule(at_us, rank, fn, arg)

    def arrive(item, now):
        seq, threshold_us = item
        armed = len(scheduled)
        held = buf.on_arrival(pkt(seq), now, threshold_us)
        assert held is (len(scheduled) > armed)
        if held:
            assert scheduled[armed:] == [(buf.held[seq][2], RECEIVER, buf.on_deadline, seq)]

    buf.wire(lambda p, now, residency_us, d: delivered.append(p), schedule, None)
    for (t, s), th in zip(arrivals, thresholds):
        queue.schedule(t, ARRIVAL, arrive, (s, th))
    while (item := queue.pop()) is not None:
        at, _, _, fn, arg = item
        if fn is arrive:
            fn(arg, at)
            continue
        before, armed = len(delivered), len(scheduled)
        own_deadline = arg in buf.held and buf.held[arg][2] == at
        released = fn(arg, at)
        assert released == len(delivered) - before
        assert (released > 0) is own_deadline
        assert len(scheduled) == armed


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

    def extremes(self):
        """The largest and smallest srtt and the largest rttvar."""
        paths = sorted(self.stats)
        srtts = [self.stats[p][0] for p in paths]
        return max(srtts), min(srtts), max(self.stats[p][1] for p in paths)

    def target_delay_us(self, k):
        paths = sorted(self.stats)
        srtts = [self.stats[p][0] for p in paths]
        guard = k * max(self.stats[p][1] for p in paths)
        return max(srtts) / 2.0 + guard


REPORT = st.tuples(st.integers(0, 7),
                   st.one_of(st.integers(0, 4_000_000),
                             st.floats(0.0, 4e6, allow_nan=False)))


@settings(max_examples=300)
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
        kept = stats.srtt_max, stats.srtt_min, stats.rttvar_max
        assert [x.hex() for x in kept] == [x.hex() for x in oracle.extremes()]
        for p, (srtt, rttvar) in oracle.stats.items():
            assert stats.srtts[p].hex() == srtt.hex()
            assert stats.rttvars[p].hex() == rttvar.hex()


# Values a step may set directly, ints next to equal floats: the ETA is a
# float either way.
OTIAS_SETS = {"srtt_us": [1, 2.0, 20_000, 20_000.0, 31_250.5],
              "cwnd": [1, 2, 2.0, 3.5, 7, 7.0],
              "in_flight": [0, 1, 3, 7]}

# One step on the same long-lived flows, then a pick over the first n of
# them: (kind, flow index, choice, n).
OTIAS_STEP = st.tuples(
    st.sampled_from(["enqueue", "enqueue", "ack", "timeout", "none", *OTIAS_SETS]),
    st.integers(0, 4), st.integers(0, 1 << 16), st.integers(1, 5))


@settings(max_examples=300)
@given(steps=st.lists(OTIAS_STEP, min_size=1, max_size=120))
def test_otias_cache_matches_recomputed_etas(steps):
    # Each pick names the flow its step changed, as the engine does; a pick
    # over a new number of views names none and passes None instead.
    flows = [Flow(i, 10_000.0 * (i + 1), lambda pkt, now: None) for i in range(5)]
    otias = Otias()
    now = seq = 0
    n_before = None
    previous = None  # the previous pick's (full recompute, pick)
    for kind, i, choice, n in steps:
        now += 1_000
        flow = flows[i]
        if kind == "enqueue":
            flow.enqueue(TunnelPacket(seq, now), now)
            seq += 1
        elif kind == "ack":
            flow.ack_received(choice % max(1, flow.next_flow_seq), now)
        elif kind == "timeout":
            flow.on_timeout(now)
        elif kind in OTIAS_SETS:
            values = OTIAS_SETS[kind]
            setattr(flow, kind, values[choice % len(values)])
        views = flows[:n]
        if n != n_before:
            changed = None
        else:
            changed = [i] if i < n and kind != "none" else []
        n_before = n
        picked = otias.pick(views, changed)
        expected = tuple(map(otias_eta, views))
        assert len(otias.etas) == len(expected)
        for got, want in zip(otias.etas, expected):
            assert type(got) is type(want) and got.hex() == want.hex()
        assert picked == expected.index(min(expected))
        if changed is None:
            assert otias.moved == list(range(n))
        else:
            # moved names exactly the paths whose ETA changed value, and
            # while none does, the pick stands.
            expected_before, picked_before = previous
            assert sorted(otias.moved) == [j for j in range(n)
                                           if expected[j] != expected_before[j]]
            if not otias.moved:
                assert picked == picked_before
        previous = expected, picked
        # With nothing named, nothing moves and the pick stands.
        assert otias.pick(views, ()) == picked
        assert otias.moved == []
