import itertools

import pytest

from mptunnel.flow import TunnelPacket
from mptunnel.reorder import (EqualizerLines, PathStats, ReorderBuffer,
                              adaptive_threshold, static_threshold)
from mptunnel.simcore import ARRIVAL, RECEIVER, EventQueue

MAX_HOLD = 500_000


def pkt(seq, path_id=0, ingress=0, report=0):
    return TunnelPacket(seq, ingress, path_id=path_id,
                        sender_rtt_report=report)


def seqs(deliveries):
    return [p.overall_seq for p, _, _ in deliveries]


# -- thresholds ----------------------------------------------------------------


def test_static_threshold_values():
    assert static_threshold(50_000, 10_000) == 40_000
    assert static_threshold(20_000, 20_000) == 0
    assert static_threshold(100_000, 20_000) == 80_000


def warmed_stats(values):
    """PathStats warmed with constant reports so srtt equals the report and
    rttvar has decayed to (almost) nothing, then one spread-setting update."""
    stats = PathStats()
    for path_id, report in values.items():
        for _ in range(200):
            stats.update(path_id, report)
    return stats


def test_adaptive_threshold_formula():
    stats = PathStats()
    # First reports: srtt is the report and rttvar half of it.
    stats.update(0, 20_000)
    stats.update(1, 60_000)
    # Half the 40 ms spread, plus k times the larger rttvar (30 ms).
    assert adaptive_threshold(stats, 0.0, MAX_HOLD) == 20_000
    assert adaptive_threshold(stats, 4.0, MAX_HOLD) == 140_000


def test_adaptive_threshold_identical_paths_is_zero():
    stats = warmed_stats({0: 30_000, 1: 30_000})
    assert adaptive_threshold(stats, 4.0, MAX_HOLD) == pytest.approx(0.0, abs=1.0)


def test_adaptive_threshold_max_hold_until_two_paths_report():
    stats = PathStats()
    assert adaptive_threshold(stats, 4.0, MAX_HOLD) == MAX_HOLD
    stats.update(0, 20_000)
    assert adaptive_threshold(stats, 4.0, MAX_HOLD) == MAX_HOLD
    stats.update(1, 30_000)
    assert adaptive_threshold(stats, 4.0, MAX_HOLD) < MAX_HOLD


def test_adaptive_threshold_cap():
    stats = warmed_stats({0: 10_000})
    stats.update(1, 2_000_000)
    assert adaptive_threshold(stats, 4.0, MAX_HOLD) == MAX_HOLD


@pytest.mark.parametrize("spread_us", [MAX_HOLD - 0.5, float(MAX_HOLD), MAX_HOLD + 0.5])
def test_adaptive_threshold_cap_equals_the_builtin_expression(spread_us):
    stats = PathStats()
    # First reports: rttvar is half the report, and k = 0.0 drops the guard.
    stats.update(0, 0)
    stats.update(1, 2 * spread_us)
    threshold = adaptive_threshold(stats, 0.0, MAX_HOLD)
    assert type(threshold) is float
    assert threshold == min(spread_us + 0.0 * spread_us, float(MAX_HOLD))


def kept_extremes(stats):
    return stats.srtt_max, stats.srtt_min, stats.rttvar_max


def test_kept_extremes_follow_a_tied_holder_moving_inward():
    stats = PathStats()
    stats.update(0, 40_000)
    stats.update(1, 40_000)
    assert kept_extremes(stats) == (40_000, 40_000, 20_000)
    # Path 0 keeps its srtt, and its rttvar falls from the shared maximum.
    stats.update(0, 40_000)
    assert kept_extremes(stats) == (40_000, 40_000, 20_000)
    # Path 0 falls from the shared srtt maximum to 37.5 ms: path 1 holds it.
    stats.update(0, 20_000)
    assert kept_extremes(stats) == (40_000, 37_500, 20_000)
    # Path 1, alone at the maximum, falls below path 0.
    stats.update(1, 10_000)
    assert kept_extremes(stats) == (37_500, 36_250, 22_500)
    assert kept_extremes(stats) == (max(stats.srtts.values()), min(stats.srtts.values()),
                                    max(stats.rttvars.values()))


def test_adaptive_threshold_converges_after_latency_step():
    # EWMA-forward oracle: after a path's RTT steps 20 ms -> 60 ms, feeding
    # 50 reports converges the threshold to skew/2 plus the decayed guard.
    stats = warmed_stats({0: 20_000, 1: 20_000})
    reports = []
    srtt = 20_000.0
    for _ in range(50):
        srtt = 0.875 * srtt + 0.125 * 60_000   # sender-side smoothing
        reports.append(srtt)
    for r in reports:
        stats.update(1, r)
    got = adaptive_threshold(stats, 4.0, MAX_HOLD)
    # sender srtt is within 1% of 60 ms after 50 samples, so the one-way
    # skew estimate sits near (60-20)/2 = 20 ms; the guard adds on top.
    assert got == pytest.approx(20_000, rel=0.15)
    assert got >= 19_000


# -- resequencing buffer ---------------------------------------------------------


class Sinks:
    """The sinks a receiver is wired with, recording what it hands them:
    delivered (pkt, residency_us, disposition), discarded packets and
    scheduled (at_us, rank, fn, arg) events, each in call order."""

    def __init__(self, receiver):
        self.delivered, self.discarded, self.scheduled = [], [], []
        receiver.wire(
            lambda p, now, residency_us, d: self.delivered.append((p, residency_us, d)),
            lambda at_us, rank, fn, arg: self.scheduled.append((at_us, rank, fn, arg)),
            lambda p, now: self.discarded.append(p))

    def take(self):
        """The deliveries since the last take."""
        out, self.delivered = self.delivered, []
        return out


def test_gap_fill_delivers_in_order():
    buf = ReorderBuffer(expected_next=5)
    sinks = Sinks(buf)
    buf.on_arrival(pkt(5), 100, 10_000)
    assert seqs(sinks.take()) == [5]
    buf.on_arrival(pkt(7), 200, 10_000)
    assert sinks.take() == []
    buf.on_arrival(pkt(6), 300, 10_000)
    out3 = sinks.take()
    assert seqs(out3) == [6, 7]
    assert [d for _, _, d in out3] == ["inorder", "inorder"]
    assert out3[1][1] == 100  # packet 7 was held from t=200 to t=300


def test_in_order_fast_path_zero_residency():
    buf = ReorderBuffer(expected_next=5)
    sinks = Sinks(buf)
    p = pkt(5)
    assert buf.on_arrival(p, 1234, 10_000) is False
    assert sinks.take() == [(p, 0, "inorder")]
    assert sinks.scheduled == []


def test_timeout_gives_up_gap():
    buf = ReorderBuffer(expected_next=5)
    sinks = Sinks(buf)
    buf.on_arrival(pkt(6), 100, 10_000)
    buf.on_arrival(pkt(7), 200, 10_000)
    assert buf.held[6][2] == 10_100  # (pkt, arrival_us, deadline_us)
    assert sinks.scheduled == [(10_100, RECEIVER, buf.on_deadline, 6),
                               (10_200, RECEIVER, buf.on_deadline, 7)]
    assert buf.on_deadline(6, 10_100) == 2
    out = sinks.take()
    assert seqs(out) == [6, 7]
    assert all(d == "timeout" for _, _, d in out)
    assert buf.expected_next == 8
    assert buf.gap_count == 1


def test_deadline_releases_only_expired_and_below():
    buf = ReorderBuffer(expected_next=6)
    sinks = Sinks(buf)
    buf.on_arrival(pkt(7), 100, 5_000)     # deadline 5100
    buf.on_arrival(pkt(9), 4000, 50_000)   # deadline 54000
    buf.on_deadline(7, 5_100)
    assert seqs(sinks.take()) == [7]
    assert buf.expected_next == 8
    assert 9 in buf.held
    assert buf.on_deadline(9, 5_200) == 0   # 9 is held until 54000
    assert buf.on_deadline(7, 5_200) == 0   # 7 was already released
    assert sinks.take() == []
    buf.on_deadline(9, 54_000)
    assert seqs(sinks.take()) == [9]


def test_deadline_flushes_consecutive_above_gap():
    buf = ReorderBuffer(expected_next=5)
    sinks = Sinks(buf)
    buf.on_arrival(pkt(6), 100, 3_000)      # deadline 3100
    buf.on_arrival(pkt(7), 200, 50_000)
    buf.on_arrival(pkt(9), 300, 50_000)
    buf.on_deadline(6, 3_100)
    # 6 expired; 7 is consecutive behind it, 9 still waits for 8
    assert seqs(sinks.take()) == [6, 7]
    assert buf.expected_next == 8
    assert 9 in buf.held


@pytest.mark.parametrize("threshold_us, expected", [
    (24_000.5, 24_000), (24_001.5, 24_002), (0.5, 0)])  # ties, to the even neighbour
def test_hold_deadline_equals_the_builtin_expression(threshold_us, expected):
    buf = ReorderBuffer()
    sinks = Sinks(buf)
    assert buf.on_arrival(pkt(1), 1_000, threshold_us) is True
    assert sinks.take() == []
    deadline = buf.held[1][2]
    assert type(deadline) is int
    assert deadline == 1_000 + int(round(threshold_us)) == 1_000 + expected
    assert sinks.scheduled == [(deadline, RECEIVER, buf.on_deadline, 1)]


def test_late_packet_delivered_out_of_band():
    buf = ReorderBuffer(expected_next=5)
    sinks = Sinks(buf)
    buf.on_arrival(pkt(6), 100, 1_000)
    buf.on_deadline(6, 1_100)
    sinks.take()
    assert buf.on_arrival(pkt(5), 2_000, 1_000) is False
    out = sinks.take()
    assert [(s, d) for s, d in zip(seqs(out), [o[2] for o in out])] == [(5, "late")]
    assert buf.expected_next == 7


def test_no_expired_deadline_returns_empty():
    buf = ReorderBuffer(expected_next=0)
    sinks = Sinks(buf)
    buf.on_arrival(pkt(1), 100, 10_000)
    assert buf.on_deadline(1, 5_000) == 0
    assert sinks.take() == []


def test_deadline_of_a_re_held_duplicate_is_a_no_op():
    buf = ReorderBuffer(expected_next=0)
    sinks = Sinks(buf)
    buf.on_arrival(pkt(2), 100, 1_000)     # deadline 1100
    buf.on_arrival(pkt(2), 600, 1_000)     # the duplicate re-holds it until 1600
    assert [at for at, *_ in sinks.scheduled] == [1_100, 1_600]
    assert buf.on_deadline(2, 1_100) == 0
    assert sinks.take() == []
    assert buf.on_deadline(2, 1_600) == 1
    assert seqs(sinks.take()) == [2]


def test_never_delivers_a_seq_twice_in_order():
    buf = ReorderBuffer()
    sinks = Sinks(buf)
    stream = [(0, 0), (2, 10), (1, 20), (3, 30), (5, 40), (4, 45), (6, 50)]
    for seq, t in stream:
        buf.on_arrival(pkt(seq), t, 100)
    delivered = [(p.overall_seq, d) for p, _, d in sinks.take()]
    in_order = [s for s, d in delivered if d != "late"]
    assert in_order == sorted(in_order)
    assert len(set(in_order)) == len(in_order)


# -- exhaustive equivalence against a reference reorderer --------------------------


def per_arrival(arrivals, threshold):
    """(time, seq, threshold) triples; threshold is one number for every
    arrival or a list with one per arrival."""
    if not isinstance(threshold, list):
        threshold = [threshold] * len(arrivals)
    return [(t, s, th) for (t, s), th in zip(arrivals, threshold)]


def reference_reorder(arrivals, threshold):
    """Brute-force reference: chronological scan with full recomputation.

    arrivals is a list of (time, seq); threshold is a number or a list with
    one per arrival. Returns (time, seq, disposition) tuples. Deadlines
    strictly before an arrival fire first; one at an arrival's time fires
    after it, as the engine ranks arrivals before receiver events.
    """
    held = {}
    expected = 0
    out = []

    def fire_deadlines(up_to):
        nonlocal expected
        while True:
            expired = sorted((d, s) for s, (a, d) in held.items() if d < up_to)
            if not expired:
                return
            fire_at = expired[0][0]
            batch_hi = max(s for d, s in expired if d == fire_at)
            for s in sorted(s for s in held if s <= batch_hi):
                held.pop(s)
                out.append((fire_at, s, "timeout"))
            expected = batch_hi + 1
            while expected in held:
                held.pop(expected)
                out.append((fire_at, expected, "timeout"))
                expected += 1

    for t, s, th in per_arrival(arrivals, threshold):
        fire_deadlines(t)
        if s < expected:
            out.append((t, s, "late"))
        elif s == expected:
            out.append((t, s, "inorder"))
            expected += 1
            while expected in held:
                held.pop(expected)
                out.append((t, expected, "inorder"))
                expected += 1
        else:
            held[s] = (t, t + th)
    fire_deadlines(float("inf"))
    return out


def drive_buffer(arrivals, threshold, buf=None):
    """Feed arrivals to a ReorderBuffer as the engine does: each arrival is
    an event of rank ARRIVAL on an EventQueue the buffer is wired to, so the
    buffer schedules its own deadlines there, and one at an arrival's time
    fires after it. Same arguments and result shape as reference_reorder."""
    buf = ReorderBuffer() if buf is None else buf
    out = []
    queue = EventQueue()
    buf.wire(lambda p, now, residency_us, d: out.append((now, p.overall_seq, d)),
             queue.schedule, None)

    def arrive(item, now):
        seq, threshold_us = item
        buf.on_arrival(pkt(seq), now, threshold_us)

    for t, s, th in per_arrival(arrivals, threshold):
        queue.schedule(t, ARRIVAL, arrive, (s, th))
    while (item := queue.pop()) is not None:
        at, _, _, fn, arg = item
        fn(arg, at)
    return out


def test_exhaustive_permutations_match_reference():
    """Every arrival order of up to 6 packets with at most one loss, at
    several thresholds, agrees with the brute-force reference exactly."""
    mismatches = 0
    cases = 0
    for n in range(2, 7):
        for lost in [None] + list(range(n)):
            present = [s for s in range(n) if s != lost]
            for perm in itertools.permutations(present):
                arrivals = [(10 + 7 * i, s) for i, s in enumerate(perm)]
                for threshold in (3, 15, 1000):
                    cases += 1
                    if (drive_buffer(arrivals, threshold)
                            != reference_reorder(arrivals, threshold)):
                        mismatches += 1
    assert cases == 5232   # 2 * (2!+3!+4!+5!+6!) permutations, 3 thresholds
    assert mismatches == 0


def test_bounded_holding_never_exceeds_threshold():
    import random
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(3, 12)
        lost = rng.randrange(n) if rng.random() < 0.4 else None
        present = [s for s in range(n) if s != lost]
        rng.shuffle(present)
        threshold = rng.choice([5, 40, 200])
        arrivals = [(i * 9, s) for i, s in enumerate(present)]
        arrived = {s: t for t, s in arrivals}
        out = drive_buffer(arrivals, threshold)
        assert all(t - arrived[s] <= threshold for t, s, _ in out)


# -- delay equalization ------------------------------------------------------------


def equalizer(stats, max_hold_us=MAX_HOLD):
    """EqualizerLines reading stats, wired to recording Sinks."""
    lines = EqualizerLines(k=4.0, max_hold_us=max_hold_us)
    lines.stats = stats
    return lines, Sinks(lines)


def test_equalizer_adds_skew_on_fast_path():
    stats = warmed_stats({0: 20_000, 1: 100_000})  # one-way 10 ms and 50 ms
    lines, sinks = equalizer(stats)
    lines.on_arrival(pkt(0, path_id=0, ingress=0), 10_000)
    lines.on_arrival(pkt(1, path_id=1, ingress=0), 50_000)
    (fast, *_), (slow, *_) = sinks.scheduled
    assert fast - 10_000 == pytest.approx(40_000, abs=10)
    assert slow - 50_000 == pytest.approx(0, abs=10)


@pytest.mark.parametrize("added_us, expected", [
    (-0.0, 0), (0.0, 0), (-0.75, 0), (2_500.5, 2_500),  # a tie, to the even neighbour
    (10_000.0, 10_000), (10_000.5, 10_000), (10_001.5, 10_000)])
def test_equalizer_release_equals_the_builtin_expression(added_us, expected):
    stats = PathStats()
    stats.update(0, 0)  # a first report: srtt 0.0
    lines, sinks = equalizer(stats, max_hold_us=10_000)
    # The arriving path reports an srtt of 0, so the added delay is the target.
    lines.target_delay_us = lambda stats: added_us
    p = pkt(0, ingress=5_000)
    lines.on_arrival(p, 5_000)
    [(release, rank, fn, arg)] = sinks.scheduled
    assert type(release) is int
    reference = min(max(added_us - 0.0 / 2.0, 0.0), float(10_000))
    assert release == 5_000 + int(round(reference)) == 5_000 + expected
    assert rank == RECEIVER
    fn(arg, release)
    assert sinks.delivered == [(p, release - 5_000, "inorder")]


def test_equalizer_symmetric_paths_add_nothing():
    lines, sinks = equalizer(warmed_stats({0: 40_000, 1: 40_000}))
    lines.on_arrival(pkt(0, path_id=0, ingress=0), 20_000)
    [(t, *_)] = sinks.scheduled
    assert t == pytest.approx(20_000, abs=10)


def test_equalizer_releases_stay_fifo_per_flow():
    stats = warmed_stats({0: 20_000, 1: 100_000})
    lines, sinks = equalizer(stats)
    lines.on_arrival(pkt(0, path_id=0, ingress=0), 10_000)
    # the target shrinks sharply before the next packet shows up
    for _ in range(300):
        stats.update(1, 20_000)
    lines.on_arrival(pkt(1, path_id=0, ingress=1_000), 11_000)
    (first, *_), (second, *_) = sinks.scheduled
    assert second >= first


def test_equalizer_discards_hopelessly_late_packet():
    lines, sinks = equalizer(warmed_stats({0: 20_000, 1: 100_000}), max_hold_us=10_000)
    # end-to-end delay 300 ms against a 50 ms target and 10 ms slack
    p = pkt(0, path_id=1, ingress=0)
    lines.on_arrival(p, 300_000)
    assert sinks.discarded == [p]
    assert sinks.scheduled == []


def test_equalizer_conservation_released_plus_discarded():
    lines, sinks = equalizer(warmed_stats({0: 20_000, 1: 100_000}), max_hold_us=10_000)
    arrived = []
    for i in range(40):
        ingress = i * 8_000
        late = i % 7 == 3
        at = ingress + (400_000 if late else 12_000)
        lines.on_arrival(pkt(i, path_id=0, ingress=ingress), at)
        arrived.append(at)
    discarded = len(sinks.discarded)
    released = sum(1 for release, _, _, (p, _) in sinks.scheduled
                   if release >= arrived[p.overall_seq])
    assert released + discarded == 40
    assert discarded > 0
