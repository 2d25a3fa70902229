import itertools

import pytest

from mptunnel.flow import TunnelPacket
from mptunnel.reorder import (EqualizerLines, PathStats, ReorderBuffer,
                              adaptive_threshold, static_threshold)

MAX_HOLD = 500_000


def pkt(seq, path_id=0, ingress=0, report=0):
    return TunnelPacket(seq, 1000, ingress, path_id=path_id,
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
    # construct exact srtt/rttvar states via direct sampling
    stats.update(0, 20_000)
    stats.update(1, 60_000)
    # force rttvar to 1 ms on both paths, srtt stays at the report values
    stats.rttvars[:] = [1000.0, 1000.0]
    assert adaptive_threshold(stats, 4.0, MAX_HOLD) == pytest.approx(24_000)


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


def test_gap_fill_delivers_in_order():
    buf = ReorderBuffer(expected_next=5)
    out1 = buf.on_arrival(pkt(5), 100, 10_000)
    out2 = buf.on_arrival(pkt(7), 200, 10_000)
    out3 = buf.on_arrival(pkt(6), 300, 10_000)
    assert seqs(out1) == [5]
    assert seqs(out2) == []
    assert seqs(out3) == [6, 7]
    assert [d for _, _, d in out3] == ["inorder", "inorder"]
    assert out3[1][1] == 100  # packet 7 was held from t=200 to t=300


def test_in_order_fast_path_zero_residency():
    buf = ReorderBuffer(expected_next=5)
    out = buf.on_arrival(pkt(5), 1234, 10_000)
    assert out == [(out[0][0], 0, "inorder")]


def test_timeout_gives_up_gap():
    buf = ReorderBuffer(expected_next=5)
    buf.on_arrival(pkt(6), 100, 10_000)
    buf.on_arrival(pkt(7), 200, 10_000)
    assert buf.next_deadline() == 10_100
    out = buf.on_deadline(10_100)
    assert seqs(out) == [6, 7]
    assert all(d == "timeout" for _, _, d in out)
    assert buf.expected_next == 8
    assert buf.gap_count == 1


def test_deadline_releases_only_expired_and_below():
    buf = ReorderBuffer(expected_next=6)
    buf.on_arrival(pkt(7), 100, 5_000)     # deadline 5100
    buf.on_arrival(pkt(9), 4000, 50_000)   # deadline 54000
    out = buf.on_deadline(5_100)
    assert seqs(out) == [7]
    assert buf.expected_next == 8
    assert 9 in buf.held
    assert buf.on_deadline(5_200) == []
    out2 = buf.on_deadline(54_000)
    assert seqs(out2) == [9]


def test_deadline_flushes_consecutive_above_gap():
    buf = ReorderBuffer(expected_next=5)
    buf.on_arrival(pkt(6), 100, 3_000)      # deadline 3100
    buf.on_arrival(pkt(7), 200, 50_000)
    buf.on_arrival(pkt(9), 300, 50_000)
    out = buf.on_deadline(3_100)
    # 6 expired; 7 is consecutive behind it, 9 still waits for 8
    assert seqs(out) == [6, 7]
    assert buf.expected_next == 8
    assert 9 in buf.held


def test_late_packet_delivered_out_of_band():
    buf = ReorderBuffer(expected_next=5)
    buf.on_arrival(pkt(6), 100, 1_000)
    buf.on_deadline(1_100)
    out = buf.on_arrival(pkt(5), 2_000, 1_000)
    assert [(s, d) for s, d in zip(seqs(out), [o[2] for o in out])] == [(5, "late")]
    assert buf.late_count == 1
    assert buf.expected_next == 7


def test_no_expired_deadline_returns_empty():
    buf = ReorderBuffer(expected_next=0)
    buf.on_arrival(pkt(1), 100, 10_000)
    assert buf.on_deadline(5_000) == []


def test_never_delivers_a_seq_twice_in_order():
    buf = ReorderBuffer()
    delivered = []
    stream = [(0, 0), (2, 10), (1, 20), (3, 30), (5, 40), (4, 45), (6, 50)]
    for seq, t in stream:
        for p, _, d in buf.on_arrival(pkt(seq), t, 100):
            delivered.append((p.overall_seq, d))
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
    strictly before or at an arrival fire first.
    """
    held = {}
    expected = 0
    out = []

    def fire_deadlines(up_to):
        nonlocal expected
        while True:
            expired = sorted((d, s) for s, (a, d) in held.items() if d <= up_to)
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
    """Feed arrivals to a ReorderBuffer, firing its deadlines in time order;
    same arguments and result shape as reference_reorder."""
    buf = ReorderBuffer() if buf is None else buf
    out = []

    def fire(up_to):
        while True:
            nd = buf.next_deadline()
            if nd is None or nd > up_to:
                return
            for p, _, d in buf.on_deadline(nd):
                out.append((nd, p.overall_seq, d))

    for t, s, th in per_arrival(arrivals, threshold):
        fire(t)
        for p, _, d in buf.on_arrival(pkt(s), t, th):
            out.append((t, p.overall_seq, d))
    fire(10 ** 12)
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
        buf = ReorderBuffer()
        residencies = []

        def fire(up_to):
            while (nd := buf.next_deadline()) is not None and nd <= up_to:
                residencies.extend(r for _, r, _ in buf.on_deadline(nd))

        for t, s in arrivals:
            fire(t)
            residencies.extend(r for _, r, _ in buf.on_arrival(pkt(s), t, threshold))
        fire(10 ** 9)
        assert all(r <= threshold for r in residencies)


# -- delay equalization ------------------------------------------------------------


def test_equalizer_adds_skew_on_fast_path():
    stats = warmed_stats({0: 20_000, 1: 100_000})  # one-way 10 ms and 50 ms
    lines = EqualizerLines(k=4.0, max_hold_us=MAX_HOLD)
    fast = lines.on_arrival(pkt(0, path_id=0, ingress=0), 10_000, stats)
    slow = lines.on_arrival(pkt(1, path_id=1, ingress=0), 50_000, stats)
    assert fast - 10_000 == pytest.approx(40_000, abs=10)
    assert slow - 50_000 == pytest.approx(0, abs=10)


def test_equalizer_symmetric_paths_add_nothing():
    stats = warmed_stats({0: 40_000, 1: 40_000})
    lines = EqualizerLines(k=4.0, max_hold_us=MAX_HOLD)
    t = lines.on_arrival(pkt(0, path_id=0, ingress=0), 20_000, stats)
    assert t == pytest.approx(20_000, abs=10)


def test_equalizer_releases_stay_fifo_per_flow():
    stats = warmed_stats({0: 20_000, 1: 100_000})
    lines = EqualizerLines(k=4.0, max_hold_us=MAX_HOLD)
    first = lines.on_arrival(pkt(0, path_id=0, ingress=0), 10_000, stats)
    # the target shrinks sharply before the next packet shows up
    for _ in range(300):
        stats.update(1, 20_000)
    second = lines.on_arrival(pkt(1, path_id=0, ingress=1_000), 11_000, stats)
    assert second >= first


def test_equalizer_discards_hopelessly_late_packet():
    stats = warmed_stats({0: 20_000, 1: 100_000})
    lines = EqualizerLines(k=4.0, max_hold_us=10_000)
    # end-to-end delay 300 ms against a 50 ms target and 10 ms slack
    verdict = lines.on_arrival(pkt(0, path_id=1, ingress=0), 300_000, stats)
    assert verdict == EqualizerLines.DISCARD


def test_equalizer_conservation_released_plus_discarded():
    stats = warmed_stats({0: 20_000, 1: 100_000})
    lines = EqualizerLines(k=4.0, max_hold_us=10_000)
    outcomes = []
    for i in range(40):
        ingress = i * 8_000
        late = i % 7 == 3
        at = ingress + (400_000 if late else 12_000)
        release = lines.on_arrival(pkt(i, path_id=0, ingress=ingress), at, stats)
        outcomes.append((release, at))
    discarded = sum(1 for release, _ in outcomes if release == EqualizerLines.DISCARD)
    released = sum(1 for release, at in outcomes if release >= at)
    assert released + discarded == 40
    assert discarded > 0
