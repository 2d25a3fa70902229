import random
from collections import namedtuple

import pytest

from mptunnel.flow import (Flow, HEADER_LEN, MIN_TIMEOUT_US, RTT_REPORT_MAX,
                           TIMEOUT_RTT_MULTIPLE, TunnelPacket, encode_header, smooth_rtt)

HeaderFields = namedtuple(
    "HeaderFields", "version path_id overall_seq sender_rtt_report flow_seq_low32")


def decode_header(buf: bytes) -> HeaderFields:
    """The header codec's oracle: the fields of a 16-byte header, read by
    the README's layout, version(1) | path_id(1) | overall_seq(6) |
    rtt_report_us(4) | flow_seq_low32(4), network byte order."""
    if len(buf) < HEADER_LEN:
        raise ValueError(f"header needs {HEADER_LEN} bytes, got {len(buf)}")
    return HeaderFields(
        version=buf[0],
        path_id=buf[1],
        overall_seq=int.from_bytes(buf[2:8], "big"),
        sender_rtt_report=int.from_bytes(buf[8:12], "big"),
        flow_seq_low32=int.from_bytes(buf[12:16], "big"),
    )


def make_flow(prior_rtt_us=20_000.0):
    sent = []
    flow = Flow(0, prior_rtt_us, lambda pkt, now: sent.append((pkt, now)))
    return flow, sent


def feed(flow, n, now=0):
    for i in range(n):
        flow.enqueue(TunnelPacket(i, now), now)


# -- header codec -------------------------------------------------------------


def test_header_zero_packet_bytes():
    pkt = TunnelPacket(0, 0, path_id=0, flow_seq=0, sender_rtt_report=0)
    assert encode_header(pkt) == bytes.fromhex("01" + "00" * 15)
    assert len(encode_header(pkt)) == HEADER_LEN


def test_header_overall_seq_wraps():
    pkt = TunnelPacket((1 << 48) - 1, 0)
    fields = decode_header(encode_header(pkt))
    assert fields.overall_seq == (1 << 48) - 1
    pkt2 = TunnelPacket((1 << 48), 0)
    assert decode_header(encode_header(pkt2)).overall_seq == 0


def test_header_cuts_sequence_numbers_to_their_wire_widths():
    # The simulator's sequence numbers are unbounded; the header alone
    # carries the low 48 bits of overall_seq and the low 32 of flow_seq.
    pkt = TunnelPacket((1 << 48) + 3, 0, flow_seq=(1 << 32) + 7)
    fields = decode_header(encode_header(pkt))
    assert (fields.overall_seq, fields.flow_seq_low32) == (3, 7)


def test_header_rtt_report_saturates():
    pkt = TunnelPacket(0, 0, sender_rtt_report=(1 << 33))
    assert decode_header(encode_header(pkt)).sender_rtt_report == (1 << 32) - 1


def test_header_round_trip_randomized():
    rng = random.Random(42)
    for _ in range(300):
        pkt = TunnelPacket(
            overall_seq=rng.randrange(1 << 48),
            ingress_time=0,
            path_id=rng.randrange(256),
            flow_seq=rng.randrange(1 << 48),
            sender_rtt_report=rng.randrange(1 << 32),
        )
        fields = decode_header(encode_header(pkt))
        assert fields.version == 1
        assert fields.path_id == pkt.path_id
        assert fields.overall_seq == pkt.overall_seq
        assert fields.sender_rtt_report == pkt.sender_rtt_report
        assert fields.flow_seq_low32 == pkt.flow_seq & 0xFFFFFFFF


def test_header_rejects_short_buffer():
    with pytest.raises(ValueError):
        decode_header(b"\x01\x00")


# -- RTT estimation -----------------------------------------------------------


def test_rtt_first_sample_initializes():
    assert smooth_rtt(None, 0.0, 20_000) == (20_000, 10_000)


def test_rtt_ewma_step():
    srtt, rttvar = smooth_rtt(None, 0.0, 80_000)
    srtt, rttvar = smooth_rtt(srtt, rttvar, 160_000)
    assert srtt == pytest.approx(90_000)


def test_rtt_fixed_point_and_var_decay():
    srtt, rttvar = None, 0.0
    for _ in range(60):
        srtt, rttvar = smooth_rtt(srtt, rttvar, 50_000)
    assert srtt == pytest.approx(50_000)
    assert rttvar < 1.0


def test_srtt_converges_within_one_percent_in_50_samples():
    srtt, rttvar = smooth_rtt(None, 0.0, 200_000)  # start far away from the true value
    true_rtt = 30_000
    for _ in range(50):
        srtt, rttvar = smooth_rtt(srtt, rttvar, true_rtt)
    assert abs(srtt - true_rtt) < 0.01 * true_rtt


def test_prior_rtt_used_until_first_sample():
    flow, _ = make_flow(prior_rtt_us=44_000)
    feed(flow, 1)
    assert (flow.srtt_us, flow.rttvar_us) == (44_000, 0.0)
    flow.ack_received(0, 10_000)
    assert (flow.srtt_us, flow.rttvar_us) == (10_000, 5_000)


def test_ack_smooths_its_sample_with_smooth_rtt():
    # The flow smooths each ack's sample, now minus its send time, as the
    # receiver smooths a report: by smooth_rtt, from the first sample on.
    flow, sent = make_flow()
    flow.cwnd = 64.0
    feed(flow, 20)
    expected = (None, 0.0)
    for pkt, sent_at in sent:
        now = 10_000 * (pkt.flow_seq + 1) + 997 * (pkt.flow_seq % 5)
        flow.ack_received(pkt.flow_seq, now)
        expected = smooth_rtt(*expected, now - sent_at)
        assert (flow.srtt_us, flow.rttvar_us) == expected


# -- window discipline --------------------------------------------------------


def test_enqueue_transmits_immediately_with_room():
    flow, sent = make_flow()
    flow.cwnd = 10.0
    feed(flow, 1)
    assert len(sent) == 1
    assert flow.in_flight == 1
    assert not flow.send_queue


def test_enqueue_holds_when_window_full():
    flow, sent = make_flow()
    flow.cwnd = 2.0
    feed(flow, 3)
    assert len(sent) == 2
    assert flow.in_flight == 2
    assert len(flow.send_queue) == 1


def test_send_queue_preserves_fifo():
    flow, sent = make_flow()
    flow.cwnd = 1.0
    feed(flow, 4)
    assert [p.overall_seq for p in flow.send_queue] == [1, 2, 3]
    flow.ack_received(0, 30_000)   # slow start opens the window to 2
    assert [p.overall_seq for p, _ in sent] == [0, 1, 2]


def test_flow_seq_stamped_in_order():
    flow, sent = make_flow()
    flow.cwnd = 8.0
    feed(flow, 5)
    assert [p.flow_seq for p, _ in sent] == [0, 1, 2, 3, 4]


def test_rtt_report_stamped_from_current_estimate():
    flow, sent = make_flow(prior_rtt_us=36_000)
    feed(flow, 1)
    assert sent[0][0].sender_rtt_report == 36_000


def test_rtt_report_is_the_rounded_srtt_at_enqueue():
    flow, sent = make_flow(prior_rtt_us=36_000)
    flow.cwnd = 8.0
    feed(flow, 2)
    flow.ack_received(0, 36_000)
    flow.ack_received(1, 36_003)  # srtt 36_000.375 rounds to the same report
    feed(flow, 1)
    flow.srtt_us = 50_000.4  # set from outside, read at stamp time
    feed(flow, 2)
    reports = [pkt.sender_rtt_report for pkt, _ in sent]
    assert reports == [36_000, 36_000, 36_000, 50_000, 50_000]


# Floats become whole microseconds by round (half to even), and the RTT
# report's cap and the timeout's floor are comparisons. Each test keeps the
# builtin expression they replaced as the reference, at its ties and edges.


@pytest.mark.parametrize("srtt_us, expected", [
    (RTT_REPORT_MAX - 0.5, RTT_REPORT_MAX - 1),  # a tie, to the even neighbour
    (float(RTT_REPORT_MAX), RTT_REPORT_MAX),
    (RTT_REPORT_MAX + 0.5, RTT_REPORT_MAX),
    (2.0 ** 40, RTT_REPORT_MAX),
])
def test_rtt_report_equals_the_builtin_expression(srtt_us, expected):
    flow, sent = make_flow(prior_rtt_us=srtt_us)
    feed(flow, 1)
    report = sent[0][0].sender_rtt_report
    assert type(report) is int
    assert report == min(int(round(srtt_us)), RTT_REPORT_MAX) == expected


@pytest.mark.parametrize("four_srtt_us, expected", [
    (199_999.5, 200_000),  # rounds up to the floor
    (200_000.0, 200_000),
    (200_000.5, 200_000),  # a tie, to the even neighbour
    (250_000.5, 250_000),
])
def test_timeout_deadline_equals_the_builtin_expression(four_srtt_us, expected):
    flow, _ = make_flow(prior_rtt_us=four_srtt_us / 4)
    assert TIMEOUT_RTT_MULTIPLE * flow.srtt_us == four_srtt_us
    deadline = flow.timeout_deadline_us(1_000)
    assert type(deadline) is int
    assert deadline == 1_000 + max(int(round(TIMEOUT_RTT_MULTIPLE * flow.srtt_us)),
                                   MIN_TIMEOUT_US) == 1_000 + expected


# -- congestion control -------------------------------------------------------


def test_slow_start_increments_per_ack():
    flow, _ = make_flow()
    flow.cwnd, flow.ssthresh = 4.0, 64.0
    feed(flow, 1)
    flow.ack_received(0, 20_000)
    assert flow.cwnd == 5.0


def test_congestion_avoidance_one_per_window():
    flow, _ = make_flow()
    flow.cwnd, flow.ssthresh = 10.0, 10.0
    feed(flow, 10)
    for seq in range(10):
        flow.ack_received(seq, 20_000 + seq)
    assert flow.cwnd == 11.0


def test_ack_frees_window_and_pumps_queue():
    flow, sent = make_flow()
    flow.cwnd = 2.0
    feed(flow, 3)
    flow.ack_received(0, 25_000)
    assert len(sent) == 3
    assert sent[-1][1] == 25_000


def test_duplicate_and_unknown_acks_ignored():
    flow, _ = make_flow()
    flow.cwnd = 4.0
    feed(flow, 2)
    flow.ack_received(0, 20_000)
    cwnd = flow.cwnd
    flow.ack_received(0, 21_000)      # duplicate
    flow.ack_received(99, 22_000)     # unknown
    assert flow.cwnd == cwnd
    assert flow.in_flight == 1


def test_loss_halves_window():
    flow, _ = make_flow()
    flow.cwnd, flow.ssthresh = 10.0, 64.0
    flow.on_loss(0)
    assert flow.cwnd == 5.0
    assert flow.ssthresh == 5.0


def test_loss_floor_at_two():
    flow, _ = make_flow()
    flow.cwnd = 2.0
    flow.on_loss(0)
    assert flow.cwnd == 2.0


def test_two_losses_in_one_round_trip_halve_once():
    # Scripted trace: packets 0..9 outstanding, losses reported for two of
    # them back to back; only the first may halve.
    flow, sent = make_flow()
    flow.cwnd = 16.0
    feed(flow, 10)
    flow.declare_lost(2)
    assert flow.cwnd == 8.0
    flow.declare_lost(5)
    assert flow.cwnd == 8.0
    # a loss of a packet sent after the halving halves again
    flow.ack_received(0, 20_000)
    flow.ack_received(1, 21_000)
    feed(flow, 2)                    # flow_seq 10, 11 go straight out
    assert [pkt.flow_seq for pkt, _ in sent[10:]] == [10, 11]
    assert (flow.in_flight, flow.packets_lost) == (8, 2)
    flow.declare_lost(10)
    assert (flow.in_flight, flow.packets_lost) == (7, 3)  # 10 was outstanding
    assert flow.cwnd == 4.0


def test_gap_of_three_acks_declares_loss():
    flow, _ = make_flow()
    flow.cwnd = 16.0
    feed(flow, 6)
    before = flow.cwnd
    flow.ack_received(1, 21_000)
    flow.ack_received(2, 22_000)
    assert flow.packets_lost == 0
    flow.ack_received(3, 23_000)   # third ack above seq 0
    assert flow.packets_lost == 1
    assert flow.cwnd < before
    # 0 is no longer outstanding: 6 sent, 3 acked and 0 lost leave 2 in
    # flight, and 0 can be neither lost nor acked again; declare_lost takes
    # only an outstanding flow_seq.
    assert flow.in_flight == 2
    with pytest.raises(KeyError):
        flow.declare_lost(0)
    flow.ack_received(0, 24_000)
    assert (flow.in_flight, flow.packets_lost) == (2, 1)


def test_timeout_declares_all_outstanding_lost():
    flow, _ = make_flow()
    flow.cwnd = 8.0
    feed(flow, 4)
    assert flow.on_timeout(500_000) is None
    assert flow.packets_lost == 4
    assert flow.in_flight == 0
    assert flow.cwnd == 4.0  # single halving


def test_window_never_exceeded_at_transmission():
    # A send may start only while in_flight < cwnd; the flow has already
    # counted the packet in flight when the transmit callback runs.
    violations, sent = [], []

    def transmit(pkt, now):
        if flow.in_flight - 1 >= flow.cwnd:
            violations.append(pkt.flow_seq)
        sent.append(pkt.flow_seq)

    flow = Flow(0, 20_000.0, transmit)
    flow.cwnd = 3.0
    rng = random.Random(7)
    now = 0
    seq = 0
    acked = 0  # acks go oldest first, so sent[acked] is the oldest outstanding
    for _ in range(400):
        now += rng.randrange(1, 5000)
        if rng.random() < 0.6:
            flow.enqueue(TunnelPacket(seq, now), now)
            seq += 1
        elif flow.in_flight:
            flow.ack_received(sent[acked], now)
            acked += 1
        assert flow.in_flight == len(sent) - acked
    assert seq > 200
    assert flow.packets_lost == 0
    assert violations == []


def test_aimd_trajectory_matches_scripted_oracle():
    # Mirror of the stated growth and halving rules, evolved independently
    # over a 40-event trace.
    events = (["ack"] * 5 + ["loss"] + ["ack"] * 12 + ["loss"] +
              ["ack"] * 20 + ["loss"] + ["ack"])

    def oracle(events):
        cwnd, ssthresh, credit = 2.0, 64.0, 0.0
        out = []
        for ev in events:
            if ev == "ack":
                if cwnd < ssthresh:
                    cwnd += 1.0
                else:
                    credit += 1.0
                    if credit >= cwnd:
                        credit -= cwnd
                        cwnd += 1.0
            else:
                ssthresh = max(cwnd / 2.0, 2.0)
                cwnd = ssthresh
                credit = 0.0
            out.append(cwnd)
        return out

    flow, _ = make_flow()
    trace = []
    now = 0
    next_seq = 0
    for ev in events:
        now += 1000
        if ev == "ack":
            flow.enqueue(TunnelPacket(next_seq, now), now)
            flow.ack_received(next_seq, now + 1)
            next_seq += 1
        else:
            flow.enqueue(TunnelPacket(next_seq, now), now)
            flow.declare_lost(next_seq)
            next_seq += 1
        trace.append(flow.cwnd)

    expected = oracle(events)
    assert trace == pytest.approx(expected)
    # halvings land exactly on the loss events
    for i, ev in enumerate(events):
        if ev == "loss":
            assert trace[i] == pytest.approx(trace[i - 1] / 2.0)


def test_flow_crossing_2_48_sees_in_order_acks_in_order():
    # A flow's sequence numbers go on past 2^48 as plain ints, so packets
    # acked in the order they were sent are neither lost nor halve the window.
    flow, sent = make_flow()
    flow.cwnd = 20.0
    flow.next_flow_seq = (1 << 48) - 5
    feed(flow, 10)
    for pkt, _ in sent:
        flow.ack_received(pkt.flow_seq, 1000)
    assert flow.packets_lost == 0
    assert flow.cwnd == 30.0  # slow start: one packet per ack, no cut
    assert flow.in_flight == 0
    assert [p.flow_seq for p, _ in sent] == [(1 << 48) + i for i in range(-5, 5)]
