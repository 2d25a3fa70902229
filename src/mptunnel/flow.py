"""Per-path tunnel flow: encapsulation header codec, per-flow sequencing,
send queue and TCP-like window-based congestion control with smoothed RTT
estimation.

A flow accepts packets handed to it by the scheduler, stamps them with its
own sequence number and the current smoothed RTT, and transmits while the
congestion window has room; the rest wait in an unbounded FIFO send queue
whose occupancy is a reported metric. Losses are inferred from an ack gap of
three or from an ack-silence timeout; there are no retransmissions, the
tunnel carries unreliable traffic.
"""

from collections import deque
from collections.abc import Callable
from heapq import heapreplace

RTT_REPORT_MAX = (1 << 32) - 1
HEADER_LEN = 16
HEADER_VERSION = 1

SRTT_GAIN = 0.125
RTTVAR_GAIN = 0.25

INITIAL_CWND = 2.0
INITIAL_SSTHRESH = 64.0
MIN_SSTHRESH = 2.0
DUP_ACK_THRESHOLD = 3
TIMEOUT_RTT_MULTIPLE = 4
# Floor for the ack-silence timeout; 4*srtt alone mis-fires on very low
# latency paths and before the estimator has converged after an RTT jump.
MIN_TIMEOUT_US = 200_000


def smooth_rtt(srtt: float | None, rttvar: float,
               sample: float) -> tuple[float, float]:
    """One RFC 6298 update of (srtt, rttvar) by a round-trip sample; srtt
    None marks the first sample, which gives (sample, sample / 2)."""
    if srtt is None:
        return float(sample), sample / 2.0
    rttvar = (1 - RTTVAR_GAIN) * rttvar + RTTVAR_GAIN * abs(srtt - sample)
    return (1 - SRTT_GAIN) * srtt + SRTT_GAIN * sample, rttvar


class TunnelPacket:
    """One ingress datagram wrapped with the multipath encapsulation header.

    overall_seq is the tunnel-wide sequence stamped at ingress; flow_seq,
    path_id and sender_rtt_report are stamped by the flow that carries it.
    Both sequence numbers are unbounded ints; only encode_header cuts them
    to their wire widths. A run's packets are all of its one packet size, so
    a packet does not carry it.
    """

    __slots__ = ("overall_seq", "ingress_time", "path_id", "flow_seq",
                 "sender_rtt_report")

    def __init__(self, overall_seq: int, ingress_time: int, path_id: int = 0,
                 flow_seq: int = 0, sender_rtt_report: int = 0):
        self.overall_seq, self.ingress_time, self.path_id = overall_seq, ingress_time, path_id
        self.flow_seq, self.sender_rtt_report = flow_seq, sender_rtt_report


def encode_header(pkt: TunnelPacket) -> bytes:
    """Encode the 16-byte tunnel header, network byte order.

    Layout: version(1) | path_id(1) | overall_seq(6) | rtt_report_us(4) |
    flow_seq_low32(4). The RTT report saturates at 2^32-1 microseconds and
    both sequence fields wrap modulo their width.
    """
    report = min(int(pkt.sender_rtt_report), RTT_REPORT_MAX)
    return (
        bytes((HEADER_VERSION, pkt.path_id & 0xFF))
        + (pkt.overall_seq & ((1 << 48) - 1)).to_bytes(6, "big")
        + report.to_bytes(4, "big")
        + (pkt.flow_seq & 0xFFFFFFFF).to_bytes(4, "big")
    )


class Flow:
    """Sequencing, send queue and congestion control of the flow on one path.

    transmit is a callback(packet, now) that hands the packet to the path;
    the flow has already counted it in flight when the callback runs. Before
    the first RTT sample ever arrives, srtt_us reads as a prior of twice the
    configured one-way latency (used for header stamping and scheduler views,
    never refreshed once real samples exist).

    A flow is also the scheduler's view of its path: path_id, srtt_us,
    rttvar_us, cwnd, in_flight, send_queue, cost and has_window_room are
    read live at decision time.
    """

    __slots__ = ("path_id", "cost", "_transmit", "cwnd", "ssthresh", "in_flight",
                 "send_queue", "next_flow_seq", "srtt_us", "rttvar_us",
                 "_rtt_sampled", "_outstanding", "_send_order", "_top_acks", "_recover_seq",
                 "_ca_credit", "packets_lost")

    def __init__(self, path_id: int, prior_rtt_us: float,
                 transmit: Callable[[TunnelPacket, int], None], cost: float = 0.0):
        self.path_id = path_id
        self.cost = cost
        self._transmit = transmit

        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.in_flight = 0
        self.send_queue: deque[TunnelPacket] = deque()
        self.next_flow_seq = 0

        self.srtt_us = float(prior_rtt_us)
        self.rttvar_us = 0.0
        self._rtt_sampled = False

        # flow_seq -> send_time of every packet in flight
        self._outstanding: dict[int, int] = {}
        # flow_seqs in send order (which is flow_seq order); entries no
        # longer outstanding are dropped when they reach the front.
        self._send_order: deque[int] = deque()
        # Min-heap of the DUP_ACK_THRESHOLD highest flow_seqs acked while
        # outstanding; every outstanding packet below its smallest entry has
        # that many acknowledged successors and is lost.
        self._top_acks = [-1] * DUP_ACK_THRESHOLD
        self._recover_seq = 0
        self._ca_credit = 0.0

        self.packets_lost = 0

    # -- scheduler view -----------------------------------------------------

    @property
    def has_window_room(self) -> bool:
        return self.in_flight + len(self.send_queue) < self.cwnd

    # -- send path ----------------------------------------------------------

    def enqueue(self, pkt: TunnelPacket, now: int) -> None:
        """Accept a packet from the scheduler; transmit now if the window allows."""
        pkt.path_id = self.path_id
        pkt.flow_seq = self.next_flow_seq
        report = round(self.srtt_us)
        pkt.sender_rtt_report = RTT_REPORT_MAX if RTT_REPORT_MAX < report else report
        self.next_flow_seq += 1
        self.send_queue.append(pkt)
        self.pump(now)

    def pump(self, now: int) -> None:
        """Transmit from the send queue while the window has room."""
        queue = self.send_queue
        while queue and self.in_flight < self.cwnd:
            pkt = queue.popleft()
            self.in_flight += 1
            self._outstanding[pkt.flow_seq] = now
            self._send_order.append(pkt.flow_seq)
            self._transmit(pkt, now)

    # -- ack / loss handling -------------------------------------------------

    def ack_received(self, flow_seq: int, now: int) -> None:
        """Apply one acknowledgment: release window, smooth the RTT sample, grow cwnd.

        Duplicate or unknown acks are ignored. Window growth is slow start
        (one packet per ack) below ssthresh, else congestion avoidance via
        fractional accumulation of 1/cwnd per ack.
        """
        sent = self._outstanding.pop(flow_seq, None)
        if sent is None:
            return
        self.in_flight -= 1
        self.srtt_us, self.rttvar_us = smooth_rtt(
            self.srtt_us if self._rtt_sampled else None, self.rttvar_us, now - sent)
        self._rtt_sampled = True

        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            # 1/cwnd per ack, accumulated as whole acks so the arithmetic is
            # exact: one full window of acks grows cwnd by one packet.
            self._ca_credit += 1.0
            if self._ca_credit >= self.cwnd:
                self._ca_credit -= self.cwnd
                self.cwnd += 1.0

        # Dup-ack-equivalent gap detection: an outstanding packet with three
        # acknowledged successors is declared lost. Packets go out in
        # flow_seq order, so that is every outstanding packet below the third
        # highest acked flow_seq, and the lost ones lead the send order.
        # Each flow_seq leaves the send order once, so this is O(1) per
        # packet whatever the window.
        top = self._top_acks
        if flow_seq > top[0]:
            heapreplace(top, flow_seq)
            outstanding = self._outstanding
            order = self._send_order
            while order:
                seq = order[0]
                if seq in outstanding:
                    if seq >= top[0]:
                        break
                    self.declare_lost(seq)
                order.popleft()
        if self.send_queue:
            self.pump(now)

    def declare_lost(self, flow_seq: int) -> None:
        """Give up on an unacknowledged packet and react to the loss.
        flow_seq must be outstanding: sent, and neither acked nor declared
        lost since; both callers, the dup-ack scan and the ack-silence
        timeout, pass only such a flow_seq."""
        del self._outstanding[flow_seq]
        self.in_flight -= 1
        self.packets_lost += 1
        self.on_loss(flow_seq)

    def on_loss(self, lost_flow_seq: int) -> None:
        """Multiplicative decrease, at most once per round trip.

        Losses of packets sent before the previous halving (flow_seq below
        the recovery point) do not halve again.
        """
        if lost_flow_seq < self._recover_seq:
            return
        self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
        self.cwnd = self.ssthresh
        self._ca_credit = 0.0
        self._recover_seq = self.next_flow_seq

    def timeout_deadline_us(self, now: int) -> int:
        timeout = round(TIMEOUT_RTT_MULTIPLE * self.srtt_us)
        return now + (MIN_TIMEOUT_US if MIN_TIMEOUT_US > timeout else timeout)

    def on_timeout(self, now: int) -> None:
        """Ack-silence timeout: everything outstanding is presumed lost."""
        for seq in list(self._outstanding):
            self.declare_lost(seq)
        self._send_order.clear()
        self.pump(now)
