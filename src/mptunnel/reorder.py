"""Receiver-side processing: passthrough, threshold-based resequencing
(static or adaptive threshold) and per-flow delay equalization.

The resequencers buffer out-of-order packets and wait up to a timing
threshold for the gaps to fill; the equalizer instead delays each flow so all
paths present the same end-to-end latency, never consulting the overall
sequencing, and discards packets that show up hopelessly late.
"""

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .flow import SRTT_GAIN, RTTVAR_GAIN, TunnelPacket
from .simcore import Plugin

DEFAULT_ADAPTIVE_K = 4.0
DEFAULT_MAX_HOLD_US = 500_000

DISPOSITION_INORDER = "inorder"
DISPOSITION_TIMEOUT = "timeout"
DISPOSITION_LATE = "late"


@dataclass
class ReorderConfig:
    kind: str = "none"
    static_threshold_us: Optional[int] = None
    adaptive_k: float = DEFAULT_ADAPTIVE_K
    max_hold_us: int = DEFAULT_MAX_HOLD_US


class PathStats:
    """Receiver-side per-path RTT knowledge from the header RTT option.

    Each arrival's sender report is re-smoothed with the same gains the
    sender uses, which also yields a variation estimate the sender does not
    transmit.

    srtts and rttvars hold the estimates (µs) of every path that has
    reported, in path-id order, so the thresholds read them on each arrival
    without rebuilding anything.
    """

    def __init__(self):
        self._index: dict[int, int] = {}  # path_id -> position in the lists
        self.srtts: list[float] = []
        self.rttvars: list[float] = []

    def update(self, path_id: int, report_us: float) -> None:
        i = self._index.get(path_id)
        if i is None:
            # First report of this path: slot it in at its path-id rank.
            ids = sorted([*self._index, path_id])
            i = ids.index(path_id)
            self._index = {p: j for j, p in enumerate(ids)}
            self.srtts.insert(i, float(report_us))
            self.rttvars.insert(i, report_us / 2.0)
            return
        srtt = self.srtts[i]
        self.rttvars[i] = (1 - RTTVAR_GAIN) * self.rttvars[i] + RTTVAR_GAIN * abs(
            srtt - report_us
        )
        self.srtts[i] = (1 - SRTT_GAIN) * srtt + SRTT_GAIN * report_us

    def srtt(self, path_id: int) -> float:
        return self.srtts[self._index[path_id]]


def static_threshold(rtt_slower_us: float, rtt_faster_us: float) -> float:
    """Fixed resequencing threshold: the round-trip-time gap between paths."""
    return rtt_slower_us - rtt_faster_us


def adaptive_threshold(stats: PathStats, k: float, max_hold_us: int) -> float:
    """Continuously recomputed threshold from measured RTTs and variations.

    One-way skew estimate (half the RTT spread) plus k times the worst RTT
    variation, capped at max_hold_us. Until two paths have reported, the cap
    itself is used so nothing is given up on while cold.
    """
    srtts = stats.srtts
    if len(srtts) < 2:
        return float(max_hold_us)
    spread = (max(srtts) - min(srtts)) / 2.0
    guard = k * max(stats.rttvars)
    return min(spread + guard, float(max_hold_us))


@dataclass(slots=True)
class _Held:
    pkt: TunnelPacket
    arrival_us: int
    deadline_us: int


class ReorderBuffer:
    """Holds out-of-order packets until their gap fills or a deadline expires.

    Deliveries are returned as (packet, delivery_residency_us, disposition)
    in strictly increasing overall_seq order per call. A packet below
    expected_next (its gap was already given up) is delivered immediately out
    of band and flagged late.

    Deadlines sit in a (deadline, seq) min-heap next to the held map. An
    entry whose packet was released early stays in the heap until its
    deadline comes up and is then skipped, so deadline work is proportional
    to what expires and what is released.
    """

    def __init__(self, expected_next: int = 0):
        self.expected_next = expected_next
        self.held: dict[int, _Held] = {}
        self._expiry: list[tuple[int, int]] = []
        self.late_count = 0
        self.gap_count = 0

    def on_arrival(self, pkt: TunnelPacket, now: int,
                   threshold_us: float) -> list[tuple[TunnelPacket, int, str]]:
        seq = pkt.overall_seq
        if seq == self.expected_next:
            out = [(pkt, 0, DISPOSITION_INORDER)]
            self.expected_next += 1
            out.extend(self._flush_consecutive(now, DISPOSITION_INORDER))
            return out
        if seq > self.expected_next:
            deadline = now + int(round(threshold_us))
            self.held[seq] = _Held(pkt, now, deadline)
            heapq.heappush(self._expiry, (deadline, seq))
            return []
        self.late_count += 1
        return [(pkt, 0, DISPOSITION_LATE)]

    def on_deadline(self, now: int) -> list[tuple[TunnelPacket, int, str]]:
        """Release every expired hold plus anything stuck behind a given-up gap."""
        # Every held seq is above expected_next, so an expired hold always
        # moves give_up_below, and the walk below finds every held seq under
        # it, in order; the seqs it misses are the gaps.
        expiry = self._expiry
        give_up_below = self.expected_next
        while expiry and expiry[0][0] <= now:
            deadline, seq = heapq.heappop(expiry)
            if seq >= give_up_below and self._is_live(deadline, seq):
                give_up_below = seq + 1
        if give_up_below == self.expected_next:
            return []
        out = []
        for seq in range(self.expected_next, give_up_below):
            held = self.held.pop(seq, None)
            if held is None:
                self.gap_count += 1
            else:
                out.append((held.pkt, now - held.arrival_us, DISPOSITION_TIMEOUT))
        self.expected_next = give_up_below
        out.extend(self._flush_consecutive(now, DISPOSITION_TIMEOUT))
        return out

    def next_deadline(self) -> Optional[int]:
        expiry = self._expiry
        while expiry and not self._is_live(*expiry[0]):
            heapq.heappop(expiry)
        return expiry[0][0] if expiry else None

    def _is_live(self, deadline: int, seq: int) -> bool:
        """Whether a heap entry is still the deadline of a held packet."""
        held = self.held.get(seq)
        return held is not None and held.deadline_us == deadline

    def _flush_consecutive(self, now: int, disposition: str):
        out = []
        while self.expected_next in self.held:
            held = self.held.pop(self.expected_next)
            out.append((held.pkt, now - held.arrival_us, disposition))
            self.expected_next += 1
        return out


class EqualizerLines:
    """Per-flow delay lines that level out end-to-end latency across paths.

    Every flow is delayed so packets leave at (max path RTT)/2 plus a
    variation guard after ingress; within a flow release order is FIFO.
    Sequencing is never consulted. A packet whose delay already exceeds the
    target by more than max_hold is discarded instead of released.
    """

    DISCARD = -1

    def __init__(self, k: float, max_hold_us: int):
        self.k = k
        self.max_hold_us = max_hold_us
        self._last_release: dict[int, int] = {}

    def target_delay_us(self, stats: PathStats) -> float:
        guard = self.k * max(stats.rttvars)
        return max(stats.srtts) / 2.0 + guard

    def on_arrival(self, pkt: TunnelPacket, now: int, stats: PathStats) -> int:
        """Return the scheduled release time, or EqualizerLines.DISCARD."""
        target = self.target_delay_us(stats)
        if now - pkt.ingress_time > target + self.max_hold_us:
            return self.DISCARD
        added = target - stats.srtt(pkt.path_id) / 2.0
        added = min(max(added, 0.0), float(self.max_hold_us))
        release = now + int(round(added))
        floor = self._last_release.get(pkt.path_id)
        if floor is not None and release < floor:
            release = floor
        self._last_release[pkt.path_id] = release
        return release


class BaseReceiver:
    """Common receiver plumbing: path stats, the delivery sinks, and the
    late-packet and given-up-gap counts (zero unless the kind resequences).

    Every receiver kind is built as cls(cfg, deliver, schedule, discard) from
    the run's ScenarioConfig. deliver is callback(pkt, time_us, residency_us,
    disposition); discard is callback(pkt, time_us) for packets dropped at the
    receiver; schedule is callback(at_us, fn, arg) on the run's event queue,
    which later calls fn(arg, at_us) (deadline expiry is an event, never a
    timer thread).
    """

    late_count = 0
    gap_count = 0

    def __init__(self, cfg, deliver: Callable[[TunnelPacket, int, int, str], None],
                 schedule: Callable[[int, Callable[[Any, int], None], Any], None],
                 discard: Callable[[TunnelPacket, int], None]):
        self.config: ReorderConfig = cfg.reorder
        self.stats = PathStats()
        self._deliver = deliver
        self._schedule = schedule
        self._discard = discard

    def on_packet(self, pkt: TunnelPacket, now: int) -> None:
        raise NotImplementedError


class PassthroughReceiver(BaseReceiver):
    """No reordering: every packet goes straight to the application."""

    def on_packet(self, pkt: TunnelPacket, now: int) -> None:
        self.stats.update(pkt.path_id, pkt.sender_rtt_report)
        self._deliver(pkt, now, 0, DISPOSITION_INORDER)


class ResequencingReceiver(BaseReceiver):
    """Timing-threshold reordering with the adaptive threshold."""

    def __init__(self, cfg, deliver, schedule, discard):
        super().__init__(cfg, deliver, schedule, discard)
        self.buffer = ReorderBuffer()

    def threshold_us(self) -> float:
        return adaptive_threshold(self.stats, self.config.adaptive_k,
                                  self.config.max_hold_us)

    def on_packet(self, pkt: TunnelPacket, now: int) -> None:
        self.stats.update(pkt.path_id, pkt.sender_rtt_report)
        out = self.buffer.on_arrival(pkt, now, self.threshold_us())
        if out:
            self._emit(out, now)
        else:
            # Packet was held; arm its expiry. Events for holds that get
            # released early fire as no-ops.
            deadline = self.buffer.held[pkt.overall_seq].deadline_us
            self._schedule(deadline, self._on_deadline, None)

    def _on_deadline(self, _, now: int) -> None:
        self._emit(self.buffer.on_deadline(now), now)

    def _emit(self, out, now: int) -> None:
        for pkt, residency, disposition in out:
            self._deliver(pkt, now, residency, disposition)

    @property
    def late_count(self) -> int:
        return self.buffer.late_count

    @property
    def gap_count(self) -> int:
        return self.buffer.gap_count


class StaticResequencingReceiver(ResequencingReceiver):
    """Timing-threshold reordering with a fixed threshold, by default the gap
    between the slowest and fastest configured path RTT."""

    def __init__(self, cfg, deliver, schedule, discard):
        super().__init__(cfg, deliver, schedule, discard)
        threshold = self.config.static_threshold_us
        if threshold is None:
            rtts = [2 * p.one_way_latency_us for p in cfg.paths]
            threshold = static_threshold(max(rtts), min(rtts))
        self._threshold_us = min(float(threshold), float(self.config.max_hold_us))

    def threshold_us(self) -> float:
        return self._threshold_us


class EqualizingReceiver(BaseReceiver):
    """Per-flow delay equalization with late-packet discard."""

    def __init__(self, cfg, deliver, schedule, discard):
        super().__init__(cfg, deliver, schedule, discard)
        self.lines = EqualizerLines(self.config.adaptive_k, self.config.max_hold_us)

    def on_packet(self, pkt: TunnelPacket, now: int) -> None:
        self.stats.update(pkt.path_id, pkt.sender_rtt_report)
        release = self.lines.on_arrival(pkt, now, self.stats)
        if release == EqualizerLines.DISCARD:
            self._discard(pkt, now)
            return
        self._schedule(release, self._release, (pkt, release - now))

    def _release(self, item: tuple[TunnelPacket, int], now: int) -> None:
        pkt, residency = item
        self._deliver(pkt, now, residency, DISPOSITION_INORDER)


# Every reorder kind, by the receiver class that implements it.
RECEIVERS = {
    "adaptive": Plugin(
        ResequencingReceiver, "adaptive_k, max_hold_us",
        "resequencing with a threshold recomputed from measured RTTs"),
    "delay_equalize": Plugin(
        EqualizingReceiver, "adaptive_k, max_hold_us",
        "per-flow delay lines equalizing end-to-end latency, late packets discarded"),
    "none": Plugin(
        PassthroughReceiver, "",
        "no receiver processing, packets delivered on arrival"),
    "static": Plugin(
        StaticResequencingReceiver,
        "static_threshold_us (defaults to the configured RTT gap), max_hold_us",
        "resequencing with a fixed threshold"),
}
