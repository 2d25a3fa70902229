"""Receiver-side processing, one class per algorithm: Receiver passes
packets through, ReorderBuffer resequences with a static or adaptive timing
threshold, and EqualizerLines equalizes per-flow delay.

The resequencer buffers out-of-order packets and waits up to the threshold
for the gaps to fill; the equalizer instead delays each flow so all paths
present the same end-to-end latency, never consulting the overall
sequencing, and discards packets that show up hopelessly late. A run builds
its receiver as RECEIVERS[kind].factory(cfg) and passes its sinks to wire();
the on_arrival and on_deadline steps need no sinks and can be driven alone.
"""

from math import inf
from types import MappingProxyType

from .flow import TunnelPacket, smooth_rtt
from .simcore import Plugin

DEFAULT_ADAPTIVE_K = 4.0
DEFAULT_MAX_HOLD_US = 500_000

DISPOSITION_INORDER = "inorder"
DISPOSITION_TIMEOUT = "timeout"
DISPOSITION_LATE = "late"


class PathStats:
    """Receiver-side per-path RTT knowledge from the header RTT option.

    Each arrival's sender report is re-smoothed with the sender's own update
    (flow.smooth_rtt), which also seeds a path's first report and yields a
    variation estimate the sender does not transmit.

    srtts and rttvars map the path_id of every path that has reported to its
    estimates (µs); they are read-only views, written by update alone. The
    thresholds read only their extremes, which update keeps: srtt_max,
    srtt_min and rttvar_max over the paths that have reported, and paired,
    whether two or more have. A report past an extreme moves it out; only a
    report that moves the path holding an extreme inward rescans that dict.
    An extreme is a value, so it does not depend on the order paths first
    reported in.
    """

    def __init__(self):
        self._srtts: dict[int, float] = {}
        self._rttvars: dict[int, float] = {}
        self.srtts, self.rttvars = MappingProxyType(self._srtts), MappingProxyType(self._rttvars)
        self.srtt_max, self.srtt_min, self.rttvar_max = -inf, inf, -inf
        self.paired = False

    def update(self, path_id: int, report_us: float) -> None:
        srtts, rttvars = self._srtts, self._rttvars
        old, old_var = srtts.get(path_id), rttvars.get(path_id, 0.0)
        srtt, var = srtts[path_id], rttvars[path_id] = smooth_rtt(old, old_var, report_us)
        # Past the extreme, or its holder moved inward (a tie rescans too).
        if srtt > self.srtt_max or old == self.srtt_max != srtt:
            self.srtt_max = srtt if srtt > self.srtt_max else max(srtts.values())
        if srtt < self.srtt_min or old == self.srtt_min != srtt:
            self.srtt_min = srtt if srtt < self.srtt_min else min(srtts.values())
        if var > self.rttvar_max or old_var == self.rttvar_max != var:
            self.rttvar_max = var if var > self.rttvar_max else max(rttvars.values())
        if old is None:
            self.paired = len(srtts) > 1


def static_threshold(rtt_slower_us: float, rtt_faster_us: float) -> float:
    """Fixed resequencing threshold: the round-trip-time gap between paths."""
    return rtt_slower_us - rtt_faster_us


def adaptive_threshold(stats: PathStats, k: float, max_hold_us: int) -> float:
    """Continuously recomputed threshold from measured RTTs and variations.

    One-way skew estimate (half the RTT spread) plus k times the worst RTT
    variation, capped at max_hold_us. Until two paths have reported, the cap
    itself is used so nothing is given up on while cold.
    """
    if not stats.paired:
        return float(max_hold_us)
    spread = (stats.srtt_max - stats.srtt_min) / 2.0
    guard = k * stats.rttvar_max
    threshold, cap = spread + guard, float(max_hold_us)
    return cap if cap < threshold else threshold


class Receiver:
    """Kind none, and what every kind shares: path stats, the run's sinks and
    the given-up-gap count (0 unless the kind resequences).

    wire() sets the sinks: deliver(pkt, time_us, residency_us, disposition),
    schedule(at_us, fn, arg) on the run's event queue, which later calls
    fn(arg, at_us), and discard(pkt, time_us) for packets dropped at the
    receiver. on_packet(pkt, time_us) is called on each arrival; this one
    delivers the packet at once.
    """

    gap_count = 0

    def __init__(self):
        self.stats = PathStats()

    def wire(self, deliver, schedule, discard) -> "Receiver":
        self._deliver, self._schedule, self._discard = deliver, schedule, discard
        return self

    def on_packet(self, pkt: TunnelPacket, now: int) -> None:
        self._deliver(pkt, now, 0, DISPOSITION_INORDER)


class ReorderBuffer(Receiver):
    """Holds out-of-order packets until their gap fills or a deadline expires.

    Deliveries are returned as (packet, delivery_residency_us, disposition)
    in strictly increasing overall_seq order per call. A packet below
    expected_next (its gap was already given up) is delivered immediately out
    of band and flagged late.

    held maps each held seq to (pkt, arrival_us, deadline_us). The buffer
    keeps no deadline order of its own: for every hold the caller arms one
    deadline, at held[seq][2], and calls on_deadline(seq, now) when it comes
    up. Deadlines of holds released early, or re-held by a duplicate, come
    up as no-ops.

    As a receiver it holds each packet for the static threshold, capped at
    max_hold_us, if one is given, else for the adaptive one, and only the
    adaptive one updates the path stats.
    """

    def __init__(self, expected_next: int = 0, adaptive_k: float = DEFAULT_ADAPTIVE_K,
                 max_hold_us: int = DEFAULT_MAX_HOLD_US,
                 static_threshold_us: float | None = None):
        super().__init__()
        self.expected_next = expected_next
        self.held: dict[int, tuple[TunnelPacket, int, int]] = {}
        self.gap_count = 0
        self.adaptive_k = adaptive_k
        self.max_hold_us = max_hold_us
        self.static_threshold_us = (None if static_threshold_us is None else
                                    min(float(static_threshold_us), float(max_hold_us)))
        self._expire = self._expire  # bound once, scheduled per hold

    def on_arrival(self, pkt: TunnelPacket, now: int,
                   threshold_us: float) -> list[tuple[TunnelPacket, int, str]]:
        seq = pkt.overall_seq
        if seq == self.expected_next:
            out = [(pkt, 0, DISPOSITION_INORDER)]
            self.expected_next += 1
            out.extend(self._flush_consecutive(now, DISPOSITION_INORDER))
            return out
        if seq > self.expected_next:
            self.held[seq] = (pkt, now, now + round(threshold_us))
            return []
        return [(pkt, 0, DISPOSITION_LATE)]

    def on_deadline(self, seq: int, now: int) -> list[tuple[TunnelPacket, int, str]]:
        """Give up every gap below seq + 1 if the hold of seq has expired:
        release the holds below it, then anything stuck behind the gaps.

        A no-op if seq was already released or its hold's deadline is later
        (a duplicate re-held it).
        """
        # Every held seq is above expected_next, so seq below it is released.
        if seq < self.expected_next or self.held[seq][2] > now:
            return []
        out = []
        for s in range(self.expected_next, seq + 1):
            held = self.held.pop(s, None)
            if held is None:
                self.gap_count += 1
            else:
                out.append((held[0], now - held[1], DISPOSITION_TIMEOUT))
        self.expected_next = seq + 1
        out.extend(self._flush_consecutive(now, DISPOSITION_TIMEOUT))
        return out

    def _flush_consecutive(self, now: int, disposition: str):
        out = []
        while self.expected_next in self.held:
            pkt, arrival_us, _ = self.held.pop(self.expected_next)
            out.append((pkt, now - arrival_us, disposition))
            self.expected_next += 1
        return out

    def on_packet(self, pkt: TunnelPacket, now: int) -> None:
        threshold = self.static_threshold_us
        if threshold is None:  # a static threshold reads no stats
            self.stats.update(pkt.path_id, pkt.sender_rtt_report)
            threshold = adaptive_threshold(self.stats, self.adaptive_k, self.max_hold_us)
        out = self.on_arrival(pkt, now, threshold)
        if out:
            self._emit(out, now)
        else:
            # Packet was held; arm its expiry. Events for holds that get
            # released early fire as no-ops.
            seq = pkt.overall_seq
            self._schedule(self.held[seq][2], self._expire, seq)

    def _expire(self, seq: int, now: int) -> None:
        out = self.on_deadline(seq, now)
        if out:  # most deadlines find their gap already filled
            self._emit(out, now)

    def _emit(self, out, now: int) -> None:
        for pkt, residency, disposition in out:
            self._deliver(pkt, now, residency, disposition)


class EqualizerLines(Receiver):
    """Per-flow delay lines that level out end-to-end latency across paths.

    Every flow is delayed so packets leave at (max path RTT)/2 plus a
    variation guard after ingress; within a flow release order is FIFO.
    Sequencing is never consulted. A packet whose delay already exceeds the
    target by more than max_hold is discarded instead of released.

    As a receiver it schedules one release event per packet it keeps.
    """

    DISCARD = -1

    def __init__(self, k: float, max_hold_us: int):
        super().__init__()
        self.k = k
        self.max_hold_us = max_hold_us
        self._last_release: dict[int, int] = {}
        self._release = self._release  # bound once, scheduled per packet

    def target_delay_us(self, stats: PathStats) -> float:
        return stats.srtt_max / 2.0 + self.k * stats.rttvar_max

    def on_arrival(self, pkt: TunnelPacket, now: int, stats: PathStats) -> int:
        """Return the scheduled release time, or EqualizerLines.DISCARD."""
        target = self.target_delay_us(stats)
        if now - pkt.ingress_time > target + self.max_hold_us:
            return self.DISCARD
        added = target - stats.srtts[pkt.path_id] / 2.0
        added = 0.0 if 0.0 > added else added
        cap = float(self.max_hold_us)
        release = now + round(cap if cap < added else added)
        floor = self._last_release.get(pkt.path_id)
        if floor is not None and release < floor:
            release = floor
        self._last_release[pkt.path_id] = release
        return release

    def on_packet(self, pkt: TunnelPacket, now: int) -> None:
        self.stats.update(pkt.path_id, pkt.sender_rtt_report)
        release = self.on_arrival(pkt, now, self.stats)
        if release == self.DISCARD:
            self._discard(pkt, now)
            return
        self._schedule(release, self._release, (pkt, release - now))

    def _release(self, item: tuple[TunnelPacket, int], now: int) -> None:
        pkt, residency = item
        self._deliver(pkt, now, residency, DISPOSITION_INORDER)


def _static_resequencer(cfg) -> ReorderBuffer:
    """A ReorderBuffer whose fixed threshold defaults to the configured RTT gap."""
    threshold = cfg.reorder.static_threshold_us
    if threshold is None:
        rtts = [2 * p.one_way_latency_us for p in cfg.paths]
        threshold = static_threshold(max(rtts), min(rtts))
    return ReorderBuffer(max_hold_us=cfg.reorder.max_hold_us, static_threshold_us=threshold)


# Every reorder kind, by the factory that builds its receiver from the run's
# ScenarioConfig.
RECEIVERS = {
    "adaptive": Plugin(
        lambda cfg: ReorderBuffer(adaptive_k=cfg.reorder.adaptive_k,
                                  max_hold_us=cfg.reorder.max_hold_us),
        (("adaptive_k", ""), ("max_hold_us", "")),
        "resequencing with a threshold recomputed from measured RTTs"),
    "delay_equalize": Plugin(
        lambda cfg: EqualizerLines(cfg.reorder.adaptive_k, cfg.reorder.max_hold_us),
        (("adaptive_k", ""), ("max_hold_us", "")),
        "per-flow delay lines equalizing end-to-end latency, late packets discarded"),
    "none": Plugin(
        lambda cfg: Receiver(), (),
        "no receiver processing, packets delivered on arrival"),
    "static": Plugin(
        _static_resequencer,
        (("static_threshold_us", "defaults to the configured RTT gap"), ("max_hold_us", "")),
        "resequencing with a fixed threshold"),
}
