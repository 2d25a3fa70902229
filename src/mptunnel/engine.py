"""Run orchestration: builds sender flows, paths and the receiver from a
scenario and drives the single-threaded event loop to completion.

A run owns all of its state; independent runs can execute in parallel threads
without sharing anything.
"""

from . import metrics
from .flow import Flow, TunnelPacket
from .metrics import CHUNK_ROWS, DISPOSITION_CODES
from .reorder import RECEIVERS
from .scenario import ScenarioConfig, ScenarioError, problems
from .scheduler import SCHEDULERS
from .simcore import (ACK, ARRIVAL, LATENCY_STEP, SOURCE, TIMER, EventQueue, PathState,
                      US_PER_SECOND)

# Slack past the configured duration for queues, acks and holds to drain.
DRAIN_SLACK_US = 60 * US_PER_SECOND


class Simulation:
    """One deterministic run of a scenario.

    run() hands its MetricsLog to the caller and keeps no reference to it, so
    a finished run's log is freed as soon as the caller drops it, even though
    the simulation itself is a reference cycle (its flows and receiver call
    back into it). A Simulation therefore runs once; its flows stay readable
    afterwards.
    """

    def __init__(self, cfg: ScenarioConfig):
        errors = problems(cfg)
        if errors:
            raise ScenarioError(errors)
        self.cfg = cfg
        self.queue = EventQueue()
        # A run sends packets of one size: the log and each path state it once.
        size = cfg.traffic.packet_size_bytes
        self.log = metrics.MetricsLog(packet_size_bytes=size)

        # Every per-path list is indexed by path_id, whatever order the
        # scenario lists its paths in. The flows double as the scheduler's
        # views of their paths.
        models = sorted(cfg.paths, key=lambda m: m.path_id)
        self.paths = [PathState(m, cfg.seed, size) for m in models]
        self.flows = [
            Flow(m.path_id, 2.0 * m.one_way_latency_us, self._transmit, m.cost)
            for m in models
        ]
        self.scheduler = SCHEDULERS[cfg.scheduler.kind].factory(cfg)
        self.receiver = RECEIVERS[cfg.reorder.kind].factory(cfg).wire(
            self._deliver, self.queue.schedule, self._discard)

        # Each event handler is bound once, here: every event of a kind
        # schedules this one object, so an event allocates no method object.
        self._arrive, self._ack = self._arrive, self._ack
        self._timer_fire, self._emit_cbr = self._timer_fire, self._emit_cbr

        # path_ids whose flow got a flow row, and so may have changed, since
        # the last pick; every path before the first pick.
        self._changed = range(len(self.flows))
        self._timers = [None] * len(self.flows)
        # The traffic source is read here, once, not per packet.
        traffic = cfg.traffic
        self._traffic_stop_us = min(
            cfg.duration_us,
            traffic.stop_us if traffic.stop_us is not None else cfg.duration_us,
        )
        self._greedy = traffic.kind == "greedy"
        # Emission k is due at start + k * bit_us // rate: drift-free integers.
        self._cbr_start, self._cbr_rate = traffic.start_us, traffic.rate_bps
        self._cbr_bit_us = size * 8 * US_PER_SECOND

    # -- event handlers ------------------------------------------------------

    # Each record is written where it happens, with no call: the site packs
    # its row onto its metrics.Stream's tail (a disposition as its code),
    # and _ingress has the log seal whole chunks every CHUNK_ROWS packets.

    def _ingress(self, now: int) -> None:
        log = self.log
        pkt = TunnelPacket(log.ingress_count, now)
        log.ingress_count += 1
        picked = self.scheduler.pick(self.flows, self._changed)
        rows = log.decisions
        rows.tail += rows.struct.pack(now, pkt.overall_seq, picked)
        # One etas row per path whose ETA the pick moved (see scheduler.py).
        for i in self.scheduler.moved:
            log.etas.tail += log.etas.struct.pack(pkt.overall_seq, i, self.scheduler.etas[i])
        if not log.ingress_count % CHUNK_ROWS:
            log.seal()
        flow = self.flows[picked]
        flow.enqueue(pkt, now)
        self._changed = {picked}
        rows = log.flow_rows
        rows.tail += rows.struct.pack(now, picked, flow.srtt_us, flow.cwnd,
                                      flow.in_flight, len(flow.send_queue))

    def _transmit(self, pkt: TunnelPacket, now: int) -> None:
        path_id = pkt.path_id
        flow = self.flows[path_id]
        # Window discipline at the transmit boundary, counted rather than
        # asserted so whole runs can be checked after the fact: a send may
        # start only while in_flight < cwnd, and the flow has already
        # counted this packet in flight.
        if flow.in_flight - 1 >= flow.cwnd:
            self.log.window_violations += 1
        rows = self.log.sends
        rows.tail += rows.struct.pack(now, path_id, pkt.overall_seq, pkt.flow_seq,
                                      pkt.sender_rtt_report)
        delivery = self.paths[path_id].transmit(now)
        if delivery is None:
            rows = self.log.drops
            rows.tail += rows.struct.pack(now, path_id, pkt.overall_seq)
        else:
            self.queue.schedule(delivery, ARRIVAL, self._arrive, pkt)
        if self._timers[path_id] is None:
            self._arm_timer(path_id, now)

    def _arrive(self, pkt: TunnelPacket, now: int) -> None:
        rows = self.log.arrivals
        rows.tail += rows.struct.pack(now, pkt.overall_seq, pkt.path_id, pkt.ingress_time)
        # The ack returns over the same path, not bandwidth-limited.
        ack_at = now + self.paths[pkt.path_id].current_latency_us
        self.queue.schedule(ack_at, ACK, self._ack, pkt)
        self.receiver.on_packet(pkt, now)

    def _ack(self, pkt: TunnelPacket, now: int) -> None:
        path_id = pkt.path_id
        flow = self.flows[path_id]
        flow.ack_received(pkt.flow_seq, now)
        if flow.in_flight:
            self._arm_timer(path_id, now)
        else:
            self._timers[path_id] = None
        self._changed.add(path_id)
        rows = self.log.flow_rows
        rows.tail += rows.struct.pack(now, path_id, flow.srtt_us, flow.cwnd,
                                      flow.in_flight, len(flow.send_queue))
        if self._greedy:
            self._pump_greedy(now, path_id)

    def _deliver(self, pkt: TunnelPacket, now: int, residency_us: int,
                 disposition: str) -> None:
        rows = self.log.deliveries
        rows.tail += rows.struct.pack(now, pkt.overall_seq, pkt.path_id, residency_us,
                                      DISPOSITION_CODES[disposition])

    def _discard(self, pkt: TunnelPacket, now: int) -> None:
        rows = self.log.discards
        rows.tail += rows.struct.pack(now, pkt.path_id, pkt.overall_seq)

    # -- ack-silence timers ----------------------------------------------------

    # Each flow has at most one live timer, the arg of its latest timer event,
    # kept in _timers: _transmit arms it if none is live, _ack re-arms it (or
    # clears it once nothing is in flight), so a live timer's flow always has
    # packets in flight. A timer event whose arg is not the live one was
    # superseded and fires as a no-op.

    def _arm_timer(self, i: int, now: int) -> None:
        timer = self._timers[i] = (i, now)
        self.queue.schedule(self.flows[i].timeout_deadline_us(now), TIMER,
                            self._timer_fire, timer)

    def _timer_fire(self, timer: tuple[int, int], now: int) -> None:
        i = timer[0]
        if timer is not self._timers[i]:
            return
        self._timers[i] = None
        flow = self.flows[i]
        flow.on_timeout(now)
        self._changed.add(i)
        rows = self.log.flow_rows
        rows.tail += rows.struct.pack(now, i, flow.srtt_us, flow.cwnd,
                                      flow.in_flight, len(flow.send_queue))
        if self._greedy:
            self._pump_greedy(now, i)

    # -- traffic ----------------------------------------------------------------

    def _emit_cbr(self, k: int, now: int) -> None:
        self._ingress(now)
        next_at = self._cbr_start + (k + 1) * self._cbr_bit_us // self._cbr_rate
        if next_at < self._traffic_stop_us:
            self.queue.schedule(next_at, SOURCE, self._emit_cbr, k + 1)

    def _start_greedy(self, _, now: int) -> None:
        for path_id in range(len(self.flows)):
            self._pump_greedy(now, path_id)

    def _apply_latency_step(self, step: tuple[PathState, int], now: int) -> None:
        state, latency_us = step
        state.current_latency_us = latency_us

    def _pump_greedy(self, now: int, path_id: int) -> None:
        """Work-conserving greedy source.

        A backlogged sender offers the scheduler another packet whenever some
        flow is idle (Flow.has_window_room: it could transmit right now and
        has nothing queued). The scheduler is free to queue that packet
        elsewhere. Pulls stop once no flow is idle, which bounds each burst.

        So inside the traffic window no flow is idle between events. Only an
        ack or timeout can make its flow idle; a packet handed to a flow that
        is not idle leaves it not idle. Each call therefore checks only the
        flow of path_id: the one the event changed, or at the start of
        traffic each flow in turn.
        """
        if now >= self._traffic_stop_us:
            return
        flow = self.flows[path_id]
        while flow.has_window_room:
            self._ingress(now)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> metrics.MetricsLog:
        if self.log is None:
            raise RuntimeError("a Simulation runs once; build a new one to run again")
        cfg = self.cfg
        hard_stop = cfg.duration_us + cfg.reorder.max_hold_us + DRAIN_SLACK_US
        # A step past the hard stop could only end the run as undrained.
        for state in self.paths:
            for step in state.model.latency_steps:
                if step.at_us <= hard_stop:
                    self.queue.schedule(step.at_us, LATENCY_STEP, self._apply_latency_step,
                                        (state, step.latency_us))
        # Either source starts at start_us (CBR's emission 0), and only
        # before traffic stops.
        if cfg.traffic.start_us < self._traffic_stop_us:
            start = self._start_greedy if self._greedy else self._emit_cbr
            self.queue.schedule(cfg.traffic.start_us, SOURCE, start, 0)

        pop = self.queue.pop
        while True:
            item = pop()
            if item is None:
                break
            at, _, _, fn, arg = item
            if at > hard_stop:
                self.log.drained = False
                break
            fn(arg, at)

        log, self.log = self.log, None
        # A finished log holds no per-decision object.
        log.seal()
        log.timeout_gaps = self.receiver.gap_count
        return log
