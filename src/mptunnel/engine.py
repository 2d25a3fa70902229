"""Run orchestration: builds sender flows, paths and the receiver from a
scenario and drives the single-threaded event loop to completion.

A run owns all of its state; independent runs can execute in parallel threads
without sharing anything.
"""

from . import metrics
from .flow import SEQ48_MASK, Flow, TunnelPacket
from .reorder import RECEIVERS
from .scenario import ScenarioConfig, ScenarioError
from .scheduler import SCHEDULERS
from .simcore import EventQueue, PathState, US_PER_SECOND

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
        errors = cfg.validate()
        if errors:
            raise ScenarioError(errors)
        self.cfg = cfg
        self.queue = EventQueue()
        self.log = metrics.MetricsLog()

        self.paths = [PathState(m, cfg.seed) for m in cfg.paths]
        costs = cfg.effective_costs()
        # The flows double as the scheduler's views of their paths.
        self.flows = [
            Flow(m.path_id, 2.0 * m.one_way_latency_us, self._transmit,
                 costs[m.path_id])
            for m in cfg.paths
        ]
        self.scheduler = SCHEDULERS[cfg.scheduler.kind].factory(cfg.scheduler)
        self.receiver = RECEIVERS[cfg.reorder.kind].factory(
            cfg, self._deliver, self.queue.schedule, self._discard)

        self._next_seq = 0
        self._timer_gen = [0] * len(self.flows)
        self._timer_pending = [False] * len(self.flows)
        self._traffic_stop_us = min(
            cfg.duration_us,
            cfg.traffic.stop_us if cfg.traffic.stop_us is not None else cfg.duration_us,
        )

    # -- event handlers ------------------------------------------------------

    # Event records are exact tuples in the field order of the metrics
    # NamedTuple of the same name (Send, Arrival, ...): CPython's cyclic
    # collector stops tracking an exact tuple of untracked values, never a
    # NamedTuple, so the run's history is not rescanned by every collection
    # of an older generation. Flow samples stay FlowSample.

    def _ingress(self, now: int) -> None:
        pkt = TunnelPacket(self._next_seq & SEQ48_MASK,
                           self.cfg.traffic.packet_size_bytes, now)
        self._next_seq += 1
        self.log.ingress_count += 1
        picked = self.scheduler.pick(self.flows, now)
        self.log.decisions.append(
            (now, pkt.overall_seq, picked,
             getattr(self.scheduler, "last_etas", None)))
        self.flows[picked].enqueue(pkt, now)
        self._sample_flow(picked, now)

    def _transmit(self, pkt: TunnelPacket, now: int) -> None:
        path_id = pkt.path_id
        flow = self.flows[path_id]
        # Window discipline at the transmit boundary, counted rather than
        # asserted so whole runs can be checked after the fact: a send may
        # start only while in_flight < cwnd, and the flow has already
        # counted this packet in flight.
        if flow.in_flight - 1 >= flow.cwnd:
            self.log.window_violations += 1
        self.log.sends.append(
            (now, path_id, pkt.overall_seq, pkt.flow_seq, pkt.payload_len,
             pkt.sender_rtt_report))
        delivery = self.paths[path_id].transmit(pkt.payload_len, now)
        if delivery is None:
            self.log.drops.append((now, path_id, pkt.overall_seq))
        else:
            self.queue.schedule(delivery, self._arrive, pkt)
        if not self._timer_pending[path_id] and flow.in_flight:
            self._timer_gen[path_id] += 1
            self._schedule_timer(path_id, now)

    def _arrive(self, pkt: TunnelPacket, now: int) -> None:
        self.log.arrivals.append(
            (now, pkt.overall_seq, pkt.path_id, pkt.ingress_time))
        ack_at = now + self.paths[pkt.path_id].ack_delay_us()
        self.queue.schedule(ack_at, self._ack, pkt)
        self.receiver.on_packet(pkt, now)

    def _ack(self, pkt: TunnelPacket, now: int) -> None:
        path_id = pkt.path_id
        flow = self.flows[path_id]
        flow.ack_received(pkt.flow_seq, now)
        self._timer_gen[path_id] += 1
        if flow.in_flight:
            self._schedule_timer(path_id, now)
        else:
            self._timer_pending[path_id] = False
        self._sample_flow(path_id, now)
        self._pump_greedy(now)

    def _deliver(self, pkt: TunnelPacket, now: int, residency_us: int,
                 disposition: str) -> None:
        self.log.deliveries.append(
            (now, pkt.overall_seq, pkt.path_id, pkt.ingress_time, residency_us,
             disposition))

    def _discard(self, pkt: TunnelPacket, now: int) -> None:
        self.log.discards.append((now, pkt.path_id, pkt.overall_seq))

    def _sample_flow(self, path_id: int, now: int) -> None:
        f = self.flows[path_id]
        self.log.flow_samples.append(
            metrics.FlowSample(now, path_id, f.srtt_us, f.cwnd, f.in_flight,
                               len(f.send_queue))
        )

    # -- ack-silence timers ----------------------------------------------------

    # Each flow has at most one live timer: _transmit arms it if none is
    # pending, _ack restarts it (or clears it once nothing is in flight), and
    # bumping the flow's generation turns superseded timer events into no-ops.

    def _schedule_timer(self, i: int, now: int) -> None:
        self._timer_pending[i] = True
        self.queue.schedule(self.flows[i].timeout_deadline_us(now),
                            self._timer_fire, (i, self._timer_gen[i]))

    def _timer_fire(self, timer: tuple[int, int], now: int) -> None:
        i, gen = timer
        if gen != self._timer_gen[i]:
            return
        self._timer_pending[i] = False
        if self.flows[i].in_flight:
            self.flows[i].on_timeout(now)
            self._sample_flow(i, now)
            self._pump_greedy(now)

    # -- traffic ----------------------------------------------------------------

    def _emit_cbr(self, k: int, now: int) -> None:
        if now >= self._traffic_stop_us:
            return
        self._ingress(now)
        next_at = self.cfg.traffic.emission_time_us(k + 1)
        if next_at < self._traffic_stop_us:
            self.queue.schedule(next_at, self._emit_cbr, k + 1)

    def _start_greedy(self, _, now: int) -> None:
        self._pump_greedy(now)

    def _apply_latency_step(self, step: tuple[PathState, int], now: int) -> None:
        state, latency_us = step
        state.apply_latency_step(latency_us)

    def _pump_greedy(self, now: int) -> None:
        """Work-conserving greedy source.

        A backlogged sender offers the scheduler another packet whenever some
        flow could transmit right now but has nothing queued; the scheduler
        is free to queue that packet elsewhere. Pulls stop once every flow is
        either window-full or has a backlog of its own, which bounds each
        burst.
        """
        if self.cfg.traffic.kind != "greedy":
            return
        if not self.cfg.traffic.start_us <= now < self._traffic_stop_us:
            return
        flows = self.flows
        while True:
            for f in flows:
                if f.in_flight < f.cwnd and not f.send_queue:
                    break
            else:
                return
            self._ingress(now)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> metrics.MetricsLog:
        if self.log is None:
            raise RuntimeError("a Simulation runs once; build a new one to run again")
        cfg = self.cfg
        for state in self.paths:
            for step in state.model.latency_steps:
                self.queue.schedule(step.at_us, self._apply_latency_step,
                                    (state, step.latency_us))
        if cfg.traffic.kind == "cbr":
            first = cfg.traffic.emission_time_us(0)
            if first < self._traffic_stop_us:
                self.queue.schedule(first, self._emit_cbr, 0)
        else:
            self.queue.schedule(cfg.traffic.start_us, self._start_greedy)

        hard_stop = cfg.duration_us + cfg.reorder.max_hold_us + DRAIN_SLACK_US
        pop = self.queue.pop
        while True:
            item = pop()
            if item is None:
                break
            at, _, fn, arg = item
            if at > hard_stop:
                self.log.drained = False
                break
            fn(arg, at)

        log, self.log = self.log, None
        log.timeout_gaps = self.receiver.gap_count
        log.late_count = self.receiver.late_count
        return log


def run_simulation(cfg: ScenarioConfig) -> metrics.MetricsLog:
    """Validate and execute a scenario, returning its complete metrics log."""
    return Simulation(cfg).run()
