"""Run orchestration: builds sender flows, paths and the receiver from a
scenario and drives the single-threaded event loop to completion.

A run owns all of its state; independent runs can execute in parallel threads
without sharing anything.
"""

from . import metrics
from .flow import SEQ48_MASK, Flow, TunnelPacket
from .reorder import RECEIVERS
from .scenario import ScenarioConfig, ScenarioError
from .scheduler import SCHEDULERS, PathView
from .simcore import EventQueue, PathState, US_PER_SECOND

# Slack past the configured duration for queues, acks and holds to drain.
DRAIN_SLACK_US = 60 * US_PER_SECOND


class Simulation:
    """One deterministic run of a scenario."""

    def __init__(self, cfg: ScenarioConfig):
        errors = cfg.validate()
        if errors:
            raise ScenarioError(errors)
        self.cfg = cfg
        self.queue = EventQueue()
        self.log = metrics.MetricsLog()

        self.paths = [PathState(m, cfg.seed) for m in cfg.paths]
        self.flows = []
        for state in self.paths:
            prior = 2.0 * state.model.one_way_latency_us
            pid = state.model.path_id
            self.flows.append(
                Flow(pid, prior, lambda pkt, now, i=pid: self._transmit(i, pkt, now))
            )
        self.scheduler = SCHEDULERS[cfg.scheduler.kind].factory(cfg.scheduler)
        self._costs = cfg.effective_costs()
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

    def _views(self) -> list[PathView]:
        return [
            PathView(f.path_id, f.srtt, f.rttvar, f.cwnd, f.in_flight,
                     len(f.send_queue), self._costs[f.path_id])
            for f in self.flows
        ]

    def _ingress(self, now: int) -> None:
        pkt = TunnelPacket(
            overall_seq=self._next_seq & SEQ48_MASK,
            payload_len=self.cfg.traffic.packet_size_bytes,
            ingress_time=now,
        )
        self._next_seq += 1
        self.log.ingress_count += 1
        picked = self.scheduler.pick(self._views(), now)
        self.log.decisions.append(
            metrics.Decision(now, pkt.overall_seq, picked,
                             getattr(self.scheduler, "last_etas", None))
        )
        self.flows[picked].enqueue(pkt, now)
        self._sample_flow(picked, now)

    def _transmit(self, path_id: int, pkt: TunnelPacket, now: int) -> None:
        self.log.sends.append(
            metrics.Send(now, path_id, pkt.overall_seq, pkt.flow_seq,
                         pkt.payload_len, pkt.sender_rtt_report)
        )
        delivery = self.paths[path_id].transmit(pkt.payload_len, now)
        if delivery is None:
            self.log.drops.append(metrics.Drop(now, path_id, pkt.overall_seq))
        else:
            self.queue.schedule(delivery, lambda t, p=pkt: self._arrive(p, t))
        self._ensure_timer(path_id, now)

    def _arrive(self, pkt: TunnelPacket, now: int) -> None:
        self.log.arrivals.append(
            metrics.Arrival(now, pkt.overall_seq, pkt.path_id, pkt.ingress_time)
        )
        ack_at = now + self.paths[pkt.path_id].ack_delay_us()
        self.queue.schedule(
            ack_at,
            lambda t, pid=pkt.path_id, fs=pkt.flow_seq: self._ack(pid, fs, t),
        )
        self.receiver.on_packet(pkt, now)

    def _ack(self, path_id: int, flow_seq: int, now: int) -> None:
        flow = self.flows[path_id]
        flow.ack_received(flow_seq, now)
        self._restart_timer(path_id, now)
        self._sample_flow(path_id, now)
        self._pump_greedy(now)

    def _deliver(self, pkt: TunnelPacket, now: int, residency_us: int,
                 disposition: str) -> None:
        self.log.deliveries.append(
            metrics.Delivery(now, pkt.overall_seq, pkt.path_id, pkt.ingress_time,
                             residency_us, disposition)
        )

    def _discard(self, pkt: TunnelPacket, now: int) -> None:
        self.log.discards.append(
            metrics.Discard(now, pkt.path_id, pkt.overall_seq)
        )

    def _sample_flow(self, path_id: int, now: int) -> None:
        f = self.flows[path_id]
        self.log.flow_samples.append(
            metrics.FlowSample(now, path_id, f.srtt, f.cwnd, f.in_flight,
                               len(f.send_queue))
        )

    # -- ack-silence timers ----------------------------------------------------

    def _schedule_timer(self, i: int, now: int) -> None:
        gen = self._timer_gen[i]
        self._timer_pending[i] = True
        self.queue.schedule(
            self.flows[i].timeout_deadline_us(now),
            lambda t, i=i, g=gen: self._timer_fire(i, g, t),
        )

    def _ensure_timer(self, i: int, now: int) -> None:
        if not self._timer_pending[i] and self.flows[i].outstanding_seqs():
            self._timer_gen[i] += 1
            self._schedule_timer(i, now)

    def _restart_timer(self, i: int, now: int) -> None:
        self._timer_gen[i] += 1
        if self.flows[i].outstanding_seqs():
            self._schedule_timer(i, now)
        else:
            self._timer_pending[i] = False

    def _timer_fire(self, i: int, gen: int, now: int) -> None:
        if gen != self._timer_gen[i]:
            return
        self._timer_pending[i] = False
        if self.flows[i].outstanding_seqs():
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
            self.queue.schedule(next_at, lambda t: self._emit_cbr(k + 1, t))

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
        while any(f.in_flight < f.cwnd and not f.send_queue for f in self.flows):
            self._ingress(now)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> metrics.MetricsLog:
        cfg = self.cfg
        for state in self.paths:
            for step in state.model.latency_steps:
                self.queue.schedule(
                    step.at_us,
                    lambda t, s=state, l=step.latency_us: s.apply_latency_step(l),
                )
        if cfg.traffic.kind == "cbr":
            first = cfg.traffic.emission_time_us(0)
            if first < self._traffic_stop_us:
                self.queue.schedule(first, lambda t: self._emit_cbr(0, t))
        else:
            self.queue.schedule(cfg.traffic.start_us, lambda t: self._pump_greedy(t))

        hard_stop = cfg.duration_us + cfg.reorder.max_hold_us + DRAIN_SLACK_US
        while True:
            item = self.queue.pop()
            if item is None:
                break
            at, fn = item
            if at > hard_stop:
                self.log.drained = False
                break
            fn(at)

        self.log.window_violations = sum(f.window_violations for f in self.flows)
        self.log.timeout_gaps = self.receiver.gap_count
        self.log.late_count = self.receiver.late_count
        return self.log


def run_simulation(cfg: ScenarioConfig) -> metrics.MetricsLog:
    """Validate and execute a scenario, returning its complete metrics log."""
    return Simulation(cfg).run()
