"""Span recorder for the traced run.

The tracer replaces the public entry points of each mptunnel layer with
wrappers defined here; nothing under src/ is changed. Every call through a
wrapper records one span: name, start, end, parent span and run id (the index
of the scenario within the workload run). Spans are kept in compact arrays in
memory and written out once, at the end.

A layer's self time is the sum over its spans of duration minus the time
covered by direct child spans. Spans sit only at layer entry points, so code
a layer runs through a callback into another layer without crossing a traced
entry point is charged to the caller: the engine's send-side logging runs
inside Flow.enqueue and is charged to flow, and the engine's event handlers
are the self time of Simulation.run.
"""

import functools
import inspect
import json
import time
from array import array

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "run")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("H")
        self.run_id = 0
        self._stack: list[int] = []
        # Deterministic counts gathered by post-call hooks.
        self.events = 0
        self.queue_peak = 0
        self.peak_in_flight = 0
        self.pick_paths = 0
        self.peak_held = 0
        self.useful_deadlines = 0
        self.losses = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped to record a span; after(args, result) runs inside it."""
        nid = self._name_id(name)
        names, starts, ends, parents, runs = (self.name, self.start, self.end,
                                              self.parent, self.run)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, layer: str, after=None) -> None:
        fn = getattr(owner, attr)
        label = owner.__name__.rsplit(".", 1)[-1]
        setattr(owner, attr, self.wrap(f"{layer}:{label}.{attr}", fn, after))

    # -- results ---------------------------------------------------------------

    def span_totals(self) -> dict[str, dict]:
        """Per span name: call count, total duration and self time (ns)."""
        n = len(self.name)
        child = array("q", bytes(8 * n))
        for p, s, e in zip(self.parent, self.start, self.end):
            if p >= 0:
                child[p] += e - s
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for nid, s, e, c in zip(self.name, self.start, self.end, child):
            calls[nid] += 1
            total[nid] += e - s
            own[nid] += e - s - c
        return {name: {"calls": calls[i], "total_ns": total[i], "self_ns": own[i]}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write the spans: a JSON header line, then the raw arrays in
        SPAN_FIELDS order (native byte order)."""
        header = {"fields": list(SPAN_FIELDS), "count": len(self.name),
                  "names": self.names,
                  "typecodes": [a.typecode for a in self._arrays()]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in self._arrays():
                arr.tofile(fh)

    def _arrays(self):
        return (self.name, self.start, self.end, self.parent, self.run)


def _own_methods(module, attr: str) -> list:
    """Classes defined in module that define attr themselves."""
    return [cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and attr in vars(cls)]


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the imported mptunnel package."""
    from mptunnel import engine, flow, metrics, reorder, scenario, scheduler, simcore

    t = tracer  # short name for the hooks below

    def count_event(args, result):
        if result is not None:
            t.events += 1

    def queue_depth(args, result):
        t.queue_peak = max(t.queue_peak, len(args[0]))

    def in_flight(args, result):
        t.peak_in_flight = max(t.peak_in_flight, args[0].in_flight)

    def pick_width(args, result):
        t.pick_paths = max(t.pick_paths, len(args[1]))

    def held(args, result):
        t.peak_held = max(t.peak_held, len(args[0].held))

    def deadline_released(args, result):
        if result:
            t.useful_deadlines += 1

    def run_done(args, result):
        t.losses += sum(f.packets_lost for f in args[0].flows)

    t.patch(simcore.EventQueue, "schedule", "simcore", queue_depth)
    t.patch(simcore.EventQueue, "pop", "simcore", count_event)
    t.patch(simcore.PathState, "transmit", "simcore")
    t.patch(flow.Flow, "enqueue", "flow", in_flight)
    t.patch(flow.Flow, "ack_received", "flow", in_flight)
    t.patch(flow.Flow, "on_timeout", "flow")
    for cls in _own_methods(scheduler, "pick"):
        t.patch(cls, "pick", "scheduler", pick_width)
    for cls in _own_methods(reorder, "on_packet"):
        t.patch(cls, "on_packet", "reorder")
    t.patch(reorder.ReorderBuffer, "on_arrival", "reorder", held)
    t.patch(reorder.ReorderBuffer, "on_deadline", "reorder", deadline_released)
    t.patch(reorder.EqualizerLines, "on_arrival", "reorder")
    t.patch(metrics, "summarize", "metrics")
    t.patch(metrics, "export_metric", "metrics")
    t.patch(metrics, "write_json", "metrics")
    t.patch(scenario, "parse_scenario", "scenario")
    t.patch(engine.Simulation, "__init__", "engine")
    t.patch(engine.Simulation, "run", "engine", run_done)


def layer_metrics(tracer: Tracer, packets: int) -> dict[str, float]:
    """Per-layer numbers from the recorded spans and hook counts."""
    spans = tracer.span_totals()

    def span_sum(prefix=None, suffix=None, key="self_ns"):
        return sum(v[key] for k, v in spans.items()
                   if (prefix is None or k.startswith(prefix))
                   and (suffix is None or k.endswith(suffix)))

    def calls(suffix):
        return span_sum(suffix=suffix, key="calls")

    def per(ns, count):
        return ns / count if count else 0.0

    acks = calls(":Flow.ack_received")
    picks = span_sum(prefix="scheduler:", key="calls")
    rx_packets = calls(".on_packet")
    deadline_calls = calls(":ReorderBuffer.on_deadline")
    run_self = span_sum(suffix=":Simulation.run")
    return {
        "simcore.self_s": span_sum(prefix="simcore:") / 1e9,
        "simcore.events": tracer.events,
        "simcore.ns_per_event": per(span_sum(prefix="simcore:"), tracer.events),
        "simcore.queue_peak": tracer.queue_peak,
        "flow.self_s": span_sum(prefix="flow:") / 1e9,
        "flow.acks": acks,
        "flow.ns_per_ack": per(span_sum(suffix=":Flow.ack_received"), acks),
        "flow.peak_in_flight": tracer.peak_in_flight,
        "flow.losses": tracer.losses,
        "flow.timeouts": calls(":Flow.on_timeout"),
        "scheduler.self_s": span_sum(prefix="scheduler:") / 1e9,
        "scheduler.picks": picks,
        "scheduler.ns_per_pick": per(span_sum(prefix="scheduler:"), picks),
        "scheduler.paths": tracer.pick_paths,
        "reorder.self_s": span_sum(prefix="reorder:") / 1e9,
        "reorder.packets": rx_packets,
        "reorder.ns_per_packet": per(span_sum(prefix="reorder:"), rx_packets),
        "reorder.deadline_calls": deadline_calls,
        "reorder.deadline_useful_ratio": (tracer.useful_deadlines / deadline_calls
                                          if deadline_calls else 0.0),
        "reorder.peak_held": tracer.peak_held,
        "engine.self_s": span_sum(prefix="engine:") / 1e9,
        "engine.ns_per_pkt": per(run_self, packets),
        "engine.build_s": span_sum(suffix=":Simulation.__init__", key="total_ns") / 1e9,
        "metrics.summarize_s": span_sum(suffix=".summarize", key="total_ns") / 1e9,
        "metrics.export_s": (span_sum(suffix=".export_metric")
                             + span_sum(suffix=".write_json")) / 1e9,
        "scenario.parse_s": span_sum(suffix=".parse_scenario", key="total_ns") / 1e9,
    }
