"""The benchmark's tracer contract: perfbench/spans.py wraps simulator entry
points by name and reads attributes of their arguments, so renaming or
deleting one of them must fail here, not only in a traced benchmark run.
Its child counts a run's recorded rows as the lists in vars(log), which
counts none of the packed record streams, and its sweep reads flow samples
by field name; both are checked here too, with metrics.STREAMS, the count
the child should take, against every stream.

The tracer patches classes for the rest of the process, so the traced runs
happen in a subprocess that prints its findings as one JSON line.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUNS = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from mptunnel import metrics, reorder, scheduler
from mptunnel.engine import Simulation
from mptunnel.scenario import parse_scenario

tracer = spans.Tracer()
spans.install(tracer)
packets = 0
in_flight = []
counted_rows = []
entry_points = set()
# Five runs, one per scheduler, cycle through the four reorder kinds.
receivers = sorted(reorder.RECEIVERS)
for i, kind in enumerate(sorted(scheduler.SCHEDULERS)):
    sim = Simulation(parse_scenario({
        "duration_s": 1, "seed": 3,
        "paths": [{"path_id": p, "one_way_latency_us": 5_000 + 25_000 * p,
                   "bandwidth_bps": 2_000_000, "loss_rate": 0.02}
                  for p in range(2)],
        "traffic": {"kind": "greedy", "packet_size_bytes": 1000},
        "scheduler": {"kind": kind, "weights": [1, 1] if kind == "fixed_ratio" else None},
        "reorder": {"kind": receivers[i % len(receivers)]},
    }))
    entry_points.add(f"scheduler:{type(sim.scheduler).__name__}.pick")
    owner = next(c for c in type(sim.receiver).__mro__ if "on_packet" in vars(c))
    entry_points.add(f"reorder:{owner.__name__}.on_packet")
    log = sim.run()
    packets += log.ingress_count
    in_flight += [s.in_flight for s in log.flow_samples]
    # child.py's rows_recorded counts the lists in vars(log), and no stream
    # is one; metrics.STREAMS names every stream.
    counted_rows.append((
        sum(len(v) for v in vars(log).values() if isinstance(v, list)),
        sum(len(getattr(log, name)) for name in metrics.STREAMS),
        sum(map(len, (log.sends, log.arrivals, log.deliveries, log.drops,
                      log.discards, log.decisions, log.etas, log.flow_rows)))))
calls = {name: t["calls"] for name, t in tracer.span_totals().items()}
print(json.dumps({"layers": spans.layer_metrics(tracer, packets),
                  "uncalled": sorted(e for e in entry_points if not calls.get(e)),
                  "peak_in_flight_sample": max(in_flight),
                  "counted_rows": counted_rows,
                  "peak_held": tracer.peak_held, "queue_peak": tracer.queue_peak}))
"""


def test_tracer_sees_every_layer_entry_point():
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    layers = found["layers"]
    for key in ("simcore.events", "flow.acks", "flow.losses", "flow.peak_in_flight",
                "scheduler.picks", "reorder.packets", "reorder.deadline_calls"):
        assert layers[key] > 0, key
    assert found["uncalled"] == []
    assert found["peak_held"] > 0
    assert found["queue_peak"] > 0
    assert found["peak_in_flight_sample"] > 0
    for in_lists, in_streams, streams in found["counted_rows"]:
        assert in_lists == 0
        assert in_streams == streams > 0
