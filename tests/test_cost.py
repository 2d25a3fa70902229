"""A deterministic cost model: executed lines and calls per ingress packet.

sys.settrace counts line events, and calls into functions, in mptunnel's own
source files only, so the counts repeat exactly run to run, unlike wall time
on a shared host. sys.setprofile counts, by name, the calls those files make
to builtin functions and methods (max, round, heappush, Struct.pack), though
not calls of types (int, float, tuple). No count sees the work inside C
(heap sifts, allocation, garbage collection), so they complement the
benchmark under perfbench/ and never replace it.

The gates are fixed: per-packet work grows by at most 5% from a small to a
large value of each scale knob the canned suite never reaches: path count
(16 paths against 2), resequencer hold depth (about 400 packets per skew
against 25) and window (a mean in flight several times larger). Each pair of
points first shows that it reaches those depths.

A rise of the same size at every point passes those ratios, so at three of
the points, and at one whose ack-silence timers fire, no file's lines or
calls per packet, and no builtin's calls per packet, may rise more than 1%
above tests/golden/cost.json. Those counts
depend on the CPython version that compiled the code, so the golden names
the version it was taken with and the test runs only on it. Lowering a count is free; after a change that
must raise one, rewrite the golden with `PYTHONPATH=src python
tests/test_cost.py --diff`, which also prints every entry it changed as
old -> new, and say why in the change's description.

The golden also holds, at each of those points, how often a run calls each
entry point that perfbench/spans.py wraps (ENTRY_POINTS), and those counts
must stay exactly equal: a trim of the hot path that bypasses or adds a call
to one of them would change what the benchmark's traced run reports
(events, acks, picks, deadline calls, peak hold) without any output byte
changing. They do not depend on the compiler, so they are checked on every
CPython that names a code object's co_qualname (3.11 and later).

The same holds for memory: tracemalloc counts the bytes a finished run's log
keeps per ingress packet, and those may grow by at most 8% from 2 paths to
16. At 2 paths they are at most 160: the log seals its rows into chunks that
keep only their non-zero byte planes, about 121 bytes per packet, where
8 bytes per field would take about 248. summarize, run on a finished log,
may add at most 40 bytes per ingress packet at its peak: 8 kept per
delay-variation sample (an array of doubles), 1 per ingress packet for the
mask of sampled numbers, 9 per ingress packet while the times are laid out
by sequence number, and the multiset of the samples, a value, a count and a
few pointers per distinct value, which are few. Every tabular export
streams its rows, so written as CSV, with the run's delay variation
computed first, each adds at most 16 bytes per ingress packet at its peak
on a run of about 10,000 packets, where a list of the rows took 100 to
270: each column read of the log restores one field of one block at a
time, so a read that copied the whole open tail (up to 1,023 rows) per
column would exceed that bound.

And for the cyclic collector: a finished log keeps at most 0.01 objects the
collector tracks per ingress packet, counted with the collector paused
during the run, so every object the log made is still tracked. Its rows live
in bytes, which the collector never scans; what it tracks is at most 17
objects (the log, each stream, and each stream's chunk list, made at its
first seal), so a full collection's work on the log does not grow with the
run.

And for start-up, which every run, CLI call and sweep worker pays once:
importing mptunnel loads none of the stdlib modules behind dataclasses
(inspect, ast, dis, tokenize), nor typing, nor importlib.resources (which
loads pathlib, tempfile and zipfile). The import runs in an interpreter
started with -S, since a site hook may load some of them first.
"""

import gc
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest

import mptunnel
from mptunnel import reorder, scheduler
from mptunnel.engine import Simulation
from mptunnel.metrics import METRICS, MetricsLog, compute_pdv, export_metric, summarize
from mptunnel.scenario import parse_scenario

SOURCE_DIR = str(Path(mptunnel.__file__).resolve().parent)
GOLDEN = Path(__file__).resolve().parent / "golden" / "cost.json"
# The dataclasses module and the modules it imports that mptunnel does not.
DATACLASS_MACHINERY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def own_methods(module, attr: str) -> list[str]:
    """The qualified name of attr in each class of module that defines it."""
    return [f"{cls.__qualname__}.{attr}" for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and attr in vars(cls)]


# The entry points perfbench/spans.py wraps that a run calls, by co_qualname.
ENTRY_POINTS = ("EventQueue.schedule", "EventQueue.pop", "PathState.transmit",
                "Flow.enqueue", "Flow.ack_received", "Flow.on_timeout",
                *own_methods(scheduler, "pick"), *own_methods(reorder, "on_packet"),
                "ReorderBuffer.on_arrival", "ReorderBuffer.on_deadline",
                "EqualizerLines.on_arrival")


def greedy_otias(n_paths: int, duration_s: float = 0.3,
                 loss_rate: float = 0.001) -> dict:
    """A greedy otias source over n >= 2 paths of 50 Mbps, one-way latencies
    spread evenly over 5-40 ms."""
    return {
        "name": f"cost-{n_paths}path", "duration_s": duration_s, "seed": 5,
        "paths": [
            {"path_id": i,
             "one_way_latency_us": 5_000 + 35_000 * i // (n_paths - 1),
             "bandwidth_bps": 50_000_000, "loss_rate": loss_rate}
            for i in range(n_paths)],
        "traffic": {"kind": "greedy", "packet_size_bytes": 1000},
        "scheduler": {"kind": "otias"},
        "reorder": {"kind": "none"},
    }


def window(cwnd: int) -> dict:
    """0.5 s of greedy otias over 2 paths at the loss rate whose window
    averages about cwnd packets (1.22 / sqrt(p)); the slow start of the
    40-ms path keeps the measured mean above that."""
    return greedy_otias(2, duration_s=0.5, loss_rate=(1.22 / cwnd) ** 2)


def hold(depth: int) -> dict:
    """2,000 CBR packets 9:1 over a 5-ms and a 155-ms path, at the rate that
    emits depth packets per 150-ms skew, into the adaptive resequencer."""
    rate_bps = depth * 8_000 * 1_000_000 // 150_000
    return {
        "name": f"cost-hold-{depth}", "duration_s": 2_000 * 8_000 / rate_bps,
        "seed": 5,
        "paths": [
            {"path_id": i, "one_way_latency_us": latency_us,
             "bandwidth_bps": 100_000_000, "loss_rate": 0.001}
            for i, latency_us in enumerate((5_000, 155_000))],
        "traffic": {"kind": "cbr", "rate_bps": rate_bps, "packet_size_bytes": 1000},
        "scheduler": {"kind": "fixed_ratio", "weights": [9, 1]},
        "reorder": {"kind": "adaptive", "adaptive_k": 4.0, "max_hold_us": 500_000},
    }


def latency_jump(latency_ms: int) -> dict:
    """0.6 s of greedy otias over 2 paths, path 1 stepping from 40 ms to
    latency_ms one way at 200 ms: the acks it then returns come late, so
    its ack-silence timer fires (Flow.on_timeout)."""
    data = greedy_otias(2, duration_s=0.6)
    data["paths"][1]["latency_steps"] = [{"at_us": 200_000, "latency_us": latency_ms * 1000}]
    return data


def peak_held(log) -> int:
    """Most packets the resequencer held at once: each delivery with a
    residency r was held over [time - r, time)."""
    edges = sorted(edge for t, *_, residency, _ in log.deliveries if residency
                   for edge in ((t - residency, 1), (t, -1)))
    return max(accumulate(step for _, step in edges), default=0)


def mean_in_flight(log) -> float:
    in_flight = [in_flight for *_, in_flight, _ in log.flow_rows]
    return sum(in_flight) / len(in_flight)


def counts_per_packet(data: dict) -> tuple[dict, MetricsLog]:
    """Line events and calls in each of mptunnel's files while the scenario
    runs, per ingress packet, as {"lines": {file: n}, "calls": {file: n}},
    and the builtin calls those files make as {"builtins": {name: n}},
    plus the run's calls of each entry point as {"entry_calls": {name: n}},
    and the run's log; building the Simulation is not counted."""
    sim = Simulation(parse_scenario(data))
    counts = {}  # file name -> [lines, calls]
    tracers = {}  # source path -> (its counts, its local trace function)
    entry_calls = dict.fromkeys(ENTRY_POINTS, 0)
    builtins = Counter()

    def file_tracer(name):
        count = counts[name] = [0, 0]

        def count_lines(frame, event, arg):
            if event == "line":
                count[0] += 1
            return count_lines

        return count, count_lines

    def in_package(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(SOURCE_DIR):
            return None
        if path not in tracers:
            tracers[path] = file_tracer(os.path.relpath(path, SOURCE_DIR))
        count, count_lines = tracers[path]
        count[1] += 1
        name = getattr(frame.f_code, "co_qualname", None)
        if name in entry_calls:
            entry_calls[name] += 1
        return count_lines

    def builtin_calls(frame, event, arg):
        # A c_call event's frame is the caller's, and arg the builtin called.
        if event == "c_call" and frame.f_code.co_filename.startswith(SOURCE_DIR):
            builtins[arg.__qualname__] += 1

    previous, previous_profile = sys.gettrace(), sys.getprofile()
    sys.settrace(in_package)
    sys.setprofile(builtin_calls)
    try:
        log = sim.run()
    finally:
        sys.setprofile(previous_profile)
        sys.settrace(previous)
    n = log.ingress_count
    per_packet = {kind: {name: count[i] / n for name, count in sorted(counts.items())}
                  for i, kind in enumerate(("lines", "calls"))}
    per_packet["builtins"] = {name: count / n for name, count in sorted(builtins.items())}
    return dict(per_packet, entry_calls=entry_calls), log


# The points tests/golden/cost.json holds, by the name it gives them.
GOLDEN_POINTS = {"greedy_otias(2)": (greedy_otias, 2), "hold(400)": (hold, 400),
                 "window(128)": (window, 128), "latency_jump(400)": (latency_jump, 400)}


@pytest.fixture(scope="module")
def traced():
    """traced(builder, arg): counts_per_packet(builder(arg)), each point
    traced once per module, so the golden check reuses the gates' runs."""
    runs = {}

    def get(builder, arg):
        if (builder, arg) not in runs:
            runs[builder, arg] = counts_per_packet(builder(arg))
        return runs[builder, arg]

    return get


def lines_per_packet(traced, builder, arg) -> tuple[float, MetricsLog]:
    counts, log = traced(builder, arg)
    return sum(counts["lines"].values()), log


def retained_bytes_per_packet(data: dict) -> float:
    """Bytes still allocated once the run's Simulation is freed, that is
    held by its log alone, per ingress packet; building the Simulation is
    not counted."""
    sim = Simulation(parse_scenario(data))
    # A full collection also empties CPython's free lists, so the run cannot
    # reuse, unseen, an object allocated before tracing started.
    gc.collect()
    tracemalloc.start()
    try:
        log = sim.run()
        del sim
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / log.ingress_count


def summarize_peak_bytes_per_packet(data: dict) -> float:
    """Peak bytes allocated while summarize runs on the scenario's finished
    log, per ingress packet; the log itself is allocated before tracing
    starts, so it is not counted."""
    cfg = parse_scenario(data)
    log = Simulation(cfg).run()
    gc.collect()
    tracemalloc.start()
    try:
        summarize(log, cfg.nominal_interval_us(), cfg.pdv_stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / log.ingress_count


def export_peak_bytes_per_packet(cfg, log, metric: str, path) -> float:
    """Peak bytes allocated while a metric of a finished log is written to
    path as CSV, per ingress packet; the log, and its delay variation if
    computed, are allocated before tracing starts."""
    gc.collect()
    tracemalloc.start()
    try:
        export_metric(log, metric, "csv", path, cfg.nominal_interval_us(), cfg.pdv_stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / log.ingress_count


def tracked_objects_per_packet(data: dict) -> float:
    """Objects the cyclic collector tracks that a finished log keeps, per
    ingress packet: those freed with the log, the collector paused from the
    start of the run so that none was untracked on the way."""
    sim = Simulation(parse_scenario(data))
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        log = sim.run()
        packets = log.ingress_count
        with_log = len(gc.get_objects())
        del log
        kept = with_log - len(gc.get_objects())
    finally:
        if was_enabled:
            gc.enable()
    return kept / packets


def test_lines_per_packet_do_not_grow_with_path_count(traced):
    (few, _), (many, _) = (lines_per_packet(traced, greedy_otias, n) for n in (2, 16))
    assert many <= 1.05 * few, (
        f"{many:.1f} lines per packet over 16 paths, {few:.1f} over 2")


def test_lines_per_packet_do_not_grow_with_hold_depth(traced):
    (shallow, shallow_log), (deep, deep_log) = (
        lines_per_packet(traced, hold, depth) for depth in (25, 400))
    assert peak_held(deep_log) >= 8 * peak_held(shallow_log) > 0
    assert deep <= 1.05 * shallow, (
        f"{deep:.1f} lines per packet at hold-400, {shallow:.1f} at hold-25")


def test_lines_per_packet_do_not_grow_with_window(traced):
    (small, small_log), (large, large_log) = (
        lines_per_packet(traced, window, cwnd) for cwnd in (5, 128))
    assert mean_in_flight(large_log) >= 4 * mean_in_flight(small_log)
    assert large <= 1.05 * small, (
        f"{large:.1f} lines per packet at window 128, {small:.1f} at window 5")


@pytest.mark.parametrize("point", GOLDEN_POINTS)
def test_counts_per_packet_stay_at_golden(traced, point):
    golden = json.loads(GOLDEN.read_text())
    if golden["python"] != python_version():
        pytest.skip(f"the golden counts are {golden['python']}'s")
    counts, _ = traced(*GOLDEN_POINTS[point])
    risen = {(kind, name): (count, golden["points"][point][kind].get(name, 0.0))
             for kind in ("lines", "calls", "builtins")
             for name, count in counts[kind].items()
             if count > 1.01 * golden["points"][point][kind].get(name, 0.0)}
    assert not risen, f"counts per packet above golden at {point}: {risen}"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects name no co_qualname")
@pytest.mark.parametrize("point", GOLDEN_POINTS)
def test_entry_point_calls_equal_golden(traced, point):
    golden = json.loads(GOLDEN.read_text())["points"][point]["entry_calls"]
    counts, _ = traced(*GOLDEN_POINTS[point])
    assert counts["entry_calls"] == golden, (
        f"entry-point calls at {point}: {counts['entry_calls']}, golden {golden}")


def test_a_golden_point_fires_timeouts(traced):
    # So the golden pins what Flow.on_timeout costs, which no other point runs.
    counts, log = traced(latency_jump, 400)
    assert counts["entry_calls"]["Flow.on_timeout"] > 0 and log.ingress_count > 1000


def test_retained_bytes_per_packet_do_not_grow_with_path_count():
    few, many = (retained_bytes_per_packet(greedy_otias(n)) for n in (2, 16))
    assert many <= 1.08 * few, (
        f"{many:.1f} bytes per packet over 16 paths, {few:.1f} over 2")


def test_retained_bytes_per_packet_stay_packed():
    retained = retained_bytes_per_packet(greedy_otias(2))
    assert retained <= 160, f"the log keeps {retained:.1f} bytes per packet"


@pytest.mark.parametrize("data", [greedy_otias(2), hold(400)],
                         ids=lambda data: data["name"])
def test_log_keeps_no_tracked_object_per_packet(data):
    tracked = tracked_objects_per_packet(data)
    assert tracked <= 0.01, f"the log keeps {tracked:.4f} tracked objects per packet"


@pytest.mark.parametrize("data", [greedy_otias(2), greedy_otias(16), hold(400)],
                         ids=lambda data: data["name"])
def test_summarize_peak_bytes_per_packet(data):
    peak = summarize_peak_bytes_per_packet(data)
    assert peak <= 40, f"summarize peaks at {peak:.1f} bytes per packet"


@pytest.fixture(scope="module")
def export_run():
    """A 2-s greedy otias run over 2 paths as (cfg, log), its delay variation
    computed, as every export of the run computes it first."""
    cfg = parse_scenario(greedy_otias(2, duration_s=2))
    log = Simulation(cfg).run()
    compute_pdv(log, cfg.nominal_interval_us(), cfg.pdv_stream)
    return cfg, log


@pytest.mark.parametrize("metric", sorted(set(METRICS) - {"pdv_histogram"}))
def test_export_peak_bytes_per_packet(export_run, metric, tmp_path):
    peak = export_peak_bytes_per_packet(*export_run, metric, tmp_path / f"{metric}.csv")
    assert peak <= 16, f"the {metric} export peaks at {peak:.1f} bytes per packet"


def loaded_by_import(module: str, names) -> list[str]:
    """Which of names a fresh interpreter loads to import module. It starts
    with -S, so no site hook loads any of them first; PYTHONPATH still
    applies."""
    code = ("import sys; before = set(sys.modules); "
            f"import {module}; print(*set(sys.modules) - before)")
    env = dict(os.environ, PYTHONPATH=str(Path(SOURCE_DIR).parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return sorted(set(out.split()) & set(names))


def test_import_loads_no_dataclass_machinery():
    loaded = loaded_by_import("mptunnel.cli", DATACLASS_MACHINERY)
    assert loaded == [], f"importing mptunnel.cli loads {loaded}"


def test_import_loads_no_typing_or_resources():
    loaded = loaded_by_import("mptunnel.cli", ("typing", "importlib.resources",
                                               *DATACLASS_MACHINERY))
    assert loaded == [], f"importing mptunnel.cli loads {loaded}"


def python_version() -> str:
    return f"{platform.python_implementation()} {sys.version_info[0]}.{sys.version_info[1]}"


def write_golden() -> dict:
    """Rewrite the golden from this tree's counts; return the new golden."""
    points = {point: counts_per_packet(builder(arg))[0]
              for point, (builder, arg) in GOLDEN_POINTS.items()}
    rounded = {point: {kind: {name: round(n, 6) for name, n in by_name.items()}
                       for kind, by_name in counts.items()}
               for point, counts in points.items()}
    golden = {"python": python_version(), "points": rounded}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden


def golden_changes(old: dict, new: dict) -> list[str]:
    """One "point kind name: old -> new" line per golden entry whose value
    changed, "-" standing for an entry one side lacks."""
    changes = [f"python: {old.get('python')} -> {new['python']}"
               ] if old.get("python") != new["python"] else []
    for point in sorted(old.get("points", {}).keys() | new["points"].keys()):
        before, after = old.get("points", {}).get(point, {}), new["points"].get(point, {})
        for kind in sorted(before.keys() | after.keys()):
            was, now = before.get(kind, {}), after.get(kind, {})
            changes += [f"{point} {kind} {name}: {was.get(name, '-')} -> {now.get(name, '-')}"
                        for name in sorted(was.keys() | now.keys())
                        if was.get(name) != now.get(name)]
    return changes


if __name__ == "__main__":
    # --diff also prints each entry the rewrite changed, as old -> new.
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = write_golden()
    if "--diff" in sys.argv[1:]:
        print("\n".join(golden_changes(old, new)) or "no golden entry changed")
