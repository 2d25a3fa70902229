"""A deterministic cost model: executed lines per ingress packet.

sys.settrace counts line events in mptunnel's own source files only, so the
count repeats exactly run to run, unlike wall time on a shared host. It does
not see work inside C (heap operations, allocation, garbage collection), so
it complements the benchmark under perfbench/ and never replaces it.

The gate is fixed: a greedy otias run over 16 paths executes at most 1.05
times the lines per packet of the same run over 2 paths, so per-packet work
does not grow with the number of paths.
"""

import sys
from pathlib import Path

import mptunnel
from mptunnel.engine import Simulation
from mptunnel.scenario import parse_scenario

SOURCE_DIR = str(Path(mptunnel.__file__).resolve().parent)


def greedy_otias(n_paths: int) -> dict:
    """0.3 simulated seconds of a greedy otias source over n >= 2 paths of
    50 Mbps, one-way latencies spread evenly over 5-40 ms."""
    return {
        "name": f"cost-{n_paths}path", "duration_s": 0.3, "seed": 5,
        "paths": [
            {"path_id": i,
             "one_way_latency_us": 5_000 + 35_000 * i // (n_paths - 1),
             "bandwidth_bps": 50_000_000, "loss_rate": 0.001}
            for i in range(n_paths)],
        "traffic": {"kind": "greedy", "packet_size_bytes": 1000},
        "scheduler": {"kind": "otias"},
        "reorder": {"kind": "none"},
    }


def lines_per_packet(data: dict) -> float:
    """Line events in mptunnel's files while the scenario runs, per ingress
    packet; building the Simulation is not counted."""
    sim = Simulation(parse_scenario(data))
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count_lines

    def in_package(frame, event, arg):
        return count_lines if frame.f_code.co_filename.startswith(SOURCE_DIR) else None

    previous = sys.gettrace()
    sys.settrace(in_package)
    try:
        log = sim.run()
    finally:
        sys.settrace(previous)
    return lines / log.ingress_count


def test_lines_per_packet_do_not_grow_with_path_count():
    few, many = lines_per_packet(greedy_otias(2)), lines_per_packet(greedy_otias(16))
    assert many <= 1.05 * few, (
        f"{many:.1f} lines per packet over 16 paths, {few:.1f} over 2")
