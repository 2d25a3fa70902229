"""Benchmark inputs: the three named workloads and the scaling-sweep points.

Every input is built from a benchmark seed. A seed selects one of VARIANTS
input variants (seed modulo VARIANTS); the variant picks the simulator seed
of every scenario in the workload (the variant number itself, or
GREEDY_SEEDS[variant] for greedy-8path), so the loss draws change with the
seed while the workload's shape stays fixed. Reference output digests are
stored for every variant, which is why the set is finite.

This module does not import mptunnel. It only describes scenarios: a
("canned", name) item is loaded with mptunnel's load_canned and re-seeded, a
("dict", data) item is handed to mptunnel's parse_scenario.
"""

VARIANTS = 16

# The ten canned scenarios shipped with the package, named explicitly so that
# adding a scenario to the package does not silently change the workload.
PAPER_SUITE = (
    "adaptive-jump",
    "delay-equalize",
    "otias-moderate",
    "otias-saturated",
    "pdv-adaptive",
    "pdv-default",
    "pdv-otias",
    "pdv-srtt",
    "rr-saturated",
    "srtt-handover",
)

WORKLOADS = ("paper-suite", "greedy-8path", "cbr-deep-hold")

# Simulator seeds of the greedy-8path variants: the first 16 seeds >= 0 whose
# run ingests 49,000-50,000 packets. At 0.1% loss each path sees only a few
# losses per second, so over 4 s the volume depends on when the first losses
# strike (43k-56k packets over seeds 0-127, 7% between quartiles). Equal
# volume keeps every variant the same amount of work, so differences between
# seeds in pkts_per_s and peak_rss_mb come from the host, not the input.
GREEDY_SEEDS = (5, 10, 18, 22, 31, 39, 41, 45, 47, 56, 58, 64, 67, 69, 76, 77)

PACKET_BYTES = 1000
SKEW_US = 150_000


def variant(seed: int) -> int:
    return seed % VARIANTS


def greedy_paths(n_paths: int, sim_seed: int, duration_s: float,
                 loss_rate: float = 0.001) -> dict:
    """Greedy otias source over n >= 2 paths of 50 Mbps with one-way
    latencies spread evenly over 5-40 ms."""
    latencies_ms = [5 + 35 * i / (n_paths - 1) for i in range(n_paths)]
    return {
        "name": f"greedy-{n_paths}path",
        "duration_s": duration_s,
        "seed": sim_seed,
        "paths": [
            {"path_id": i, "one_way_latency_us": int(round(ms * 1000)),
             "bandwidth_bps": 50_000_000, "loss_rate": loss_rate}
            for i, ms in enumerate(latencies_ms)
        ],
        "traffic": {"kind": "greedy", "packet_size_bytes": PACKET_BYTES},
        "scheduler": {"kind": "otias"},
        "reorder": {"kind": "none"},
    }


def cbr_skewed(rate_bps: int, sim_seed: int, duration_s: float) -> dict:
    """CBR over a 5 ms and a 155 ms path, 9:1, adaptive resequencing."""
    return {
        "name": "cbr-deep-hold",
        "duration_s": duration_s,
        "seed": sim_seed,
        "paths": [
            {"path_id": 0, "one_way_latency_us": 5_000,
             "bandwidth_bps": 100_000_000, "loss_rate": 0.001},
            {"path_id": 1, "one_way_latency_us": 5_000 + SKEW_US,
             "bandwidth_bps": 100_000_000, "loss_rate": 0.001},
        ],
        "traffic": {"kind": "cbr", "rate_bps": rate_bps,
                    "packet_size_bytes": PACKET_BYTES},
        "scheduler": {"kind": "fixed_ratio", "weights": [9, 1]},
        "reorder": {"kind": "adaptive", "adaptive_k": 4.0, "max_hold_us": 500_000},
    }


def scenarios(workload: str, seed: int) -> list[tuple[str, object]]:
    """The scenario items of one workload run, in execution order."""
    v = variant(seed)
    if workload == "paper-suite":
        return [("canned", name) for name in PAPER_SUITE]
    if workload == "greedy-8path":
        return [("dict", greedy_paths(8, GREEDY_SEEDS[v], duration_s=4.0))]
    if workload == "cbr-deep-hold":
        return [("dict", cbr_skewed(10_000_000, v, duration_s=30.0))]
    raise ValueError(f"unknown workload {workload!r}")


def _hold_rate_bps(depth: int) -> int:
    """CBR rate that emits `depth` packets during one skew interval."""
    return depth * PACKET_BYTES * 8 * 1_000_000 // SKEW_US


def _cwnd_loss_rate(cwnd: int) -> float:
    """Loss rate at which a halving-on-loss window averages about `cwnd`
    (the 1.22/sqrt(p) rule)."""
    return (1.22 / cwnd) ** 2


def sweep_points(seed: int) -> list[tuple[str, dict]]:
    """(metric suffix, scenario) pairs of the per-packet cost sweep.

    paths-N: greedy otias over N paths. hold-N: CBR at the rate that emits N
    packets per 150 ms skew, 8000 packets each. cwnd-N: greedy over two paths
    at the loss rate whose window averages about N packets. The labels are
    nominal; the sweep also records each point's measured mean in-flight.
    """
    v = variant(seed)
    points = [(f"paths-{n}", greedy_paths(n, v, duration_s=0.6))
              for n in (2, 4, 8, 16)]
    for depth in (25, 100, 400):
        rate = _hold_rate_bps(depth)
        duration = 8000 * PACKET_BYTES * 8 / rate
        points.append((f"hold-{depth}", cbr_skewed(rate, v, duration_s=duration)))
    for cwnd in (8, 32, 128):
        points.append((f"cwnd-{cwnd}",
                       greedy_paths(2, v, duration_s=2.0,
                                    loss_rate=_cwnd_loss_rate(cwnd))))
    return points
