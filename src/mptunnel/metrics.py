"""Run metrics: append-only logs plus the evaluation quantities computed from
them (per-path throughput, arrival-order scatter, reordering extent, packet
delay variation) and deterministic CSV/JSON export.

The NamedTuples below document each record's field order. The engine records
the event streams as plain tuples in those orders, and compute_pdv returns
plain (overall_seq, pdv_us) pairs; flow samples are FlowSample instances.
Every reader here indexes or unpacks, so it accepts either form.

Export schema version 1. Column layouts are fixed; see the README for the
full schema reference.
"""

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .flow import TunnelPacket, encode_header

SCHEMA_VERSION = 1
THROUGHPUT_BIN_US = 100_000


class Delivery(NamedTuple):
    time_us: int
    overall_seq: int
    path_id: int
    ingress_time_us: int
    residency_us: int
    disposition: str


class Arrival(NamedTuple):
    time_us: int
    overall_seq: int
    path_id: int
    ingress_time_us: int


class Send(NamedTuple):
    time_us: int
    path_id: int
    overall_seq: int
    flow_seq: int
    size_bytes: int
    rtt_report_us: int


class Drop(NamedTuple):
    time_us: int
    path_id: int
    overall_seq: int


class Discard(NamedTuple):
    time_us: int
    path_id: int
    overall_seq: int


class Decision(NamedTuple):
    time_us: int
    overall_seq: int
    path_id: int
    etas_us: Optional[tuple]


class FlowSample(NamedTuple):
    time_us: int
    path_id: int
    srtt_us: float
    cwnd: float
    in_flight: int
    queue_len: int


class PdvSample(NamedTuple):
    overall_seq: int
    pdv_us: float


@dataclass
class PdvResult:
    samples: list[tuple[int, float]]  # in PdvSample field order
    skipped: int


@dataclass
class MetricsLog:
    """Everything a run records; all lists are append-only and time-ordered.

    Each event stream holds tuples in the field order of the NamedTuple of
    the same name (deliveries: Delivery, ...).
    """

    deliveries: list[tuple] = field(default_factory=list)
    arrivals: list[tuple] = field(default_factory=list)
    sends: list[tuple] = field(default_factory=list)
    drops: list[tuple] = field(default_factory=list)
    discards: list[tuple] = field(default_factory=list)
    decisions: list[tuple] = field(default_factory=list)
    flow_samples: list[FlowSample] = field(default_factory=list)
    ingress_count: int = 0
    timeout_gaps: int = 0
    late_count: int = 0
    window_violations: int = 0
    drained: bool = True


def _stream(log: MetricsLog, stream: str):
    """(time, seq, path) tuples of the chosen record stream."""
    # Both Delivery and Arrival lead with time_us, overall_seq, path_id.
    if stream == "deliveries":
        return [d[:3] for d in log.deliveries]
    if stream == "arrivals":
        return [a[:3] for a in log.arrivals]
    raise ValueError(f"unknown stream {stream!r}")


def compute_pdv(log: MetricsLog, nominal_interval_us: float,
                stream: str = "deliveries") -> PdvResult:
    """Delay variation between consecutive sequence numbers.

    pdv(n) = (t(n) - t(n-1)) - nominal interval, using application-visible
    times of the chosen stream; negative when a packet landed before the one
    preceding it in sequence. Sequence numbers whose predecessor never landed
    are skipped and counted. Pure function of the (seq, time) pairs, so log
    record order does not matter.
    """
    times = {seq: t for t, seq, _ in _stream(log, stream)}
    samples = []
    skipped = 0
    for seq in sorted(times):
        if seq == 0:
            continue
        prev = times.get(seq - 1)
        if prev is None:
            skipped += 1
            continue
        samples.append((seq, (times[seq] - prev) - nominal_interval_us))
    return PdvResult(samples, skipped)


def arrival_order_scatter(log: MetricsLog,
                          stream: str = "arrivals") -> list[tuple[int, int]]:
    """Sequence numbers in order of arrival; monotone iff nothing reordered."""
    return [(i, seq) for i, (_, seq, _) in enumerate(_stream(log, stream))]


def reordering_extent(log: MetricsLog, stream: str = "arrivals") -> dict:
    """Scrambling summary of a record stream.

    out_of_order_count is the number of packets arriving after a higher
    sequence number was already seen; max_displacement the worst gap between
    a packet's arrival position and its in-sequence position.
    """
    seqs = [seq for _, seq, _ in _stream(log, stream)]
    rank = {seq: i for i, seq in enumerate(sorted(seqs))}
    out_of_order = 0
    max_disp = 0
    high = -1
    for i, seq in enumerate(seqs):
        if seq < high:
            out_of_order += 1
        else:
            high = seq
        max_disp = max(max_disp, i - rank[seq])
    return {
        "out_of_order_count": out_of_order,
        "max_displacement": max_disp,
        "gap_count": log.timeout_gaps,
    }


def throughput_series(log: MetricsLog, bin_us: int,
                      per_path: bool = True) -> list[tuple[int, int, float]]:
    """Delivered payload throughput per time bin.

    Rows of (bin_start_us, path_id, bits_per_second); path_id is -1 for the
    aggregate series when per_path is false. Bins with no traffic emit zero
    rows so series align across paths.
    """
    if bin_us <= 0:
        raise ValueError("bin_us must be > 0")
    if not log.deliveries:
        return []
    size_by_seq = {seq: size for _, _, seq, _, size, _ in log.sends}
    last_bin = max(d[0] for d in log.deliveries) // bin_us
    paths = sorted({d[2] for d in log.deliveries}) if per_path else [-1]
    bits: dict[tuple[int, int], int] = {}
    for time_us, seq, path_id, _, _, _ in log.deliveries:
        key = (time_us // bin_us, path_id if per_path else -1)
        bits[key] = bits.get(key, 0) + size_by_seq.get(seq, 0) * 8
    rows = []
    for b in range(last_bin + 1):
        for p in paths:
            rows.append((b * bin_us, p, bits.get((b, p), 0) * 1_000_000 / bin_us))
    return rows


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[max(0, min(len(sorted_values) - 1, rank - 1))]


def pdv_histogram(samples: list[tuple[int, float]],
                  bin_width_us: float = 1000.0) -> dict:
    """Histogram of pdv values as bin edges plus counts."""
    if not samples:
        return {"bin_edges_us": [], "counts": []}
    values = sorted(v for _, v in samples)
    lo = float(values[0] // bin_width_us * bin_width_us)
    n_bins = int((values[-1] - lo) // bin_width_us) + 1
    counts = [0] * n_bins
    for v in values:
        counts[min(int((v - lo) // bin_width_us), n_bins - 1)] += 1
    edges = [round(lo + i * bin_width_us, 3) for i in range(n_bins + 1)]
    return {"bin_edges_us": edges, "counts": counts}


def summarize(log: MetricsLog, nominal_interval_us: float,
              pdv_stream: str = "deliveries") -> dict:
    """Run totals plus the delay-variation distribution summary."""
    pdv = compute_pdv(log, nominal_interval_us, pdv_stream)
    values = sorted(v for _, v in pdv.samples)
    mean = sum(values) / len(values) if values else 0.0
    return {
        "schema_version": SCHEMA_VERSION,
        "sent": log.ingress_count,
        "transmitted": len(log.sends),
        "delivered": len(log.deliveries),
        "dropped": len(log.drops),
        "discarded": len(log.discards),
        "late": log.late_count,
        "timeout_gaps": log.timeout_gaps,
        "window_violations": log.window_violations,
        "drained": log.drained,
        "pdv": {
            "count": len(values),
            "skipped": pdv.skipped,
            "mean_us": round(mean, 3),
            "p50_us": round(percentile(values, 0.50), 3),
            "p95_us": round(percentile(values, 0.95), 3),
            "p99_us": round(percentile(values, 0.99), 3),
        },
    }


# -- file export -------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _deliveries(log: MetricsLog, pdv) -> tuple[list[str], list]:
    # One row per packet the receiver disposed of, discards included, merged
    # in time order.
    header = ["delivery_time_us", "overall_seq", "path_id",
              "buffer_residency_us", "disposition"]
    return header, sorted(
        [(t, seq, path_id, residency_us, disposition)
         for t, seq, path_id, _, residency_us, disposition in log.deliveries]
        + [(t, seq, path_id, 0, "discarded") for t, path_id, seq in log.discards]
    )


def _decisions(log: MetricsLog, pdv) -> tuple[list[str], list]:
    n_paths = max((len(d[3]) for d in log.decisions if d[3]), default=0)
    header = ["time_us", "overall_seq", "path_id"] + [
        f"eta_{i}_us" for i in range(n_paths)
    ]
    blank = [""] * n_paths
    return header, [
        (t, seq, path_id) + tuple(etas_us or blank)
        for t, seq, path_id, etas_us in log.decisions
    ]


def _headers(log: MetricsLog, pdv) -> tuple[list[str], list]:
    # Bit-exact encapsulation headers of every transmitted packet.
    return ["time_us", "header_hex"], [
        (t,
         encode_header(TunnelPacket(seq, size_bytes, 0, path_id=path_id,
                                    flow_seq=flow_seq,
                                    sender_rtt_report=rtt_report_us)).hex())
        for t, path_id, seq, flow_seq, size_bytes, rtt_report_us in log.sends
    ]


_EVENT_COLUMNS = ["time_us", "path_id", "overall_seq"]

# Every exportable metric: fn(log, pdv) -> (header, rows), where pdv() returns
# the run's delay-variation samples. A fn returning a dict instead names a
# metric written as that JSON document whatever the requested format.
METRICS = {
    "arrivals": lambda log, pdv: (
        ["arrival_time_us", "overall_seq", "path_id", "ingress_time_us"],
        log.arrivals),
    "decisions": _decisions,
    "deliveries": _deliveries,
    "discards": lambda log, pdv: (_EVENT_COLUMNS, log.discards),
    "drops": lambda log, pdv: (_EVENT_COLUMNS, log.drops),
    "flows": lambda log, pdv: (
        ["time_us", "path_id", "srtt_us", "cwnd", "in_flight", "queue_len"],
        log.flow_samples),
    "headers": _headers,
    "pdv": lambda log, pdv: (["overall_seq", "pdv_us"], pdv()),
    "pdv_histogram": lambda log, pdv: pdv_histogram(pdv()),
    "scatter": lambda log, pdv: (["arrival_index", "overall_seq"],
                                 arrival_order_scatter(log)),
    "srtt": lambda log, pdv: (
        ["time_us", "path_id", "srtt_us"],
        [s[:3] for s in log.flow_samples]),
    "throughput": lambda log, pdv: (
        ["bin_start_us", "path_id", "throughput_bps"],
        throughput_series(log, THROUGHPUT_BIN_US)),
}


def export_metric(log: MetricsLog, metric: str, fmt: str, path,
                  nominal_interval_us: float,
                  pdv_stream: str = "deliveries") -> None:
    """Write one named metric to path in the requested format."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    table = METRICS[metric](
        log, lambda: compute_pdv(log, nominal_interval_us, pdv_stream).samples)
    if isinstance(table, dict):
        write_json(path, table)
        return
    header, rows = table
    if fmt == "csv":
        write_csv(path, header, rows)
    elif fmt == "json":
        write_json(path, [dict(zip(header, [_fmt(v) for v in row]))
                          for row in rows])
    else:
        raise ValueError(f"unknown format {fmt!r}")
