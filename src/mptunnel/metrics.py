"""Run metrics: append-only logs plus the evaluation quantities computed from
them (per-path throughput, arrival-order scatter, reordering extent, packet
delay variation) and deterministic CSV/JSON export.

The NamedTuples below document each record's field order, and their field
names are the export columns wherever the two agree. The engine records
every stream, flow samples included, as plain tuples in those orders. Every
reader here indexes or unpacks, so it accepts either form. compute_pdv keeps
no per-sample tuple: its result holds parallel lists of sequence numbers and
values, and the pdv export zips them into PdvSample-ordered rows.

Export schema version 1. Column layouts are fixed; see the README for the
full schema reference.
"""

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter
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


Discard = Drop  # an equalizer discard records the same fields as a drop


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
    """Delay-variation samples in sequence order: values[i] is the sample of
    seqs[i]. skipped counts sequence numbers whose predecessor never landed."""
    seqs: list[int]
    values: list[float]
    skipped: int


@dataclass
class MetricsLog:
    """Everything a run records; all lists are append-only and time-ordered.

    Each stream holds plain tuples in the field order of the NamedTuple of
    the same name (deliveries: Delivery, ..., flow_rows: FlowSample).
    flow_samples is a read-only view of flow_rows as FlowSample instances,
    built anew on each read. compute_pdv keeps its last result here.
    """

    deliveries: list[tuple] = field(default_factory=list)
    arrivals: list[tuple] = field(default_factory=list)
    sends: list[tuple] = field(default_factory=list)
    drops: list[tuple] = field(default_factory=list)
    discards: list[tuple] = field(default_factory=list)
    decisions: list[tuple] = field(default_factory=list)
    flow_rows: list[tuple] = field(default_factory=list)
    ingress_count: int = 0
    timeout_gaps: int = 0
    late_count: int = 0
    window_violations: int = 0
    drained: bool = True
    # compute_pdv's last (key, PdvResult)
    _pdv: Optional[tuple] = field(default=None, init=False, compare=False,
                                  repr=False)

    @property
    def flow_samples(self) -> tuple[FlowSample, ...]:
        return tuple(map(FlowSample._make, self.flow_rows))


def _stream(log: MetricsLog, stream: str) -> list:
    """The chosen record stream itself, not a copy; its rows lead with
    time_us, overall_seq, path_id (Delivery and Arrival both do)."""
    if stream == "deliveries":
        return log.deliveries
    if stream == "arrivals":
        return log.arrivals
    raise ValueError(f"unknown stream {stream!r}")


def compute_pdv(log: MetricsLog, nominal_interval_us: float,
                stream: str = "deliveries") -> PdvResult:
    """Delay variation between consecutive sequence numbers.

    pdv(n) = (t(n) - t(n-1)) - nominal interval, using application-visible
    times of the chosen stream; negative when a packet landed before the one
    preceding it in sequence. Sequence numbers whose predecessor never landed
    are skipped and counted; sequence numbers start at 0, which has no
    predecessor and is neither sampled nor counted. Pure function of the
    (seq, time) pairs, so log record order does not matter; a sequence
    number recorded twice keeps its last time.

    The result is kept on the log and returned again, the same object, until
    the stream grows or another stream or interval is asked for.
    """
    rows = _stream(log, stream)
    # The interval's type is part of the key: 8000 == 8000.0, but the
    # samples' type, and so their export format, follows the interval's.
    key = (stream, type(nominal_interval_us), nominal_interval_us, len(rows))
    if log._pdv is not None and log._pdv[0] == key:
        return log._pdv[1]
    seqs, values = [], []
    skipped = 0
    # The stable sort keeps a seq's records in log order, so the last one
    # of a run of equal seqs is its last record, and seq - 1's time is final
    # before seq's first record is read.
    seq = t = prev_seq = prev_t = None
    for row in sorted(rows, key=itemgetter(1)):
        if row[1] == seq:  # recorded again: the last time wins
            t = row[0]
            if seqs and seqs[-1] == seq:
                values[-1] = (t - prev_t) - nominal_interval_us
            continue
        prev_seq, prev_t = seq, t
        t, seq = row[0], row[1]
        if seq - 1 == prev_seq:
            seqs.append(seq)
            values.append((t - prev_t) - nominal_interval_us)
        elif seq:
            skipped += 1
    result = PdvResult(seqs, values, skipped)
    log._pdv = (key, result)
    return result


def arrival_order_scatter(log: MetricsLog) -> list[tuple[int, int]]:
    """Sequence numbers in order of arrival; monotone iff nothing reordered."""
    return list(enumerate(map(itemgetter(1), log.arrivals)))


def reordering_extent(log: MetricsLog) -> dict:
    """Scrambling summary of the arrivals.

    out_of_order_count is the number of packets arriving after a higher
    sequence number was already seen; max_displacement the worst gap between
    a packet's arrival position and its in-sequence position.
    """
    seqs = [r[1] for r in log.arrivals]
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


def throughput_series(log: MetricsLog, bin_us: int) -> list[tuple[int, int, float]]:
    """Delivered payload throughput per time bin and path.

    Rows of (bin_start_us, path_id, bits_per_second). Bins with no traffic
    emit zero rows so series align across paths.
    """
    if bin_us <= 0:
        raise ValueError("bin_us must be > 0")
    if not log.deliveries:
        return []
    size_by_seq = {seq: size for _, _, seq, _, size, _ in log.sends}
    last_bin = max(d[0] for d in log.deliveries) // bin_us
    paths = sorted({d[2] for d in log.deliveries})
    bits: dict[tuple[int, int], int] = {}
    for time_us, seq, path_id, _, _, _ in log.deliveries:
        key = (time_us // bin_us, path_id)
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


def pdv_histogram(values: list[float], bin_width_us: float = 1000.0) -> dict:
    """Histogram of pdv values as bin edges plus counts."""
    if not values:
        return {"bin_edges_us": [], "counts": []}
    values = sorted(values)
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
    values = sorted(pdv.values)
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

def _template(rows) -> list[str]:
    """The one %-format spec per column that every row of a table is
    written with, in CSV and JSON alike: "%.3f" for a column of floats and
    "%s" for a column with no float. A table no single spec per column can
    write raises: rows that are not a sequence (an iterator would be used up
    by this scan), a row that is not a tuple, rows of unequal length, or a
    column mixing floats with other types."""
    if not isinstance(rows, Sequence):
        raise TypeError(f"table rows must be a sequence, not {type(rows).__name__}")
    if not all(issubclass(t, tuple) for t in set(map(type, rows))):
        raise ValueError("every table row must be a tuple")
    widths = set(map(len, rows)) or {0}
    if len(widths) != 1:
        raise ValueError(f"table rows have unequal lengths {sorted(widths)}")
    specs = []
    for i in range(widths.pop()):
        types = set(map(type, map(itemgetter(i), rows)))
        if types == {float}:
            specs.append("%.3f")
        elif any(issubclass(t, float) for t in types):
            raise ValueError(f"table column {i} mixes floats with other types")
        else:
            specs.append("%s")
    return specs


def write_csv(path, header: Sequence[str], rows: Sequence[tuple]) -> None:
    template = ",".join(_template(rows)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(template % row)


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _deliveries(log: MetricsLog, pdv) -> tuple[Sequence[str], list]:
    # One row per packet the receiver disposed of, discards included, merged
    # in time order.
    header = ["delivery_time_us", "overall_seq", "path_id",
              "buffer_residency_us", "disposition"]
    return header, sorted(
        [(t, seq, path_id, residency_us, disposition)
         for t, seq, path_id, _, residency_us, disposition in log.deliveries]
        + [(t, seq, path_id, 0, "discarded") for t, path_id, seq in log.discards]
    )


def _decisions(log: MetricsLog, pdv) -> tuple[Sequence[str], list]:
    n_paths = max((len(d[3]) for d in log.decisions if d[3]), default=0)
    header = Decision._fields[:3] + tuple(f"eta_{i}_us" for i in range(n_paths))
    blank = [""] * n_paths
    return header, [
        (t, seq, path_id) + tuple(etas_us or blank)
        for t, seq, path_id, etas_us in log.decisions
    ]


def _pdv(log: MetricsLog, pdv) -> tuple[Sequence[str], list]:
    # The only place pdv rows exist as tuples: built when written.
    result = pdv()
    return PdvSample._fields, list(zip(result.seqs, result.values))


def _headers(log: MetricsLog, pdv) -> tuple[Sequence[str], list]:
    # Bit-exact encapsulation headers of every transmitted packet.
    return ["time_us", "header_hex"], [
        (t,
         encode_header(TunnelPacket(seq, size_bytes, 0, path_id=path_id,
                                    flow_seq=flow_seq,
                                    sender_rtt_report=rtt_report_us)).hex())
        for t, path_id, seq, flow_seq, size_bytes, rtt_report_us in log.sends
    ]


# Every exportable metric: fn(log, pdv) -> (header, rows), where pdv() returns
# the run's PdvResult. A fn returning a dict instead names a metric written as
# that JSON document whatever the requested format.
METRICS = {
    "arrivals": lambda log, pdv: (
        ["arrival_time_us", "overall_seq", "path_id", "ingress_time_us"],
        log.arrivals),
    "decisions": _decisions,
    "deliveries": _deliveries,
    "discards": lambda log, pdv: (Discard._fields, log.discards),
    "drops": lambda log, pdv: (Drop._fields, log.drops),
    "flows": lambda log, pdv: (FlowSample._fields, log.flow_rows),
    "headers": _headers,
    "pdv": _pdv,
    "pdv_histogram": lambda log, pdv: pdv_histogram(pdv().values),
    "scatter": lambda log, pdv: (["arrival_index", "overall_seq"],
                                 arrival_order_scatter(log)),
    "srtt": lambda log, pdv: (FlowSample._fields[:3],
                              [s[:3] for s in log.flow_rows]),
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
        log, lambda: compute_pdv(log, nominal_interval_us, pdv_stream))
    if isinstance(table, dict):
        write_json(path, table)
        return
    header, rows = table
    if fmt == "csv":
        write_csv(path, header, rows)
    elif fmt == "json":
        specs = _template(rows)
        write_json(path, [{key: spec % (v,) for key, spec, v in zip(header, specs, row)}
                          for row in rows])
    else:
        raise ValueError(f"unknown format {fmt!r}")
