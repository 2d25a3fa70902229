"""Run metrics: the run log, the evaluation quantities computed from it
(per-path throughput, arrival-order scatter, reordering extent, packet
delay variation) and deterministic CSV/JSON export.

STREAMS names every record stream once: its field names, in the order its
rows keep, which every export of its rows takes as its columns, and the
packed form of each field. The run's one packet size is in no row: it is a
field of the log's Totals. A Stream packs each row, 8 bytes per field, onto
one open tail and seals each CHUNK_ROWS rows of it into a chunk that keeps
only the byte planes non-zero in some row, all bytes the cyclic collector
never scans; a disposition is packed as its index in DISPOSITIONS. Read
back, a stream gives its rows as exact tuples of plain values, or one field
as a column. A decision's per-path ETAs are not in its row: the etas stream
holds one row per path whose ETA changed value at a decision (every path at
the first), and the decisions export replays it as it writes. compute_pdv
reads columns, not rows, and lays the times out over the run's packet
numbers, 0 .. ingress_count - 1, into a 1-byte mask of the sampled numbers
and an array of their float samples, 8 bytes each; summarize and
pdv_histogram count the samples by value, and the distinct values are
few. Every tabular export is a Table, as every stream is: its header, each
column's %-format, stated, and its rows, streamed.

Export schema version 1. Column layouts are fixed; see the README for the
full schema reference.
"""

import json
import math
import struct
from bisect import bisect_left, bisect_right
from collections import Counter, deque, namedtuple
from heapq import merge
from itertools import accumulate, chain, compress, count, groupby, islice, repeat
from operator import countOf, floordiv, itemgetter, ne, setitem, sub

from .flow import TunnelPacket, encode_header
from .reorder import DISPOSITION_INORDER, DISPOSITION_LATE, DISPOSITION_TIMEOUT

SCHEMA_VERSION = 1
THROUGHPUT_BIN_US = 100_000


# Every record stream of a MetricsLog: its field names, in row order, and
# one kind per field: q an int of 64 bits, d a float and c a disposition.
STREAMS = {
    "sends": (("time_us", "path_id", "overall_seq", "flow_seq", "rtt_report_us"), "qqqqq"),
    "arrivals": (("arrival_time_us", "overall_seq", "path_id", "ingress_time_us"), "qqqq"),
    "deliveries": (("delivery_time_us", "overall_seq", "path_id", "buffer_residency_us",
                    "disposition"), "qqqqc"),
    "drops": (("time_us", "path_id", "overall_seq"), "qqq"),
    "discards": (("time_us", "path_id", "overall_seq"), "qqq"),
    "decisions": (("time_us", "overall_seq", "path_id"), "qqq"),
    "etas": (("overall_seq", "path_id", "eta_us"), "qqd"),
    "flow_rows": (("time_us", "path_id", "srtt_us", "cwnd", "in_flight", "queue_len"),
                  "qqddqq"),
}
# The one row class, for the flow_samples view.
FlowSample = namedtuple("FlowSample", STREAMS["flow_rows"][0])

CHUNK_ROWS = 1024
DISPOSITIONS = (DISPOSITION_INORDER, DISPOSITION_LATE, DISPOSITION_TIMEOUT)
DISPOSITION_CODES = {d: i for i, d in enumerate(DISPOSITIONS)}
# Each stream's packed row and field formats, shared by every log.
_ROW_STRUCTS = {name: struct.Struct("=" + kinds.replace("c", "q"))
                for name, (_, kinds) in STREAMS.items()}
_SPECS = {name: tuple("%.3f" if kind == "d" else "%s" for kind in kinds)
          for name, (_, kinds) in STREAMS.items()}
_ZERO_PLANE = bytes(CHUNK_ROWS)


class Stream:
    """One record stream, stored packed: len() counts its rows, iteration
    and rows() give them as exact tuples in the field order STREAMS names,
    and column(i) gives field i alone. It serves as its own export Table:
    header is its field names, specs each field's %-format, rows() its rows.

    A row is written with no call: tail += struct.pack(*row), a disposition
    given as its DISPOSITION_CODES code. seal() moves each whole CHUNK_ROWS
    rows of the tail into a sealed chunk, stored as its byte planes (plane o
    is byte o of every row) less those that are zero in every row: one
    keep-byte per plane, then the kept planes in order. MetricsLog.seal runs
    it for every stream. The chunk list is made at the first seal, so a
    stream that never fills a chunk keeps no object the cyclic collector
    tracks. Reads seal first, and every block, each sealed chunk and then
    the tail, restores only the fields read, plane by plane: a chunk's kept
    planes are runs of its bytes, and the tail's plane o is tail[o::size].
    No read copies the whole tail or keeps a view of it, so it can always
    grow.
    """

    __slots__ = ("name", "header", "kinds", "specs", "struct", "full", "tail", "_chunks")

    def __init__(self, name: str):
        self.name = name
        self.header, self.kinds = STREAMS[name]
        self.specs = _SPECS[name]
        self.struct = _ROW_STRUCTS[name]
        self.full = CHUNK_ROWS * self.struct.size
        self.tail = bytearray()
        self._chunks: tuple | list[bytes] = ()

    def seal(self) -> None:
        size, full, tail = self.struct.size, self.full, self.tail
        while len(tail) >= full:
            if not self._chunks:
                self._chunks = []
            planes = [tail[o:full:size] for o in range(size)]
            keep = list(map(ne, planes, repeat(_ZERO_PLANE)))
            self._chunks.append(bytes(keep) + b"".join(compress(planes, keep)))
            del tail[:full]

    def column(self, i: int):
        """Field i of every row in row order, read without building rows."""
        return chain.from_iterable(self._column(block, i) for block in self._blocks())

    def _blocks(self):
        # Each block as (its bytes, its rows, the step and start of each of
        # its byte planes, a start of -1 for a plane a chunk dropped).
        self.seal()
        size = self.struct.size
        for chunk in self._chunks:
            keep = chunk[:size]
            yield chunk, CHUNK_ROWS, 1, [size + CHUNK_ROWS * k if kept else -1
                                         for k, kept in zip(accumulate(keep, initial=0), keep)]
        yield self.tail, len(self.tail) // size, size, range(size)

    def _column(self, block, i: int):
        # Put field i's planes back at the offsets they came from.
        data, rows, step, starts = block
        field = bytearray(8 * rows)
        for o, start in enumerate(starts[8 * i:8 * i + 8]):
            if start >= 0:
                field[o::8] = data[start:start + step * rows:step]
        kind = self.kinds[i]
        values = memoryview(field).cast("d" if kind == "d" else "q")
        return map(DISPOSITIONS.__getitem__, values) if kind == "c" else values

    def _rows(self, block):
        return zip(*[self._column(block, i) for i in range(len(self.kinds))])

    def __len__(self) -> int:
        return len(self._chunks) * CHUNK_ROWS + len(self.tail) // self.struct.size

    def __iter__(self):
        return chain.from_iterable(map(self._rows, self._blocks()))

    rows = __iter__


class PdvResult(namedtuple("PdvResult", "sampled values skipped")):
    """Delay-variation samples in sequence order. sampled[i] is 1 if number
    i + 1 has a sample and 0 if not, so compress(count(1), sampled) gives
    the sampled numbers; values, an array("d"), holds their samples in
    sequence order. skipped counts sequence numbers whose predecessor never
    landed."""
    __slots__ = ()


class Totals(namedtuple("Totals", "ingress_count timeout_gaps window_violations drained "
                        "packet_size_bytes", defaults=(0, 0, 0, True, 0))):
    """A MetricsLog's run totals and their starting values, and the run's one
    packet size, which the engine sets when it builds the log."""
    __slots__ = ()


class MetricsLog:
    """Everything a run records: one Stream per STREAMS entry, an attribute
    of the same name, each append-only and time-ordered, plus the Totals
    fields, which the constructor takes as Totals does.

    flow_samples is a read-only view of flow_rows as FlowSample instances,
    built anew on each read. compute_pdv keeps its last result here.
    """

    def __init__(self, *totals, **named):
        vars(self).update(Totals(*totals, **named)._asdict())
        self._pdv: tuple | None = None  # compute_pdv's last (key, PdvResult)
        for name in STREAMS:
            setattr(self, name, Stream(name))

    def seal(self) -> None:
        """Seal each stream's whole chunks (see Stream)."""
        for name in STREAMS:
            getattr(self, name).seal()

    @property
    def flow_samples(self) -> tuple[FlowSample, ...]:
        return tuple(map(FlowSample._make, self.flow_rows))


def _check_numbers(log: MetricsLog, stream: str, i: int) -> None:
    # ValueError unless field i of the stream numbers packets of the run.
    column, n = getattr(log, stream).column, log.ingress_count
    lo, hi = min(column(i), default=0), max(column(i), default=-1)
    if lo < 0 or hi >= n:
        raise ValueError(f"{stream} record sequence numbers {lo} .. {hi}, "
                         f"outside the run's 0 .. {n - 1}")


def compute_pdv(log: MetricsLog, nominal_interval_us: float,
                stream: str = "deliveries") -> PdvResult:
    """Delay variation between consecutive sequence numbers.

    pdv(n) = (t(n) - t(n-1)) - nominal interval, a float, using the
    application-visible times of the chosen stream, deliveries or arrivals;
    negative when a packet landed before its predecessor. Sequence numbers
    whose predecessor never landed are skipped and counted; sequence number
    0 has no predecessor and is neither sampled nor counted. Pure function
    of the (seq, time) pairs, so log record order does not matter; a
    sequence number recorded twice keeps its last time.

    A run numbers its packets 0 .. ingress_count - 1 in ingress order, and
    the times are laid out over that range, 9 bytes per ingress packet;
    every pass over them is C-level. A log recording a number outside the
    range raises ValueError before anything is laid out.

    The result is kept on the log and returned again, the same object, until
    the stream grows or another stream or interval is asked for.
    """
    if stream not in ("deliveries", "arrivals"):
        raise ValueError(f"unknown stream {stream!r}")
    rows = getattr(log, stream)
    key = (stream, nominal_interval_us, len(rows))
    if log._pdv is not None and log._pdv[0] == key:
        return log._pdv[1]
    _check_numbers(log, stream, 1)
    n = log.ingress_count
    times = memoryview(bytearray(8 * n)).cast("q")
    landed = bytearray(n)
    # A sequence number recorded again takes its last time.
    deque(map(setitem, repeat(times), rows.column(1), rows.column(0)), maxlen=0)
    deque(map(setitem, repeat(landed), rows.column(1), repeat(1)), maxlen=0)
    # sampled[i]: number i + 1 landed, and so did its predecessor. Each byte
    # of landed is 0 or 1, so one integer AND of landed with itself shifted
    # a byte ands every adjacent pair.
    both = int.from_bytes(landed, "little")
    sampled = ((both >> 8) & both).to_bytes(n, "little")[:-1]
    # array is a shared library, loaded on the first delay variation
    # computed rather than with the package.
    from array import array
    values = array("d", compress(
        map(sub, map(sub, times[1:], times), repeat(float(nominal_interval_us))), sampled))
    # Every number after 0 that landed unsampled is skipped.
    result = PdvResult(sampled, values, landed.count(1, 1) - len(values))
    log._pdv = (key, result)
    return result


class Table:
    """A tabular export: its header, each column's %-format, in CSV and JSON
    alike, and rows(), which like iter() returns a fresh iterator of tuples.
    A Stream serves as one as it stands."""

    def __init__(self, header: tuple[str, ...], specs: tuple[str, ...], rows):
        self.header, self.specs, self.rows = header, specs, rows

    def __iter__(self):
        return self.rows()


def arrival_order_scatter(log: MetricsLog) -> Table:
    """(arrival_index, overall_seq) rows: sequence numbers in order of
    arrival; monotone iff nothing reordered."""
    return Table(("arrival_index", "overall_seq"), ("%s", "%s"),
                 lambda: enumerate(log.arrivals.column(1)))


def reordering_extent(log: MetricsLog) -> dict:
    """Scrambling summary of the arrivals.

    out_of_order_count is the number of packets arriving after a higher
    sequence number was already seen; max_displacement the worst gap between
    a packet's arrival position and its in-sequence position.
    """
    seqs = list(log.arrivals.column(1))
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


def throughput_series(log: MetricsLog, bin_us: int) -> Table:
    """Delivered payload throughput per time bin and path.

    Rows of (bin_start_us, path_id, bits_per_second) for every bin up to the
    last delivery's and every path that delivered, zero where a path had no
    traffic. The time-ordered deliveries are read once, a bin's rows emitted
    when the next bin starts; every packet is the run's packet_size_bytes.
    """
    if bin_us <= 0:
        raise ValueError("bin_us must be > 0")
    _check_numbers(log, "deliveries", 1)
    paths = sorted(set(log.deliveries.column(2)))
    bits_per_packet = log.packet_size_bytes * 8

    def rows():
        bins = zip(map(floordiv, log.deliveries.column(0), repeat(bin_us)),
                   log.deliveries.column(2))
        start = 0
        for last, group in groupby(bins, itemgetter(0)):
            bits = dict.fromkeys(paths, 0)
            for _, path_id in group:
                bits[path_id] += bits_per_packet
            yield from ((b * bin_us, p, 0.0) for b in range(start, last) for p in paths)
            yield from ((last * bin_us, p, bits[p] * 1_000_000 / bin_us) for p in paths)
            start = last + 1

    return Table(("bin_start_us", "path_id", "throughput_bps"), ("%s", "%s", "%.3f"), rows)


def percentile(keys: list[float], ends: list[int], q: float) -> float:
    """Nearest-rank percentile of a sorted multiset: keys its distinct
    values ascending, and ends[i] the number of its values up to and
    including keys[i]."""
    if not keys:
        return 0.0
    n = ends[-1]
    position = max(0, min(n - 1, math.ceil(q * n) - 1))
    return keys[bisect_right(ends, position)]


def pdv_histogram(values, bin_width_us: float = 1000.0) -> dict:
    """Histogram of pdv values as bin edges plus counts: a value v is counted
    in bin (v - lo) // bin_width_us, lo the lowest value floored to a bin
    edge. Each distinct value adds its count to its bin."""
    if not values:
        return {"bin_edges_us": [], "counts": []}
    value_counts = Counter(values)
    lo = float(min(value_counts) // bin_width_us * bin_width_us)
    counts = [0] * (int((max(value_counts) - lo) // bin_width_us) + 1)
    for v, n in value_counts.items():
        counts[int((v - lo) // bin_width_us)] += n
    edges = [round(lo + i * bin_width_us, 3) for i in range(len(counts) + 1)]
    return {"bin_edges_us": edges, "counts": counts}


def summarize(log: MetricsLog, nominal_interval_us: float,
              pdv_stream: str = "deliveries") -> dict:
    """Run totals plus the delay-variation distribution summary.

    The samples are read as a multiset: their distinct values ascending,
    keys, and how often each occurs, counts. Equal floats are
    interchangeable in a sort, so repeating each key its count times gives
    sorted(values) exactly, for finite values other than -0.0; a
    delay-variation sample, a difference of finite values, is never -0.0 or
    NaN. The mean makes the additions of sum(sorted(values)), in its order,
    so its bits are that sum's on every CPython.
    """
    pdv = compute_pdv(log, nominal_interval_us, pdv_stream)
    value_counts = Counter(pdv.values)
    keys = sorted(value_counts)
    counts = list(map(value_counts.__getitem__, keys))
    n = len(pdv.values)
    mean = sum(chain.from_iterable(map(repeat, keys, counts))) / n if n else 0.0
    ends = list(accumulate(counts))
    return {
        "schema_version": SCHEMA_VERSION,
        "sent": log.ingress_count,
        "transmitted": len(log.sends),
        "delivered": len(log.deliveries),
        "dropped": len(log.drops),
        "discarded": len(log.discards),
        "late": countOf(log.deliveries.column(4), DISPOSITION_LATE),
        "timeout_gaps": log.timeout_gaps,
        "window_violations": log.window_violations,
        "drained": log.drained,
        "pdv": {
            "count": n,
            "skipped": pdv.skipped,
            "mean_us": round(mean, 3),
            "p50_us": round(percentile(keys, ends, 0.50), 3),
            "p95_us": round(percentile(keys, ends, 0.95), 3),
            "p99_us": round(percentile(keys, ends, 0.99), 3),
        },
    }


# -- file export -------------------------------------------------------------

def write_csv(path, table: Table) -> None:
    template = ",".join(table.specs) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(table.header) + "\n")
        fh.writelines(map(template.__mod__, table))


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _deliveries(log: MetricsLog, pdv) -> Table:
    # Every packet the receiver disposed of, discards included, in sorted
    # order: both time-ordered streams merged by time and sorted 128 rows at
    # a time, the rows of a block's last time held back, as more may follow.
    def blocks():
        gone = log.discards.column
        rows = merge(log.deliveries,
                     zip(gone(0), gone(2), gone(1), repeat(0), repeat("discarded")),
                     key=itemgetter(0))
        block = []
        while more := list(islice(rows, 128)):
            block = sorted(block + more)
            cut = bisect_left(block, block[-1][:1])
            yield block[:cut]
            block = block[cut:]
        yield block

    return Table(log.deliveries.header, log.deliveries.specs,
                 lambda: chain.from_iterable(blocks()))


def _decisions(log: MetricsLog, pdv) -> Table:
    # Each row ends with every path's ETA as of its pick: the etas rows up to
    # its overall_seq, replayed as both streams are read in sequence order.
    if not log.etas:
        return log.decisions
    n_paths = max(log.etas.column(1)) + 1
    if None in next(_with_etas(log, n_paths), ()):  # the first pick's row, if any
        raise ValueError("etas stream gives some path no ETA by the first pick")
    header = log.decisions.header + tuple(f"eta_{i}_us" for i in range(n_paths))
    return Table(header, log.decisions.specs + ("%.3f",) * n_paths,
                 lambda: _with_etas(log, n_paths))


def _with_etas(log: MetricsLog, n_paths: int):
    etas, current = [None] * n_paths, (None,) * n_paths
    changes = groupby(log.etas, itemgetter(0))
    seq, group = next(changes, (math.inf, ()))
    for row in log.decisions:
        while seq <= row[1]:
            for _, path_id, eta_us in group:
                etas[path_id] = eta_us
            current = tuple(etas)
            seq, group = next(changes, (math.inf, ()))
        yield row + current


def _pdv(log: MetricsLog, pdv) -> Table:
    result = pdv()
    return Table(("overall_seq", "pdv_us"), ("%s", "%.3f"),
                 lambda: zip(compress(count(1), result.sampled), result.values))


def _headers(log: MetricsLog, pdv) -> Table:
    # Bit-exact encapsulation headers of every transmitted packet.
    return Table(("time_us", "header_hex"), ("%s", "%s"), lambda: (
        (t, encode_header(TunnelPacket(seq, 0, path_id=path_id, flow_seq=flow_seq,
                                       sender_rtt_report=rtt_us)).hex())
        for t, path_id, seq, flow_seq, rtt_us in log.sends))


# Every exportable metric: fn(log, pdv) -> Table, pdv() giving the run's
# PdvResult; a fn returning a dict is a JSON document whatever the format.
METRICS = {
    "arrivals": lambda log, pdv: log.arrivals,
    "decisions": _decisions,
    "deliveries": _deliveries,
    "discards": lambda log, pdv: log.discards,
    "drops": lambda log, pdv: log.drops,
    "flows": lambda log, pdv: log.flow_rows,
    "headers": _headers,
    "pdv": _pdv,
    "pdv_histogram": lambda log, pdv: pdv_histogram(pdv().values),
    "scatter": lambda log, pdv: arrival_order_scatter(log),
    "srtt": lambda log, pdv: Table(log.flow_rows.header[:3], log.flow_rows.specs[:3],
                                   lambda: zip(*map(log.flow_rows.column, range(3)))),
    "throughput": lambda log, pdv: throughput_series(log, THROUGHPUT_BIN_US),
}


def export_metric(log: MetricsLog, metric: str, fmt: str, path, nominal_interval_us: float,
                  pdv_stream: str = "deliveries") -> None:
    """Write one named metric to path in the requested format, csv or json.
    An unknown metric or format raises ValueError before anything is built."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    table = METRICS[metric](log, lambda: compute_pdv(log, nominal_interval_us, pdv_stream))
    if isinstance(table, dict):
        write_json(path, table)
    elif fmt == "csv":
        write_csv(path, table)
    else:
        write_json(path, [{key: spec % (v,) for key, spec, v in
                           zip(table.header, table.specs, row)} for row in table])
