import json
import math
import random
from collections import namedtuple
from itertools import compress, count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mptunnel.metrics import (CHUNK_ROWS, DISPOSITIONS, METRICS, STREAMS, MetricsLog,
                              Totals, arrival_order_scatter, compute_pdv, pdv_histogram,
                              percentile, reordering_extent, summarize, throughput_series)


def log_with_deliveries(rows):
    # A run numbers its packets 0 .. ingress_count - 1.
    log = MetricsLog(max((seq for _, seq in rows), default=-1) + 1)
    for t, seq in rows:
        log.deliveries.append((t, seq, 0, 0, "inorder"))
    return log


def sampled_seqs(result) -> list[int]:
    return list(compress(count(1), result.sampled))


def test_pdv_perfect_cbr_stream_is_zero():
    log = log_with_deliveries([(10_000 + 8_000 * k, k) for k in range(50)])
    result = compute_pdv(log, 8_000)
    assert result.skipped == 0
    assert all(pdv_us == 0 for pdv_us in result.values)
    assert sampled_seqs(result) == list(range(1, 50))


def test_pdv_sign_convention():
    # packet n lands 2 ms before its predecessor: negative variation
    log = log_with_deliveries([(100_000, 7), (98_000, 8)])
    result = compute_pdv(log, 8_000)
    assert (sampled_seqs(result), result.values) == ([8], [-10_000])


def test_pdv_missing_predecessor_skipped_and_counted():
    log = log_with_deliveries([(0, 0), (8_000, 1), (30_000, 3), (38_000, 4)])
    result = compute_pdv(log, 8_000)
    assert result.skipped == 1           # seq 3 has no delivered seq 2
    assert sampled_seqs(result) == [1, 4]


def test_pdv_is_permutation_insensitive():
    rows = [(10_000 + 8_000 * k + (k % 3) * 100, k) for k in range(30)]
    shuffled = rows[:]
    random.Random(4).shuffle(shuffled)
    a = compute_pdv(log_with_deliveries(rows), 8_000)
    b = compute_pdv(log_with_deliveries(shuffled), 8_000)
    assert a == b


def test_pdv_second_call_returns_the_kept_result():
    log = log_with_deliveries([(10_000 + 8_000 * k, k) for k in range(10)])
    first = compute_pdv(log, 8_000)
    assert compute_pdv(log, 8_000) is first
    # Samples are floats whatever the interval's type, so an equal interval
    # of another type asks for the same result.
    assert compute_pdv(log, 8_000.0) is first
    assert {type(v) for v in first.values} == {float}


def test_pdv_after_a_row_is_appended_is_computed_again():
    log = log_with_deliveries([(10_000 + 8_000 * k, k) for k in range(10)])
    first = compute_pdv(log, 8_000)
    log.deliveries.append((95_000, 10, 0, 0, "inorder"))
    log.ingress_count = 11
    again = compute_pdv(log, 8_000)
    assert again is not first
    assert sampled_seqs(again) == sampled_seqs(first) + [10]
    assert again.values == first.values + [5_000]


def test_scatter_identity_for_in_order_run():
    log = MetricsLog()
    for k in range(20):
        log.arrivals.append((1000 * k, k, 0, 0))
    scatter = arrival_order_scatter(log)
    assert scatter.header == ("arrival_index", "overall_seq")
    assert list(scatter) == [(k, k) for k in range(20)]


def test_scatter_exposes_reordering():
    log = MetricsLog()
    for i, seq in enumerate([0, 2, 1, 3]):
        log.arrivals.append((1000 * i, seq, 0, 0))
    assert [s for _, s in arrival_order_scatter(log)] == [0, 2, 1, 3]


def test_reordering_extent_in_order_is_all_zero():
    log = MetricsLog()
    for k in range(10):
        log.arrivals.append((1000 * k, k, 0, 0))
    ext = reordering_extent(log)
    assert ext == {"out_of_order_count": 0, "max_displacement": 0, "gap_count": 0}


def test_reordering_extent_single_swap():
    log = MetricsLog()
    for i, seq in enumerate([0, 2, 1, 3]):
        log.arrivals.append((1000 * i, seq, 0, 0))
    ext = reordering_extent(log)
    assert ext["out_of_order_count"] == 1
    assert ext["max_displacement"] == 1


def test_throughput_series_values_and_conservation():
    log = MetricsLog(125, packet_size_bytes=1000)
    # 1000-byte packets every 8 ms on path 0 for one second: 1 Mbps
    for k in range(125):
        log.deliveries.append((8_000 * k + 11_200, k, 0, 0, "inorder"))
    rows = list(throughput_series(log, bin_us=100_000))
    total_bits = sum(bps * 0.1 for _, _, bps in rows)
    assert total_bits == pytest.approx(125 * 8000)
    full_bins = [bps for start, _, bps in rows if 100_000 <= start < 900_000]
    for bps in full_bins:
        assert bps == pytest.approx(1_000_000, rel=0.05)


def test_throughput_empty_log_is_empty():
    assert list(throughput_series(MetricsLog(), bin_us=100_000)) == []


@pytest.mark.parametrize("stream, row", [("deliveries", (0, 2, 0, 0, "inorder"))],
                         ids=["deliveries"])
def test_throughput_refuses_a_number_outside_the_run(stream, row):
    # A run numbers its packets 0 .. ingress_count - 1.
    log = MetricsLog(2)
    getattr(log, stream).append(row)
    with pytest.raises(ValueError, match=stream):
        throughput_series(log, bin_us=100_000)


def test_throughput_rejects_bad_bin():
    with pytest.raises(ValueError):
        throughput_series(MetricsLog(), bin_us=0)


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.50) == 2.0
    assert percentile(values, 0.95) == 4.0
    assert percentile([], 0.5) == 0.0


def test_pdv_histogram_counts():
    log = log_with_deliveries([(0, 0), (8_000, 1), (26_000, 2), (30_000, 3)])
    values = compute_pdv(log, 8_000).values
    hist = pdv_histogram(values, bin_width_us=1000.0)
    assert sum(hist["counts"]) == len(values)
    assert len(hist["bin_edges_us"]) == len(hist["counts"]) + 1


def reference_histogram(values, bin_width_us):
    """pdv_histogram's bins, counted one value at a time."""
    if not values:
        return {"bin_edges_us": [], "counts": []}
    lo = float(min(values) // bin_width_us * bin_width_us)
    n_bins = int((max(values) - lo) // bin_width_us) + 1
    counts = [0] * n_bins
    for v in values:
        counts[int((v - lo) // bin_width_us)] += 1
    return {"bin_edges_us": [round(lo + i * bin_width_us, 3) for i in range(n_bins + 1)],
            "counts": counts}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-20_000, 20_000), max_size=100) | st.lists(
    st.integers(-50, 50).map(lambda k: k * 1000 / 7), max_size=100),
    st.floats(3, 1_000_000))
@example([-1000.0, 0.0, 999.9999, 1000.0, 1000.0], 1000.0)
def test_pdv_histogram_matches_a_count_per_value(values, bin_width_us):
    hist = pdv_histogram(values, bin_width_us)
    assert hist == reference_histogram(values, bin_width_us)
    assert sum(hist["counts"]) == len(values)


def test_summary_totals(tmp_path):
    log = log_with_deliveries([(8_000 * k, k) for k in range(10)])
    log.ingress_count = 12
    summary = summarize(log, 8_000)
    assert summary["sent"] == 12
    assert summary["delivered"] == 10
    assert summary["pdv"]["count"] == 9
    assert summary["pdv"]["mean_us"] == 0.0
    json.dumps(summary)  # must be serializable


def test_header_trace_export_is_bit_exact(tmp_path):
    from mptunnel.metrics import export_metric
    from test_flow import decode_header

    log = MetricsLog()
    for k in range(5):
        log.sends.append((1000 * k, k % 2, k, k // 2, 20_800 + k))
    out = tmp_path / "headers.csv"
    export_metric(log, "headers", "csv", out, 0.0)
    lines = out.read_text().splitlines()
    assert lines[0] == "time_us,header_hex"
    for line, (_, path_id, seq, flow_seq, rtt_report_us) in zip(lines[1:], log.sends):
        fields = decode_header(bytes.fromhex(line.split(",")[1]))
        assert fields.version == 1
        assert fields.path_id == path_id
        assert fields.overall_seq == seq
        assert fields.sender_rtt_report == rtt_report_us
        assert fields.flow_seq_low32 == flow_seq


def test_decisions_export_replays_the_eta_changes():
    log = MetricsLog()
    for row in [(0, 0, 1), (5, 1, 0), (9, 2, 0)]:
        log.decisions.append(row)
    # No ETA ever recorded: the stream as it stands.
    table = METRICS["decisions"](log, None)
    assert table.header == ("time_us", "overall_seq", "path_id")
    assert list(table) == [(0, 0, 1), (5, 1, 0), (9, 2, 0)]
    for row in [(0, 0, 2.5), (0, 1, 1.5), (2, 1, 4.0)]:
        log.etas.append(row)
    table = METRICS["decisions"](log, None)
    assert table.header[3:] == ("eta_0_us", "eta_1_us")
    assert list(table) == [(0, 0, 1, 2.5, 1.5), (5, 1, 0, 2.5, 1.5), (9, 2, 0, 2.5, 4.0)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("etas", [
    [(0, 0, 2.5), (1, 1, 4.0)],  # path 1's first ETA comes after the first pick
    [(1, 0, 2.5), (1, 1, 4.0)],  # no path has an ETA at the first pick
])
def test_decisions_export_refuses_a_path_with_no_eta_by_the_first_pick(tmp_path, etas, fmt):
    from mptunnel.metrics import export_metric

    log = MetricsLog(ingress_count=2)
    for row in [(0, 0, 0), (5, 1, 0)]:
        log.decisions.append(row)
    for row in etas:
        log.etas.append(row)
    out = tmp_path / f"decisions.{fmt}"
    with pytest.raises(ValueError, match="etas stream gives some path no ETA by the first pick"):
        export_metric(log, "decisions", fmt, out, 0.0)
    assert not out.exists()


# -- packed record streams ----------------------------------------------------

INT64 = st.integers(-(2**63 - 1), 2**63 - 1)
FIELD_VALUES = {
    "q": st.one_of(INT64, st.sampled_from([2**63 - 1, -(2**63 - 1), 0, -1])),
    "d": st.floats(),
    "c": st.sampled_from(DISPOSITIONS),
}


@settings(max_examples=60)
@given(st.sampled_from(sorted(STREAMS)), st.data())
# One example per stream crosses a chunk boundary with the extreme ints.
@example("sends", None)
@example("decisions", None)
@example("deliveries", None)
@example("etas", None)
@example("flow_rows", None)
def test_stream_round_trip(name, data):
    fields, kinds = STREAMS[name]
    named = namedtuple("Row", fields)
    if data is None:
        n_rows = 2 * CHUNK_ROWS + 5
        rows = [tuple({"q": (2**63 - 1, -(2**63 - 1), i)[i % 3], "d": i / 7,
                       "c": DISPOSITIONS[i % 3]}[k]
                      for k in kinds) for i in range(n_rows)]
    else:
        n_rows = data.draw(st.sampled_from([0, 1, 7, CHUNK_ROWS, CHUNK_ROWS + 3]))
        pattern = [tuple(data.draw(FIELD_VALUES[k]) for k in kinds)
                   for _ in range(data.draw(st.integers(1, 5)))]
        rows = [pattern[i % len(pattern)] for i in range(n_rows)]
    stream = getattr(MetricsLog(), name)
    half = n_rows // 2
    for i, row in enumerate(rows[:half]):
        # Named tuples of the stream's fields and plain tuples alike.
        stream.append(named._make(row) if i % 2 else row)
    # Reads left open hold no view of the tail, so it can still grow.
    open_rows, open_column = iter(stream), stream.column(0)
    next(open_rows, None), next(open_column, None)
    for row in rows[half:]:
        stream.append(row)
    got = list(stream)
    assert len(stream) == len(got) == n_rows
    assert {type(row) for row in got} <= {tuple}
    # repr tells 1 from 1.0, -0.0 from 0.0, and shows nan equal to nan.
    assert repr(got) == repr(rows)
    for i in {0, n_rows - 1, CHUNK_ROWS - 1, CHUNK_ROWS} & set(range(n_rows)):
        assert repr(stream[i]) == repr(rows[i])
        assert repr(stream[i - n_rows]) == repr(rows[i])
    assert list(stream.column(0)) == [row[0] for row in rows]


# A sealed chunk keeps only its byte planes that are non-zero in some row.
# Row i of one chunk plus a tail: a field zero in every row (all its planes
# dropped), one non-zero in a single row, negative ints (0xFF planes),
# -0.0, nan and +-inf, and every disposition.
LONE = 300
SPECIAL_FLOATS = (-0.0, math.nan, math.inf, -math.inf, 0.0, 1e-300)
EDGE_ROWS = {
    "deliveries": lambda i: (i * 7919, 0, 5 if i == LONE else 0,
                             -(2**63 - 1) if i % 2 else -i, DISPOSITIONS[i % 3]),
    "flow_rows": lambda i: (-i, 0, SPECIAL_FLOATS[i % 6], 2.5 if i == LONE else 0.0,
                            -1, 0),
}


@pytest.mark.parametrize("name", sorted(EDGE_ROWS))
def test_sealed_chunk_restores_every_byte(name):
    n_rows = CHUNK_ROWS + 7
    rows = [EDGE_ROWS[name](i) for i in range(n_rows)]
    stream = getattr(MetricsLog(), name)
    for row in rows:
        stream.append(row)
    assert len(stream) == n_rows
    # repr tells 1 from 1.0, -0.0 from 0.0, and shows nan equal to nan.
    assert repr(list(stream)) == repr(rows)
    for i in range(len(rows[0])):
        assert repr(list(stream.column(i))) == repr([row[i] for row in rows])
    for i in (0, LONE, CHUNK_ROWS - 1, CHUNK_ROWS, n_rows - 1):
        assert repr(stream[i]) == repr(stream[i - n_rows]) == repr(rows[i])


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_refuses_an_int_past_64_bits(name):
    _, kinds = STREAMS[name]
    row = tuple({"q": 2**63, "d": 0.5, "c": DISPOSITIONS[0]}[k] for k in kinds)
    stream = getattr(MetricsLog(), name)
    with pytest.raises(ValueError, match=name):
        stream.append(row)
    assert len(stream) == 0
    stream.append(tuple(-(2**63 - 1) if k == "q" else v for k, v in zip(kinds, row)))
    assert len(stream) == 1


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_logs_differing_in_one_row_compare_unequal(name):
    def log_with(value):
        log = MetricsLog()
        for stream, (_, kinds) in STREAMS.items():
            row = tuple({"q": 1, "d": 0.5, "c": DISPOSITIONS[0]}[k] for k in kinds)
            if stream == name:
                row = (value,) + row[1:]
            getattr(log, stream).append(row)
        return log

    assert log_with(7) == log_with(7)
    assert log_with(7) != log_with(8)


@pytest.mark.parametrize("name", Totals._fields)
def test_logs_differing_in_one_total_compare_unequal(name):
    assert MetricsLog() == MetricsLog(*Totals()) == MetricsLog(**Totals()._asdict())
    other = MetricsLog(**{name: 7})
    assert getattr(other, name) == 7
    assert MetricsLog() != other
    with pytest.raises(TypeError):
        hash(other)


def test_rows_written_onto_the_tail_read_back_before_any_seal():
    # The engine's write: pack onto the tail and leave sealing to
    # MetricsLog.seal, which may come later.
    log = MetricsLog()
    n_rows = 2 * CHUNK_ROWS + 5
    drops = [(i, i % 3, 2 * i) for i in range(n_rows)]
    etas = [(i, i % 2, i / 2) for i in range(n_rows)]
    for drop, eta in zip(drops, etas):
        log.drops.tail += log.drops.struct.pack(*drop)
        log.etas.tail += log.etas.struct.pack(*eta)
    for stream, rows in ((log.drops, drops), (log.etas, etas)):
        assert stream[-1] == rows[-1] and stream[CHUNK_ROWS + 1] == rows[CHUNK_ROWS + 1]
        assert list(stream) == rows
    log.seal()
    assert list(log.drops) == drops and list(log.etas) == etas
