import json
import random

import pytest

from mptunnel.metrics import (Arrival, Delivery, MetricsLog, Send,
                              arrival_order_scatter, compute_pdv, pdv_histogram,
                              percentile, reordering_extent, summarize,
                              throughput_series)


def log_with_deliveries(rows):
    log = MetricsLog()
    for t, seq in rows:
        log.deliveries.append(Delivery(t, seq, 0, 0, 0, "inorder"))
    return log


def test_pdv_perfect_cbr_stream_is_zero():
    log = log_with_deliveries([(10_000 + 8_000 * k, k) for k in range(50)])
    result = compute_pdv(log, 8_000)
    assert result.skipped == 0
    assert all(pdv_us == 0 for _, pdv_us in result.samples)
    assert len(result.samples) == 49


def test_pdv_sign_convention():
    # packet n lands 2 ms before its predecessor: negative variation
    log = log_with_deliveries([(100_000, 7), (98_000, 8)])
    result = compute_pdv(log, 8_000)
    assert result.samples == [(8, -10_000)]


def test_pdv_missing_predecessor_skipped_and_counted():
    log = log_with_deliveries([(0, 0), (8_000, 1), (30_000, 3), (38_000, 4)])
    result = compute_pdv(log, 8_000)
    assert result.skipped == 1           # seq 3 has no delivered seq 2
    assert [seq for seq, _ in result.samples] == [1, 4]


def test_pdv_is_permutation_insensitive():
    rows = [(10_000 + 8_000 * k + (k % 3) * 100, k) for k in range(30)]
    shuffled = rows[:]
    random.Random(4).shuffle(shuffled)
    a = compute_pdv(log_with_deliveries(rows), 8_000)
    b = compute_pdv(log_with_deliveries(shuffled), 8_000)
    assert a == b


def test_scatter_identity_for_in_order_run():
    log = MetricsLog()
    for k in range(20):
        log.arrivals.append(Arrival(1000 * k, k, 0, 0))
    scatter = arrival_order_scatter(log)
    assert scatter == [(k, k) for k in range(20)]


def test_scatter_exposes_reordering():
    log = MetricsLog()
    for i, seq in enumerate([0, 2, 1, 3]):
        log.arrivals.append(Arrival(1000 * i, seq, 0, 0))
    assert [s for _, s in arrival_order_scatter(log)] == [0, 2, 1, 3]


def test_reordering_extent_in_order_is_all_zero():
    log = MetricsLog()
    for k in range(10):
        log.arrivals.append(Arrival(1000 * k, k, 0, 0))
    ext = reordering_extent(log)
    assert ext == {"out_of_order_count": 0, "max_displacement": 0, "gap_count": 0}


def test_reordering_extent_single_swap():
    log = MetricsLog()
    for i, seq in enumerate([0, 2, 1, 3]):
        log.arrivals.append(Arrival(1000 * i, seq, 0, 0))
    ext = reordering_extent(log)
    assert ext["out_of_order_count"] == 1
    assert ext["max_displacement"] == 1


def test_throughput_series_values_and_conservation():
    log = MetricsLog()
    # 1000-byte packets every 8 ms on path 0 for one second: 1 Mbps
    for k in range(125):
        log.sends.append(Send(8_000 * k, 0, k, k, 1000, 20_000))
        log.deliveries.append(Delivery(8_000 * k + 11_200, k, 0, 8_000 * k, 0, "inorder"))
    rows = throughput_series(log, bin_us=100_000)
    total_bits = sum(bps * 0.1 for _, _, bps in rows)
    assert total_bits == pytest.approx(125 * 8000)
    full_bins = [bps for start, _, bps in rows if 100_000 <= start < 900_000]
    for bps in full_bins:
        assert bps == pytest.approx(1_000_000, rel=0.05)


def test_throughput_empty_log_is_empty():
    assert throughput_series(MetricsLog(), bin_us=100_000) == []


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
    samples = compute_pdv(log, 8_000).samples
    hist = pdv_histogram(samples, bin_width_us=1000.0)
    assert sum(hist["counts"]) == len(samples)
    assert len(hist["bin_edges_us"]) == len(hist["counts"]) + 1


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
    from mptunnel.flow import decode_header
    from mptunnel.metrics import export_metric

    log = MetricsLog()
    for k in range(5):
        log.sends.append(Send(1000 * k, k % 2, k, k // 2, 1000, 20_800 + k))
    out = tmp_path / "headers.csv"
    export_metric(log, "headers", "csv", out, 0.0)
    lines = out.read_text().splitlines()
    assert lines[0] == "time_us,header_hex"
    for line, row in zip(lines[1:], log.sends):
        send = Send._make(row)
        fields = decode_header(bytes.fromhex(line.split(",")[1]))
        assert fields.version == 1
        assert fields.path_id == send.path_id
        assert fields.overall_seq == send.overall_seq
        assert fields.sender_rtt_report == send.rtt_report_us
        assert fields.flow_seq_low32 == send.flow_seq
