"""Export against reference models: write_csv's per-table %-templates and
compute_pdv's column passes over the times laid out by the run's packet
numbers, 0 .. ingress_count - 1, which give PdvResult.seqs (packed),
.values and .skipped, must give exactly what the per-value writer and the
per-sequence loop over a seq -> time dict they replaced gave, which are
kept here as the references. write_csv must refuse a table no template can
write, and compute_pdv a log recording a number outside that range."""

import json
import math
import tempfile
import tracemalloc
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mptunnel.engine import Simulation
from mptunnel.metrics import (METRICS, Arrival, Delivery, MetricsLog, compute_pdv,
                              export_metric, summarize, write_csv, write_json)
from mptunnel.scenario import parse_scenario


def reference_fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def reference_write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(reference_fmt(v) for v in row) + "\n")


def reference_write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


ReferencePdv = namedtuple("ReferencePdv", "seqs values skipped")


def reference_pdv(log, nominal_interval_us, stream="deliveries") -> ReferencePdv:
    rows = log.deliveries if stream == "deliveries" else log.arrivals
    times = {seq: t for t, seq, _ in (r[:3] for r in rows)}
    seqs, values = [], []
    skipped = 0
    for seq in sorted(times):
        if seq == 0:
            continue
        prev = times.get(seq - 1)
        if prev is None:
            skipped += 1
            continue
        seqs.append(seq)
        values.append((times[seq] - prev) - nominal_interval_us)
    return ReferencePdv(seqs, values, skipped)


# The metric whose rows arrival_order_scatter builds; every other metric's
# rows come from METRICS itself, pdv's from reference_pdv.
REFERENCE_TABLES = {
    "scatter": lambda log, pdv: (
        ["arrival_index", "overall_seq"],
        [(i, seq) for i, (_, seq, _) in enumerate(a[:3] for a in log.arrivals)]),
}


def reference_export(log, metric, fmt, path, nominal_interval_us) -> None:
    table = REFERENCE_TABLES.get(metric, METRICS[metric])(
        log, lambda: reference_pdv(log, nominal_interval_us))
    if isinstance(table, dict):
        reference_write_json(path, table)
        return
    header, rows = table
    if fmt == "csv":
        reference_write_csv(path, header, rows)
    else:
        reference_write_json(path, [dict(zip(header, [reference_fmt(v) for v in row]))
                                    for row in rows])


# -- write_csv ---------------------------------------------------------------

SPECIAL_FLOATS = [-0.0, math.nan, math.inf, -math.inf, 1e300, 1e-9]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
COLUMNS = {
    "int": st.integers(),
    "float": FLOATS,
    # Commas and "%s" in a value must reach the file as they are.
    "str": st.text(alphabet="ab,%s.'\" 0", max_size=5),
    "bool": st.booleans(),
    "none": st.none(),
}
NAMED_ROWS = [namedtuple(f"Row{n}", [f"c{i}" for i in range(n)]) for n in range(12)]
ROW_TYPES = {
    "tuple": tuple,
    "named": lambda values: NAMED_ROWS[len(values)](*values),
}


@st.composite
def tables(draw, min_columns=0, min_rows=0):
    """(header, rows) that one template can write: columns of one type each,
    rows of one width that are tuples, namedtuples or a mix of both."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)),
                          min_size=min_columns, max_size=5))
    container = draw(st.sampled_from(sorted(ROW_TYPES) + ["mixed"]))
    rows = []
    for _ in range(draw(st.integers(min_rows, 8))):
        kind = container
        if kind == "mixed":
            kind = draw(st.sampled_from(sorted(ROW_TYPES)))
        rows.append(ROW_TYPES[kind]([draw(COLUMNS[kind]) for kind in kinds]))
    return [f"c{i}" for i in range(len(kinds))], rows


def list_row(rows, i, j):
    return rows[:i] + [list(rows[i])] + rows[i + 1:]


def ragged_row(rows, i, j):
    return rows + [tuple(rows[i]) + (0,)]


def mixed_column(rows, i, j):
    # A float in a column with none, or an int in a column of floats.
    row = list(rows[i])
    row[j] = 1 if isinstance(row[j], float) else 1.5
    return rows + [tuple(row)]


@st.composite
def untemplatable_tables(draw):
    """A table that one template can write, broken in one place."""
    header, rows = draw(tables(min_columns=1, min_rows=1))
    fault = draw(st.sampled_from([list_row, ragged_row, mixed_column]))
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(header) - 1))
    return header, fault(rows, i, j)


def written_bytes(writer, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        writer(path, *args)
        return path.read_bytes()


@settings(max_examples=300)
@given(tables())
@example((["a"] * 6, [(True, None, "", -0.0, math.nan, math.inf)]))
@example((["a"], []))
@example(([], [(), ()]))
def test_write_csv_matches_per_value_writer(table):
    header, rows = table
    assert (written_bytes(write_csv, header, rows)
            == written_bytes(reference_write_csv, header, rows))


@settings(max_examples=300)
@given(untemplatable_tables())
@example((["a", "b"], [(1, 2.5), (3, 4)]))        # a column mixing float and int
@example((["a", "b"], [(1.0, ""), (2.0, 3.5)]))   # a column mixing float and str
@example((["a", "b"], [(1.0, "a"), [2.0, "b"]]))  # a list row
@example((["a", "b"], [(1, 2), (3,)]))            # ragged rows
def test_write_csv_refuses_a_table_no_template_fits(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        with pytest.raises(ValueError):
            write_csv(path, header, rows)
        assert not path.exists()


def test_write_csv_refuses_an_iterator(tmp_path):
    path = tmp_path / "out"
    with pytest.raises(TypeError):
        write_csv(path, ["a", "b"], (row for row in [(1, 2.5), (3, 4.5)]))
    assert not path.exists()


# -- compute_pdv -------------------------------------------------------------

@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 10**9)), max_size=40),
       st.one_of(st.integers(0, 20_000),
                 st.floats(min_value=0, max_value=1e6, allow_nan=False)),
       st.sampled_from(["deliveries", "arrivals"]))
# Seq 1 recorded again, not adjacently, with an earlier time; seq 0 twice.
@example([(0, 1_000), (1, 9_000), (2, 20_000), (1, 4_000), (0, 2_000),
          (3, 25_000)], 8_000, "deliveries")
def test_compute_pdv_matches_per_sequence_loop(records, nominal, stream):
    # Gaps, sequence numbers recorded twice (the last time wins) and seq 0
    # present or absent all come from the generated (seq, time) pairs; the
    # log counts as many ingress packets as its largest number needs.
    log = MetricsLog(max((seq for seq, _ in records), default=-1) + 1)
    for seq, t in records:
        log.deliveries.append(Delivery(t, seq, 0, 0, 0, "inorder"))
        log.arrivals.append(Arrival(t, seq, 0, 0))
    got = compute_pdv(log, nominal, stream)
    want = reference_pdv(log, nominal, stream)
    assert got.skipped == want.skipped
    assert repr(got.seqs.tolist()) == repr(want.seqs)
    assert repr(got.values) == repr(want.values)


@pytest.mark.parametrize("seqs", [[0, -1], [1, 2**61]], ids=["negative", "2**61"])
def test_compute_pdv_refuses_a_number_outside_the_run(seqs):
    # A log of 2 ingress packets numbers them 0 and 1. The check runs on the
    # min/max pass, before the times are laid out: 2**61 numbers laid out
    # would take 18 EiB.
    log = MetricsLog(2)
    for t, seq in enumerate(seqs):
        log.deliveries.append(Delivery(8_000 * t, seq, 0, 0, 0, "inorder"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            compute_pdv(log, 8_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_run_losing_nearly_every_packet_matches_the_reference():
    # About 3 in 100 numbers land.
    paths = [{"path_id": i, "one_way_latency_us": 10_000 + 30_000 * i,
              "bandwidth_bps": 2_000_000, "loss_rate": 0.97} for i in (0, 1)]
    cfg, log = short_run(duration_s=10, paths=paths, reorder={"kind": "none"})
    nominal = cfg.nominal_interval_us()
    got = compute_pdv(log, nominal)
    want = reference_pdv(log, nominal)
    assert want.skipped > 0
    assert got.skipped == want.skipped
    assert repr(got.seqs.tolist()) == repr(want.seqs)
    assert repr(got.values) == repr(want.values)


# -- every metric of a run, in both formats ----------------------------------

def short_run(**overrides):
    data = {
        "name": "export-test",
        "duration_s": 2,
        "seed": 5,
        "paths": [
            {"path_id": 0, "one_way_latency_us": 10_000,
             "bandwidth_bps": 2_000_000, "loss_rate": 0.05},
            {"path_id": 1, "one_way_latency_us": 40_000,
             "bandwidth_bps": 2_000_000, "loss_rate": 0.05},
        ],
        "traffic": {"kind": "cbr", "rate_bps": 1_000_000, "packet_size_bytes": 1000},
        "scheduler": {"kind": "round_robin"},
        "reorder": {"kind": "delay_equalize", "max_hold_us": 20_000},
    }
    data.update(overrides)
    cfg = parse_scenario(data)
    return cfg, Simulation(cfg).run()


RUNS = {
    "cbr": {},
    "otias-greedy": {"traffic": {"kind": "greedy", "packet_size_bytes": 1000},
                     "scheduler": {"kind": "otias"}, "reorder": {"kind": "none"}},
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_metric_exports_the_reference_bytes(run, tmp_path):
    cfg, log = short_run(**RUNS[run])
    nominal = cfg.nominal_interval_us()
    for metric in METRICS:
        for fmt in ("csv", "json"):
            got, want = tmp_path / f"{metric}.{fmt}", tmp_path / f"{metric}.ref.{fmt}"
            export_metric(log, metric, fmt, got, nominal)
            reference_export(log, metric, fmt, want, nominal)
            assert got.read_bytes() == want.read_bytes(), (metric, fmt)
    summary = summarize(log, nominal)
    assert (written_bytes(write_json, summary)
            == written_bytes(reference_write_json, summary))


def test_runs_fill_every_table():
    # Guards the test above against comparing empty tables: between them the
    # two runs record rows for every metric.
    filled = set()
    for run, overrides in RUNS.items():
        cfg, log = short_run(**overrides)
        pdv = lambda: compute_pdv(log, cfg.nominal_interval_us())
        for metric, build in METRICS.items():
            table = build(log, pdv)
            if table["counts"] if isinstance(table, dict) else table[1]:
                filled.add(metric)
    assert filled == set(METRICS)
