"""Export against reference models. write_csv writes a Table with one
%-template made of the specs it states, compute_pdv passes over the times
laid out by the run's packet numbers, 0 .. ingress_count - 1, and the
streamed exports read the log as they write; each must give exactly what
the per-value writer, the per-sequence loop over a seq -> time dict and
the list-built tables they replaced gave, which are kept here as the
references. Every tabular metric states one spec per header column, an
unknown format is refused before anything is built, compute_pdv refuses a
log recording a number outside that range, and every field of every record
stream reaches some export or the summary."""

import json
import math
import random
import tempfile
import tracemalloc
from collections import namedtuple
from itertools import compress, count
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import write_rows
from mptunnel.engine import Simulation
from mptunnel.flow import TunnelPacket, encode_header
from mptunnel.metrics import (DISPOSITIONS, METRICS, STREAMS, THROUGHPUT_BIN_US, MetricsLog,
                              Stream, Table, Totals, compute_pdv, export_metric, summarize,
                              write_csv, write_json)
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
        values.append((times[seq] - prev) - float(nominal_interval_us))
    return ReferencePdv(seqs, values, skipped)


def reference_throughput(log, bin_us):
    # One dict pass over every delivery, then every (bin, path) pair in order.
    if not log.deliveries:
        return []
    last_bin = max(t for t, *_ in log.deliveries) // bin_us
    paths = sorted({path_id for _, _, path_id, *_ in log.deliveries})
    bits = {}
    for time_us, _, path_id, _, _ in log.deliveries:
        key = (time_us // bin_us, path_id)
        bits[key] = bits.get(key, 0) + log.packet_size_bytes * 8
    return [(b * bin_us, p, bits.get((b, p), 0) * 1_000_000 / bin_us)
            for b in range(last_bin + 1) for p in paths]


# Each metric's rows built in full as a list, the way the export once built
# them; pdv's come from reference_pdv. The stream-backed metrics (arrivals,
# decisions, discards, drops, flows) and pdv_histogram come from METRICS.
REFERENCE_TABLES = {
    "deliveries": lambda log, pdv: (
        ["delivery_time_us", "overall_seq", "path_id", "buffer_residency_us",
         "disposition"],
        sorted([(t, seq, path_id, residency_us, disposition)
                for t, seq, path_id, residency_us, disposition in log.deliveries]
               + [(t, seq, path_id, 0, "discarded") for t, path_id, seq in log.discards])),
    "headers": lambda log, pdv: (
        ["time_us", "header_hex"],
        [(t, encode_header(TunnelPacket(seq, 0, path_id=path_id, flow_seq=flow_seq,
                                        sender_rtt_report=rtt_report_us)).hex())
         for t, path_id, seq, flow_seq, rtt_report_us in log.sends]),
    "pdv": lambda log, pdv: (["overall_seq", "pdv_us"], list(zip(*pdv()[:2]))),
    "scatter": lambda log, pdv: (
        ["arrival_index", "overall_seq"],
        [(i, seq) for i, (_, seq, _) in enumerate(a[:3] for a in log.arrivals)]),
    "srtt": lambda log, pdv: (
        ["time_us", "path_id", "srtt_us"], [row[:3] for row in log.flow_rows]),
    "throughput": lambda log, pdv: (
        ["bin_start_us", "path_id", "throughput_bps"],
        reference_throughput(log, THROUGHPUT_BIN_US)),
}


def reference_export(log, metric, fmt, path, nominal_interval_us) -> None:
    table = REFERENCE_TABLES.get(metric, METRICS[metric])(
        log, lambda: reference_pdv(log, nominal_interval_us))
    if isinstance(table, dict):
        reference_write_json(path, table)
        return
    header, rows = table if metric in REFERENCE_TABLES else (table.header, list(table))
    if fmt == "csv":
        reference_write_csv(path, header, rows)
    else:
        reference_write_json(path, [dict(zip(header, [reference_fmt(v) for v in row]))
                                    for row in rows])


# -- write_csv ---------------------------------------------------------------

SPECIAL_FLOATS = [-0.0, math.nan, math.inf, -math.inf, 1e300, 1e-9]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
# Each kind of column: its values and the %-format a table states for it.
COLUMNS = {
    "int": (st.integers(), "%s"),
    "float": (FLOATS, "%.3f"),
    # Commas and "%s" in a value must reach the file as they are.
    "str": (st.text(alphabet="ab,%s.'\" 0", max_size=5), "%s"),
    "bool": (st.booleans(), "%s"),
    "none": (st.none(), "%s"),
}
NAMED_ROWS = [namedtuple(f"Row{n}", [f"c{i}" for i in range(n)]) for n in range(12)]
ROW_TYPES = {
    "tuple": tuple,
    "named": lambda values: NAMED_ROWS[len(values)](*values),
}


@st.composite
def tables(draw):
    """(header, specs, rows): columns of one kind each, the specs their kinds
    state, and rows of one width that are tuples, namedtuples or a mix of
    both."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), max_size=5))
    container = draw(st.sampled_from(sorted(ROW_TYPES) + ["mixed"]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = container
        if kind == "mixed":
            kind = draw(st.sampled_from(sorted(ROW_TYPES)))
        rows.append(ROW_TYPES[kind]([draw(COLUMNS[kind][0]) for kind in kinds]))
    return (tuple(f"c{i}" for i in range(len(kinds))),
            tuple(COLUMNS[kind][1] for kind in kinds), rows)


def written_bytes(writer, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        writer(path, *args)
        return path.read_bytes()


@settings(max_examples=300)
@given(tables())
@example((("a",) * 6, ("%s",) * 3 + ("%.3f",) * 3,
          [(True, None, "", -0.0, math.nan, math.inf)]))
@example((("a",), ("%s",), []))
@example(((), (), [(), ()]))
def test_write_csv_matches_per_value_writer(table):
    header, specs, rows = table
    assert (written_bytes(write_csv, Table(header, specs, rows.__iter__))
            == written_bytes(reference_write_csv, header, rows))


# -- deliveries --------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_deliveries_export_sorts_runs_of_equal_times(seed, tmp_path):
    # Runs of one time up to 300 rows long, their numbers shuffled, straddle
    # the blocks the export sorts; discards at the same times merge in.
    rng = random.Random(seed)
    seqs = list(range(3_000))
    rng.shuffle(seqs)
    log, t = MetricsLog(len(seqs)), 0
    while seqs:
        t += rng.randrange(1, 50)
        for _ in range(rng.choice([1, 2, 7, 300])):
            if seqs and rng.random() < 0.2:
                write_rows(log.discards, [(t, rng.randrange(2), seqs.pop())])
            elif seqs:
                write_rows(log.deliveries, [(t, seqs.pop(), rng.randrange(2),
                                             rng.randrange(3), rng.choice(DISPOSITIONS))])
    for fmt in ("csv", "json"):
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        export_metric(log, "deliveries", fmt, got, 0.0)
        reference_export(log, "deliveries", fmt, want, 0.0)
        assert got.read_bytes() == want.read_bytes(), fmt


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
    write_rows(log.deliveries, [(t, seq, 0, 0, "inorder") for seq, t in records])
    write_rows(log.arrivals, [(t, seq, 0, 0) for seq, t in records])
    got = compute_pdv(log, nominal, stream)
    want = reference_pdv(log, nominal, stream)
    assert got.skipped == want.skipped
    assert repr(list(compress(count(1), got.sampled))) == repr(want.seqs)
    assert repr(list(got.values)) == repr(want.values)


@pytest.mark.parametrize("seqs", [[0, -1], [1, 2**61]], ids=["negative", "2**61"])
def test_compute_pdv_refuses_a_number_outside_the_run(seqs):
    # A log of 2 ingress packets numbers them 0 and 1. The check runs on the
    # min/max pass, before the times are laid out: 2**61 numbers laid out
    # would take 18 EiB.
    log = MetricsLog(2)
    write_rows(log.deliveries, [(8_000 * t, seq, 0, 0, "inorder") for t, seq in enumerate(seqs)])
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
    assert repr(list(compress(count(1), got.sampled))) == repr(want.seqs)
    assert repr(list(got.values)) == repr(want.values)


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


@pytest.fixture(scope="module")
def run_logs():
    """Each of RUNS as (cfg, log), run once per module."""
    return {run: short_run(**overrides) for run, overrides in RUNS.items()}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_metric_exports_the_reference_bytes(run_logs, run, tmp_path):
    cfg, log = run_logs[run]
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


def tables_of(cfg, log):
    """Each metric's Table, or dict for a JSON document, by metric."""
    pdv = lambda: compute_pdv(log, cfg.nominal_interval_us())
    return {metric: build(log, pdv) for metric, build in METRICS.items()}


def test_runs_fill_every_table(run_logs):
    # Guards the test above against comparing empty tables: between them the
    # two runs record rows for every metric. A Table has no len(), so ask
    # for its first row.
    filled = set()
    for cfg, log in run_logs.values():
        for metric, table in tables_of(cfg, log).items():
            if isinstance(table, dict):
                if table["counts"]:
                    filled.add(metric)
            elif next(iter(table), None) is not None:
                filled.add(metric)
    assert filled == set(METRICS)


def test_every_table_states_one_spec_per_column(run_logs):
    # write_csv formats each row with one template, so every row is a tuple
    # as wide as the header, with a spec for each of its columns.
    for run, (cfg, log) in run_logs.items():
        for metric, table in tables_of(cfg, log).items():
            if isinstance(table, dict):
                continue
            width = len(table.header)
            assert len(table.specs) == width, (run, metric)
            shapes = {(type(row), len(row)) for row in table}
            assert shapes <= {(tuple, width)}, (run, metric)


def test_unknown_format_is_refused_before_anything_is_built(tmp_path):
    log = MetricsLog(2)
    write_rows(log.deliveries, [(0, 0, 0, 0, "inorder"), (8_000, 1, 0, 0, "inorder")])
    for metric in METRICS:
        path = tmp_path / f"{metric}.xml"
        with pytest.raises(ValueError, match="format"):
            export_metric(log, metric, "xml", path, 8_000.0)
        assert not path.exists(), metric
    # Not even the delay variation was computed.
    assert log._pdv is None


# -- every recorded field reaches an output ----------------------------------

# One-second short_runs that record rows of every stream between them.
FIELD_RUNS = (
    # otias moves ETAs; the adaptive resequencer gives up gaps.
    {"duration_s": 1, "scheduler": {"kind": "otias"},
     "reorder": {"kind": "adaptive", "max_hold_us": 20_000}},
    # Round robin over the 30 ms skew: gaps given up and packets late.
    {"duration_s": 1, "reorder": {"kind": "adaptive", "max_hold_us": 20_000}},
    # Round robin into the equalizer, which discards what arrives past its hold.
    {"duration_s": 1},
)


def bumped(value, kind: str):
    """An int plus 1, a float plus 0.5, a disposition swapped for the next."""
    if kind == "c":
        return DISPOSITIONS[(DISPOSITIONS.index(value) + 1) % len(DISPOSITIONS)]
    return value + (0.5 if kind == "d" else 1)


def with_field_bumped(log, name: str, i: int):
    """A copy of log with field i of stream name bumped in every row, that
    stream rebuilt through write_rows and every other one shared."""
    copy = MetricsLog(**{total: getattr(log, total) for total in Totals._fields})
    for other in STREAMS:
        setattr(copy, other, getattr(log, other))
    stream, kind = Stream(name), STREAMS[name][1][i]
    write_rows(stream, [row[:i] + (bumped(row[i], kind),) + row[i + 1:]
                        for row in getattr(log, name)])
    setattr(copy, name, stream)
    return copy


# What an output that cannot be made of a log raises, before it writes a
# byte: the decisions export refuses etas rows that miss the first decision
# or a path as every export refuses a log it cannot be made of.
REFUSALS = ValueError


def outputs(cfg, log, tmp_path) -> dict:
    """Every METRICS export's CSV bytes and summarize's dict, each the
    exception's type where it cannot be made of the log."""
    nominal, got = cfg.nominal_interval_us(), {}
    for metric in METRICS:
        path = tmp_path / metric
        try:
            export_metric(log, metric, "csv", path, nominal, pdv_stream=cfg.pdv_stream)
            got[metric] = path.read_bytes()
        except REFUSALS as exc:
            got[metric] = type(exc)
    try:
        got["summary.json"] = summarize(log, nominal, cfg.pdv_stream)
    except REFUSALS as exc:
        got["summary.json"] = type(exc)
    return got


def test_every_recorded_field_reaches_an_output(tmp_path):
    # A field that no export or summary reads is a fact the log need not
    # keep: changing it in every row of every run must change some output.
    runs = [short_run(**overrides) for overrides in FIELD_RUNS]
    for name in STREAMS:
        assert any(getattr(log, name) for _, log in runs), name
    disposition = STREAMS["deliveries"][0].index("disposition")
    assert {"timeout", "late"} <= {row[disposition] for _, log in runs
                                   for row in log.deliveries}
    before = [outputs(cfg, log, tmp_path) for cfg, log in runs]
    unread = [f"{name}.{field}" for name, (fields, _) in STREAMS.items()
              for i, field in enumerate(fields)
              if all(outputs(cfg, with_field_bumped(log, name, i), tmp_path) == out
                     for (cfg, log), out in zip(runs, before))]
    assert unread == []


# -- the README's export schemas ---------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_columns() -> dict[str, list[str]]:
    """The README "Export schemas" table: each metric's first code span in
    its columns cell, split at commas (a JSON document's keys for one in
    braces)."""
    section = README.read_text().split("\n## Export schemas", 1)[1].split("\n## ", 1)[0]
    columns = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            listed = cells[1].split("`")[1].strip("{}")
            columns[cells[0].strip("`")] = [name.strip() for name in listed.split(",")]
    return columns


@pytest.mark.parametrize("run", sorted(RUNS))
def test_readme_lists_the_header_of_every_metric(run_logs, run):
    # A list ending in "..." continues its last name's number for as many
    # columns as the table has: the decisions ETAs, under otias alone.
    cfg, log = run_logs[run]
    readme = readme_columns()
    assert sorted(readme) == sorted(METRICS)
    for metric, table in tables_of(cfg, log).items():
        listed = readme[metric]
        if isinstance(table, dict):
            assert sorted(listed) == sorted(table), metric
            continue
        header = list(table.header)
        if listed[-1] == "...":
            fixed, numbered = listed[:-2], listed[-2]
            extra = len(header) - len(fixed)
            assert (extra > 0) == (metric == "decisions" and cfg.scheduler.kind == "otias")
            listed = fixed + [numbered.replace("_0_", f"_{i}_") for i in range(extra)]
        assert header == listed, metric
