"""The committed benchmark records: every BENCH_*.json at the repository root
keeps the keys that make the speed history machine-readable, the paired
runs' medians and quartiles next to the parent commit, seeds, Python and
nproc they were taken with."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_found():
    assert {"BENCH_6.json", "BENCH_9.json"} <= {p.name for p in RECORDS}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_keeps_the_shared_keys(path):
    record = json.loads(path.read_text())
    for key in ("parent_commit", "python", "nproc", "run_seconds", "workloads"):
        assert key in record, key
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        assert workload["seeds"], name
        assert workload["metrics"], name
        for metric, sides in workload["metrics"].items():
            for side in ("parent", "change"):
                stats = sides[side]
                for key in ("median", "q1", "q3", "n"):
                    assert key in stats, (name, metric, side, key)
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, metric, side)
                assert stats["n"] > 0, (name, metric, side)
