"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs one short cbr-deep-hold measurement three times: clean, with a
corrupted output file, and with a run that raises inside the simulation. The
clean run must record no failure; each faulty run must be counted as failed
and raise error_rate above zero. Exits 0 when all three behave, else 1.
"""

import json
import sys

import run

WORKLOAD = "cbr-deep-hold"
SEED = 0


def main() -> int:
    expect = json.loads(run.REFERENCES.read_text())[WORKLOAD][str(SEED)]
    ok = True
    for fault in (None, "corrupt", "raise"):
        runs, _ = run.measure_end_to_end(WORKLOAD, SEED, 0, expect, fault=fault)
        if fault is None:
            good = runs.failed == 0
        else:
            good = any(f.startswith("plain ") for f in runs.failures)
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} fault={fault or 'none':<8} "
              f"error_rate={runs.error_rate():.3f} ({runs.failed}/{runs.attempted})")
        for failure in runs.failures:
            print(f"       {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
