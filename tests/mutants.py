"""The mutant catalogue: faults each check of the suite is meant to catch.

Each mutant replaces one exact text, which occurs once in its file under
src/, with a faulty one. A killable mutant names the tests that fail under
it. An equivalent one says why no test can tell it from the program, and
names the tests that run the code it changes, which must still pass.

    python tests/mutants.py [NAME ...]

copies the tree to a temporary directory once per mutant, applies it, runs
its tests with a timeout and prints killed, survived or timeout for each.
It exits 1 if any mutant ends other than as its entry expects. Stdlib only;
tier-1 does not collect this file, but tests/test_mutants.py checks that
every entry still applies.

A change that adds a check adds the mutant that fails it here.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
IGNORED = shutil.ignore_patterns(".git", ".bench_build", ".hypothesis", ".pytest_cache",
                                 "__pycache__")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str  # occurs exactly once in path
    replacement: str
    tests: tuple[str, ...]  # pytest node ids
    equivalent: str | None = None  # why it survives; None if tests kill it


MUTANTS = (
    Mutant("ack-gets-not-pops", "src/mptunnel/flow.py",
           "sent = self._outstanding.pop(flow_seq, None)",
           "sent = self._outstanding.get(flow_seq, None)",
           ("tests/test_equivalence.py::test_loss_detection_matches_counting_oracle",)),
    Mutant("window-check-one-over", "src/mptunnel/engine.py",
           "if flow.in_flight - 1 >= flow.cwnd:",
           "if flow.in_flight - 1 > flow.cwnd:",
           ("tests/test_engine.py::"
            "test_window_violations_counted_one_packet_over_an_integer_window",)),
    Mutant("top-ack-on-equal", "src/mptunnel/flow.py",
           "if flow_seq > top[0]:",
           "if flow_seq >= top[0]:",
           ("tests/test_equivalence.py::test_loss_detection_matches_counting_oracle",
            "tests/test_flow.py"),
           equivalent="a flow_seq gets here once, on its first ack, and top holds "
                      "only other acked flow_seqs or -1, so it never equals top[0]"),
    Mutant("deadline-ignores-rehold", "src/mptunnel/reorder.py",
           "if seq < self.expected_next or self.held[seq][2] > now:",
           "if seq < self.expected_next:",
           ("tests/test_equivalence.py::"
            "test_heap_resequencer_matches_reference_with_per_arrival_thresholds",)),
    Mutant("serialization-ignores-busy-link", "src/mptunnel/simcore.py",
           "start = self.busy_until_us\n",
           "start = now\n",
           ("tests/test_validation.py::"
            "test_greedy_path_keeps_its_link_busy_once_the_window_exceeds_the_bdp",)),
    Mutant("timer-never-fires", "src/mptunnel/engine.py",
           "if timer is not self._timers[i]:",
           "if timer is not None:",
           ("tests/test_engine.py::test_lossy_runs_name_every_changed_flow",)),
    Mutant("first-pick-skips-path-0", "src/mptunnel/engine.py",
           "self._changed = range(len(self.flows))",
           "self._changed = range(1, len(self.flows))",
           ("tests/test_engine.py::"
            "test_first_decision_records_every_paths_eta_in_path_id_order",
            "tests/test_engine.py::test_canned_runs_name_every_changed_flow")),
    # The paper suite runs none of the code the next three change, so only
    # the coverage corpus's digests catch them.
    Mutant("static-threshold-uncapped", "src/mptunnel/reorder.py",
           "min(float(static_threshold_us), float(max_hold_us))",
           "float(static_threshold_us)",
           ("tests/test_corpus.py::test_corpus_outputs_equal_golden",)),
    Mutant("equalizer-discard-twice-the-hold", "src/mptunnel/reorder.py",
           "if now - pkt.ingress_time > target + self.max_hold_us:",
           "if now - pkt.ingress_time > target + 2 * self.max_hold_us:",
           ("tests/test_corpus.py::test_corpus_outputs_equal_golden",)),
    Mutant("headers-swap-sequence-fields", "src/mptunnel/metrics.py",
           "TunnelPacket(seq, 0, path_id=path_id, flow_seq=flow_seq,",
           "TunnelPacket(flow_seq, 0, path_id=path_id, flow_seq=seq,",
           ("tests/test_corpus.py::test_corpus_outputs_equal_golden",)),
)


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply mutant to a copy of the tree and run its tests there: killed,
    survived or timeout, with the seconds its tests took."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        target = tree / mutant.path
        source = target.read_text()
        if source.count(mutant.text) != 1:
            raise ValueError(f"{mutant.name}: text must occur once in {mutant.path}")
        target.write_text(source.replace(mutant.text, mutant.replacement))
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *mutant.tests], cwd=tree, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start
        took = time.perf_counter() - start
        if done.returncode not in (0, 1):  # 1: some test failed
            raise RuntimeError(f"{mutant.name}: pytest exited {done.returncode}\n"
                               + done.stdout.decode() + done.stderr.decode())
        return ("killed" if done.returncode else "survived"), took


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    unexpected = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        result, took = run(mutant)
        expected = "survived" if mutant.equivalent else "killed"
        unexpected += result != expected
        note = "" if result == expected else f"  (expected {expected})"
        print(f"{mutant.name:34} {result:8} {took:6.1f} s{note}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
