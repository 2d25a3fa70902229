"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Scenario-level criteria run the canned scenarios shipped with the package at
their stated parameters (criterion 5 also one variant derived from them) and
assert the stated tolerances.
"""

import bisect
import dataclasses
import hashlib
import itertools
import json
import statistics
from pathlib import Path

import pytest

from mptunnel.cli import main as cli_main
from mptunnel.engine import Simulation
from mptunnel.flow import Flow, TunnelPacket
from mptunnel.metrics import Delivery, compute_pdv, reordering_extent
from mptunnel.reorder import DISPOSITION_LATE
from mptunnel.scenario import load_canned

from test_reorder import drive_buffer, reference_reorder

# sha256 of every file of the default-seed paper-suite tree; any change to
# the simulator's outputs must regenerate it and say why.
GOLDEN = Path(__file__).parent / "golden" / "paper-suite.sha256"


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(name):
        if name not in cache:
            cfg = load_canned(name)
            cache[name] = (cfg, Simulation(cfg).run())
        return cache[name]

    return get


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def decision_runs(log):
    """Maximal constant-path runs of the scheduler decision sequence."""
    out = []
    for time_us, _, path_id, _ in log.decisions:
        if out and out[-1][0] == path_id:
            out[-1][1] += 1
            out[-1][3] = time_us
        else:
            out.append([path_id, 1, time_us, time_us])
    return out


def out_of_order_positions(seqs):
    high = -1
    positions = []
    for i, s in enumerate(seqs):
        if s < high:
            positions.append(i)
        else:
            high = s
    return positions


def test_criterion_1_srtt_handover(runs):
    cfg, log = runs("srtt-handover")
    event_us = 15_000_000

    pre = [p for t, _, p, _ in log.decisions if 5_000_000 <= t < event_us]
    share_pre = sum(1 for p in pre if p == 0) / len(pre)

    post = [p for t, _, p, _ in log.decisions if t >= event_us + 2_000_000]
    share_post = sum(1 for p in post if p == 1) / len(post)

    switch_us = next(t for t, _, p, _ in log.decisions
                     if t >= event_us and p == 1)

    # the idle path keeps its last estimate: every recorded srtt for path 1
    # between warmup and the event equals the value it froze at
    p1 = [(s.time_us, s.srtt_us) for s in log.flow_samples if s.path_id == 1]
    frozen = [v for t, v in p1 if t <= 2_000_000][-1]
    idle_values = {v for t, v in p1 if 2_000_000 < t <= event_us}
    stale = idle_values <= {frozen}
    # and the switch decision itself was made on that stale estimate
    first_switch_sample = next(v for t, v in p1 if t >= switch_us)

    ok = report(
        1,
        share_pre >= 0.99 and share_post >= 0.99
        and switch_us <= event_us + 2_000_000 and stale
        and first_switch_sample == frozen,
        f"pre-event path1 share {share_pre:.3f}, post path2 share "
        f"{share_post:.3f}, switch at {switch_us / 1e6:.2f}s, idle srtt stale: {stale}",
    )
    assert ok


def test_criterion_2_otias_oscillation(runs):
    cfg, log = runs("otias-moderate")
    run_list = decision_runs(log)

    queues = {p: [(s.time_us, s.queue_len) for s in log.flow_samples
                  if s.path_id == p] for p in (0, 1)}

    def q_at(pid, t):
        arr = queues[pid]
        i = bisect.bisect_right(arr, (t, 1 << 60)) - 1
        return arr[i][1] if i >= 0 else 0

    cycles = {}
    for pid in (0, 1):
        count, state = 0, "low"
        for _, q in queues[pid]:
            if state == "low" and q >= 4:
                state = "high"
            elif state == "high" and q <= 1:
                state = "low"
                count += 1
        cycles[pid] = count

    long_runs = [r for r in run_list if r[1] >= 30]
    grow_ok = all(q_at(r[0], r[3]) - q_at(r[0], r[2]) >= 0 for r in long_runs)
    drain_ok = all(q_at(1 - r[0], r[3]) - q_at(1 - r[0], r[2]) <= 0
                   for r in long_runs)

    ok = report(
        2,
        len(run_list) >= 10 and cycles[0] >= 5 and cycles[1] >= 5
        and long_runs and grow_ok and drain_ok,
        f"{len(run_list)} decision runs, build-drain cycles {cycles}, "
        f"{len(long_runs)} sustained runs all grow-while-selected/"
        f"drain-while-not: {grow_ok and drain_ok}",
    )
    assert ok


def test_criterion_3_otias_vs_rr_scrambling(runs):
    _, otias_log = runs("otias-saturated")
    _, rr_log = runs("rr-saturated")
    otias = reordering_extent(otias_log)
    rr = reordering_extent(rr_log)
    otias_ooo = otias["out_of_order_count"]
    rr_ooo = rr["out_of_order_count"]
    ok = report(
        3,
        otias_ooo < 0.5 * rr_ooo,
        f"out_of_order otias={otias_ooo} "
        f"({otias_ooo / len(otias_log.arrivals):.1%} of arrivals, max "
        f"displacement {otias['max_displacement']}) rr={rr_ooo} "
        f"({rr_ooo / len(rr_log.arrivals):.1%} of arrivals, max displacement "
        f"{rr['max_displacement']}) ratio={otias_ooo / rr_ooo:.3f} "
        f"(required < 0.5)",
    )
    assert ok


def test_criterion_4_adaptive_reordering_delay_jump(runs):
    cfg, log = runs("adaptive-jump")
    step_us = 20_000_000
    seqs = [seq for _, seq, *_ in log.deliveries]
    ooo = out_of_order_positions(seqs)
    first_post = next(i for i, (t, *_) in enumerate(log.deliveries)
                      if t >= step_us)
    before = [p for p in ooo if p < first_post]
    inside = [p for p in ooo if first_post <= p <= first_post + 100]
    after = [p for p in ooo if p > first_post + 100]
    complete = sorted(seqs) == list(range(log.ingress_count))
    ok = report(
        4,
        not before and not after and complete,
        f"out-of-order deliveries: {len(before)} before step, {len(inside)} in "
        f"the 100-delivery adaptation window, {len(after)} after; "
        f"all {log.ingress_count} packets delivered",
    )
    assert ok


def pdv_stats(cfg, log):
    values = [v for _, v in compute_pdv(log, cfg.nominal_interval_us()).samples]
    outside5 = sum(1 for v in values if abs(v) > 5000) / len(values)
    within2 = sum(1 for v in values if abs(v) <= 2000) / len(values)
    pos = any(v > 5000 for v in values)
    neg = any(v < -5000 for v in values)
    return outside5, within2, pos, neg


def unflagged_reversals(log):
    """Deliveries that come after a higher sequence number, not counting
    packets the resequencer flagged late.

    Wider than delay-variation samples below -nominal interval: packets
    released in one burst share a timestamp, so among them only the delivery
    order (the log is time-ordered) shows a reversal.
    """
    return len(out_of_order_positions(
        [seq for _, seq, _, _, _, disposition in log.deliveries
         if disposition != DISPOSITION_LATE]))


def test_criterion_5_pdv_concentration(runs):
    default_cfg, default_log = runs("pdv-default")
    out5, _, pos, neg = pdv_stats(default_cfg, default_log)
    _, within_otias, _, _ = pdv_stats(*runs("pdv-otias"))
    _, within_srtt, _, _ = pdv_stats(*runs("pdv-srtt"))

    # Reordering that removes delay variation is the equalizer: pdv-adaptive
    # with only the receiver kind swapped.
    base = load_canned("pdv-adaptive")
    eq_cfg = dataclasses.replace(
        base, reorder=dataclasses.replace(base.reorder, kind="delay_equalize"))
    eq_log = Simulation(eq_cfg).run()
    _, within_eq, _, _ = pdv_stats(eq_cfg, eq_log)

    # A resequencer restores order, it does not pace: it still hands over
    # each slow-path packet on arrival and the packets held behind it in a
    # burst. What it promises for delay variation is that no packet goes
    # out before a lower one unless the buffer flagged it late.
    adaptive_cfg, adaptive_log = runs("pdv-adaptive")
    _, within_adaptive, _, _ = pdv_stats(adaptive_cfg, adaptive_log)
    adaptive_reversals = unflagged_reversals(adaptive_log)
    default_reversals = unflagged_reversals(default_log)

    default_ok = out5 >= 0.10 and pos and neg
    equalizer_ok = within_eq >= 0.95
    adaptive_ok = adaptive_reversals == 0
    otias_ok = within_otias >= 0.95
    srtt_ok = within_srtt >= 0.95

    ok = report(
        5,
        default_ok and equalizer_ok and adaptive_ok and otias_ok and srtt_ok,
        f"default outside±5ms {out5:.1%} (signs +{pos}/-{neg}); within±2ms "
        f"(each required >= 95%): delay_equalize {within_eq:.1%} "
        f"({len(eq_log.discards)} discards), otias {within_otias:.1%}, "
        f"srtt {within_srtt:.1%}; adaptive resequencing: "
        f"{adaptive_reversals} out-of-order deliveries besides "
        f"{adaptive_log.late_count} flagged late (required 0; pdv-default has "
        f"{default_reversals}), within±2ms {within_adaptive:.1%} "
        f"(not required)",
    )
    assert ok


def test_criterion_6_delay_equalization(runs):
    cfg, log = runs("delay-equalize")
    warm = [Delivery._make(d) for d in log.deliveries if d[0] >= 5_000_000]
    times = sorted(d.time_us for d in warm)
    gaps = [b - a for a, b in zip(times, times[1:])]
    interval = cfg.nominal_interval_us()
    spread = statistics.pstdev(gaps)
    added = statistics.mean(d.residency_us for d in warm if d.path_id == 0)
    skew = 40_000  # one-way latency gap of the configured paths
    ok = report(
        6,
        spread < 0.01 * interval and 0.9 * skew <= added <= 1.1 * skew
        and not log.discards,
        f"egress inter-departure stdev {spread:.1f}us (< {0.01 * interval:.0f}), "
        f"fast-path added delay {added / 1000:.2f}ms (target 40 +/- 10%), "
        f"{len(log.discards)} discards",
    )
    assert ok


def test_criterion_7_reorder_oracle_equivalence():
    mismatches = 0
    cases = 0
    for n in range(2, 7):
        for lost in [None] + list(range(n)):
            present = [s for s in range(n) if s != lost]
            for perm in itertools.permutations(present):
                arrivals = [(10 + 7 * i, s) for i, s in enumerate(perm)]
                for threshold in (3, 15, 1000):
                    cases += 1
                    if (drive_buffer(arrivals, threshold)
                            != reference_reorder(arrivals, threshold)):
                        mismatches += 1
    ok = report(7, mismatches == 0,
                f"{cases} enumerated arrival orders (<=6 packets, <=1 loss), "
                f"{mismatches} mismatches against the brute-force reference")
    assert ok


def test_criterion_8_congestion_control_properties(runs):
    # halvings land exactly on a scripted loss trace
    flow = Flow(0, 20_000, lambda pkt, now: None)
    events = ["ack"] * 7 + ["loss"] + ["ack"] * 9 + ["loss"] + ["ack"] * 14
    expected, cwnd, ssthresh, credit = [], 2.0, 64.0, 0.0
    for ev in events:
        if ev == "ack":
            if cwnd < ssthresh:
                cwnd += 1.0
            else:
                credit += 1.0
                if credit >= cwnd:
                    credit -= cwnd
                    cwnd += 1.0
        else:
            ssthresh = max(cwnd / 2.0, 2.0)
            cwnd, credit = ssthresh, 0.0
        expected.append(cwnd)
    got = []
    seq, now = 0, 0
    for ev in events:
        now += 1000
        flow.enqueue(TunnelPacket(seq, 1000, now), now)
        if ev == "ack":
            flow.ack_received(seq, now + 1)
        else:
            flow.declare_lost(seq)
        seq += 1
        got.append(flow.cwnd)
    trace_ok = got == expected

    # SRTT converges within 1% of the true RTT in 50 samples (engine level)
    cfg, log = runs("srtt-handover")
    true_rtt = 2 * 10_000 + 800     # path 1 before its latency step
    p0 = [s.srtt_us for s in log.flow_samples if s.path_id == 0]
    srtt_ok = abs(p0[min(50, len(p0) - 1)] - true_rtt) < 0.01 * true_rtt

    # window discipline over every canned scenario run so far
    violations = sum(runs(name)[1].window_violations for name in (
        "srtt-handover", "otias-moderate", "otias-saturated", "rr-saturated",
        "adaptive-jump", "delay-equalize"))

    ok = report(
        8,
        trace_ok and srtt_ok and violations == 0,
        f"scripted AIMD trace exact: {trace_ok}; srtt after 50 samples within "
        f"1% of {true_rtt}us: {srtt_ok}; window violations across runs: {violations}",
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    trees = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli_main(["paper-suite", "--out", str(out)]) == 0
        tree = {}
        for f in sorted(out.rglob("*")):
            if f.is_file():
                tree[f.relative_to(out).as_posix()] = f.read_bytes()
        trees.append(tree)
    identical = trees[0] == trees[1]
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in trees[0].items()}
    golden = {}
    for line in GOLDEN.read_text().splitlines():
        digest, name = line.split()
        golden[name] = digest
    changed = sorted(n for n in golden.keys() | digests.keys()
                     if golden.get(n) != digests.get(n))
    ok = report(
        9, identical and not changed,
        f"paper-suite run twice: {len(trees[0])} files, "
        f"byte-identical: {identical}, differing from {GOLDEN.name}: {changed}",
    )
    assert ok
