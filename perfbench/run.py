"""mptunnel benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen-references [--workload NAME]

Runs are closed-loop and sequential: each workload pass runs to completion
in a fresh child process (perfbench/child.py) before the next one starts, and
only one child runs at a time. The harness itself never imports mptunnel.

--trace 0 measures the end-to-end metrics: a warm-up child, then full passes
until S seconds have gone by (medians = pkts_per_s and peak_rss_mb), each
followed by one set-up probe per second of its timed part (median =
setup_s). --trace 1 measures the per-layer metrics: a warm-up child, one
traced pass, one sweep child, then untraced passes until S seconds have gone
by, whose median timed part is the base of trace.overhead_ratio.

Every pass's output tree is digested and compared with the reference digest
stored for its workload and seed variant in perfbench/references.json; a
mismatch, a non-zero exit or a wrong packet count makes the run count as
failed. Metric names and units come from BENCHMARK.json. The last line of
standard output is the result object; a fuller record, with the environment,
is written under .bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCES = HERE / "references.json"
# child.host_kernel_s() on the reference host (Intel Xeon, 2 vCPU,
# CPython 3.11). pkts_per_s and setup_s are scaled to that host speed; see
# README.md.
REFERENCE_KERNEL_S = 0.18
CHILD_TIMEOUT_S = 170


class RunLog:
    """Attempted and failed child runs of one benchmark invocation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_child(runs: RunLog, mode: str, workload: str, seed: int,
              *extra: str, expect: dict = None):
    """Run one child to completion; its parsed result, or None if it
    produced none (raised, exited non-zero or timed out).

    With expect, the child's digest and packet count (and event count, when
    the child traced) must equal the reference; a result that differs is
    still returned, since its timings are valid, but the run counts as failed.
    """
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
           str(out_dir), *extra]
    # Bytecode is always cached, outside the source tree, so that set-up time
    # does not depend on the caller's environment; the warm-up child fills it.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    runs.attempted += 1
    label = f"{mode} {workload} seed {seed}"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        runs.failures.append(f"{label}: timed out after {CHILD_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no error output"]
        runs.failures.append(f"{label}: exit {proc.returncode}: {tail[0]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if expect is not None:
        checks = [("digest", result["digest"]), ("packets", result["packets"])]
        if "layers" in result:
            checks.append(("events", result["layers"]["simcore.events"]))
        for key, got in checks:
            if got != expect[key]:
                runs.failures.append(
                    f"{label}: {key} {got} differs from reference {expect[key]}")
                break
    return result


def median_quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def measure_end_to_end(workload: str, seed: int, seconds: float, expect: dict,
                       fault: str = None) -> tuple[RunLog, dict]:
    """Full passes until `seconds` have gone by, each followed by set-up probes.

    fault ("corrupt" or "raise") is passed to every full pass; it exists so
    the self-test can show that the correctness gate fails.
    """
    runs = RunLog()
    deadline = time.monotonic() + seconds
    run_child(runs, "probe", workload, seed)  # warm-up: caches, bytecode
    samples = {k: [] for k in ("pkts_per_s", "raw_pkts_per_s", "setup_s",
                               "raw_setup_s", "kernel_s", "peak_rss_mb",
                               "timed_s")}
    fault_args = ("--fault", fault) if fault else ()
    passes = 0
    slowness = None  # host time / reference host time, from the last pass
    while passes == 0 or time.monotonic() < deadline:
        passes += 1
        result = run_child(runs, "plain", workload, seed, *fault_args, expect=expect)
        if result is not None:
            slowness = result["kernel_s"] / REFERENCE_KERNEL_S
            raw = result["packets"] / result["timed_s"]
            samples["raw_pkts_per_s"].append(raw)
            samples["pkts_per_s"].append(raw * slowness)
            samples["kernel_s"].append(result["kernel_s"])
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
            samples["timed_s"].append(result["timed_s"])
        # Probes follow each pass rather than bunching at the start of the
        # run, one per second of timed work, and are scaled by the host speed
        # that pass just measured.
        for _ in range(math.ceil(result["timed_s"]) if result else 1):
            probe = run_child(runs, "probe", workload, seed)
            if probe is not None and slowness is not None:
                samples["raw_setup_s"].append(probe["setup_s"])
                samples["setup_s"].append(probe["setup_s"] / slowness)
    return runs, samples


def measure_per_layer(workload: str, seed: int, seconds: float, expect: dict,
                      spans_path: Path) -> tuple[RunLog, dict, dict]:
    runs = RunLog()
    deadline = time.monotonic() + seconds
    run_child(runs, "probe", workload, seed)  # warm-up: caches, bytecode
    metrics = {}
    context = {}
    traced = run_child(runs, "trace", workload, seed, "--spans", str(spans_path),
                       expect=expect)
    sweep = run_child(runs, "sweep", workload, seed)
    untraced = []
    passes = 0
    while passes == 0 or time.monotonic() < deadline:
        passes += 1
        result = run_child(runs, "plain", workload, seed, expect=expect)
        if result is not None:
            untraced.append(result["timed_s"])
    if traced is not None:
        metrics.update(traced["layers"])
        for key in ("rows_recorded", "rows_exported", "bytes_written"):
            metrics[f"metrics.{key}"] = traced[key]
        context["span_count"] = traced["span_count"]
        context["traced_timed_s"] = traced["timed_s"]
        if untraced:
            metrics["trace.overhead_ratio"] = (traced["timed_s"]
                                               / statistics.median(untraced))
    if sweep is not None:
        metrics.update(sweep["metrics"])
        context["sweep"] = sweep["context"]
    context["untraced_timed_s"] = untraced
    return runs, metrics, context


# -- environment record ----------------------------------------------------------

def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """sha256 over the simulator's source tree, for checkouts without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, workload: str, counts: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "variant": workloads.variant(seed),
        "counts": {workload: counts},
    }


# -- entry points ------------------------------------------------------------------

def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def benchmark(args) -> int:
    references = json.loads(REFERENCES.read_text())
    expect = references[args.workload][str(workloads.variant(args.seed))]
    specs = metric_specs(args.trace == 1)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        runs, values, context = measure_per_layer(
            args.workload, args.seed, args.seconds, expect,
            results_dir / f"{stem}.spans")
        summaries = {}
        counts = {"packets": expect["packets"],
                  "events": values.get("simcore.events", expect["events"])}
    else:
        runs, samples = measure_end_to_end(args.workload, args.seed,
                                           args.seconds, expect)
        summaries = {k: median_quartiles(v) for k, v in samples.items() if v}
        values = {k: s["median"] for k, s in summaries.items()}
        context = {"samples": samples}
        # Events are counted only by traced runs; untraced passes are checked
        # against the packet count and digest, so the reference count holds.
        counts = {"packets": expect["packets"], "events": expect["events"]}

    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        for failure in runs.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        print(f"no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1

    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, args.workload, counts),
        "attempted": runs.attempted,
        "failed": runs.failed,
        "error_rate": runs.error_rate(),
        "failures": runs.failures,
        "metrics": metrics,
        "spread": summaries,
        "context": context,
    }
    record_path = results_dir / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for failure in runs.failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{args.workload:<14} {name:<32} {m['value']:>16.6f} {m['unit']}")
    print(f"{args.workload:<14} {'error_rate':<32} {runs.error_rate():>16.6f} "
          f"failed/attempted ({runs.failed}/{runs.attempted})")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": runs.failed == 0, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0


def regenerate_references(only: str = None) -> int:
    """Recompute the reference digests and counts from traced passes, for
    every workload or only the one named."""
    references = json.loads(REFERENCES.read_text()) if only else {}
    for workload in [only] if only else workloads.WORKLOADS:
        references[workload] = {}
        for v in range(workloads.VARIANTS):
            runs = RunLog()
            result = run_child(runs, "trace", workload, v)
            if result is None:
                print(f"FAILED {runs.failures[0]}", file=sys.stderr)
                return 1
            references[workload][str(v)] = {
                "digest": result["digest"],
                "packets": result["packets"],
                "events": result["layers"]["simcore.events"],
            }
            print(f"{workload} variant {v}: {references[workload][str(v)]}")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-references", action="store_true",
                        help="recompute perfbench/references.json (all "
                        "workloads, or only --workload) and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mptunnel" / "engine.py").is_file():
        print("mptunnel sources not found under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.regen_references:
        return regenerate_references(args.workload)
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
