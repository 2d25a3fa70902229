"""One benchmark child process: runs one workload pass through mptunnel's
public API and prints one JSON line with its measurements.

Usage: child.py MODE WORKLOAD SEED OUT_DIR [--fault corrupt|raise] [--spans PATH]

MODE is one of
  probe  import, parse and build every scenario of the workload, no run;
  plain  setup, then the timed part: simulate, export and summarize every
         scenario; the host-speed kernel runs before and after;
  trace  the plain pass with every layer entry point wrapped in a span;
  sweep  the per-packet cost sweep (simulate only).

Setup time starts at the first statement below, before mptunnel is imported,
so the import is part of it. Wall-clock values are only printed, never
written into the output tree that is digested.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mptunnel import engine, metrics, scenario  # noqa: E402

T_IMPORTED = time.perf_counter()

import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def load(item, seed: int):
    kind, value = item
    if kind == "canned":
        cfg = scenario.load_canned(value)
        cfg.seed = workloads.variant(seed)
        return cfg
    return scenario.parse_scenario(value)


def run_one(cfg, sim, out_dir: Path):
    """Simulate, export and summarize one scenario as `mptunnel run` does."""
    log = sim.run()
    interval = cfg.nominal_interval_us()
    for out in cfg.outputs:
        metrics.export_metric(log, out.metric, out.format, out_dir / out.path,
                              interval, pdv_stream=cfg.pdv_stream)
    summary = metrics.summarize(log, interval, cfg.pdv_stream)
    summary["scenario"] = cfg.name
    summary["seed"] = cfg.seed
    metrics.write_json(out_dir / "summary.json", summary)
    return log


def tree_digest(out_dir: Path) -> str:
    """sha256 over every output file, in sorted relative-path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def exported_rows(out_dir: Path) -> int:
    """Data rows in exported tables: CSV lines after the header, JSON array items."""
    rows = 0
    for path in out_dir.rglob("*"):
        if path.name == "summary.json" or not path.is_file():
            continue
        if path.suffix == ".csv":
            rows += max(0, path.read_bytes().count(b"\n") - 1)
        elif path.suffix == ".json":
            payload = json.loads(path.read_text())
            if isinstance(payload, list):
                rows += len(payload)
    return rows


class _Item:
    __slots__ = ("at", "key", "value")

    def __init__(self, at, key, value):
        self.at = at
        self.key = key
        self.value = value


def host_kernel_s() -> float:
    """Host time of a fixed pure-Python kernel shaped like the simulator's
    inner loop (heap of tuples, slotted objects, dict counters, smoothing),
    small enough in memory not to set the pass's peak RSS.

    It runs next to each pass's timed part, in the same process, so the
    harness can divide out slow drift in host speed; it never depends on
    mptunnel, so no change to the simulator moves it.
    """
    t0 = time.perf_counter()
    rng = random.Random(7)
    heap, counts, acc = [], {}, 0.0
    for i in range(100_000):
        item = _Item(i + rng.randrange(100), i & 255, i * 0.5)
        heapq.heappush(heap, (item.at, i, item))
        counts[item.key] = counts.get(item.key, 0) + 1
        if len(heap) > 64:
            _, _, item = heapq.heappop(heap)
            acc = 0.875 * acc + 0.125 * item.value
    return time.perf_counter() - t0


def workload_pass(workload: str, seed: int, out_dir: Path, mode: str,
                  fault, tracer) -> dict:
    kernel_s = host_kernel_s() if mode == "plain" else 0.0
    setup_s = T_IMPORTED - T_START
    timed_s = 0.0
    packets = 0
    rows_recorded = 0
    for run_id, item in enumerate(workloads.scenarios(workload, seed)):
        if tracer is not None:
            tracer.run_id = run_id
        t0 = time.perf_counter()
        cfg = load(item, seed)
        sim = engine.Simulation(cfg)
        setup_s += time.perf_counter() - t0
        if mode == "probe":
            continue
        if fault == "raise":
            raise RuntimeError("injected failure inside a benchmark run")
        run_dir = out_dir / cfg.name
        run_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        log = run_one(cfg, sim, run_dir)
        timed_s += time.perf_counter() - t0
        packets += log.ingress_count
        rows_recorded += sum(len(v) for v in vars(log).values() if isinstance(v, list))
        del log, sim
    result = {"setup_s": setup_s}
    if mode == "probe":
        return result
    if mode == "plain":
        result["kernel_s"] = (kernel_s + host_kernel_s()) / 2
    if fault == "corrupt":
        victim = sorted(p for p in out_dir.rglob("*") if p.is_file())[-1]
        with open(victim, "ab") as fh:
            fh.write(b"corrupted\n")
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    result.update({
        "timed_s": timed_s,
        "packets": packets,
        "digest": tree_digest(out_dir),
        "rows_recorded": rows_recorded,
        "rows_exported": exported_rows(out_dir),
        "bytes_written": sum(p.stat().st_size for p in files),
    })
    return result


def sweep(seed: int) -> dict:
    """Simulate-only host time per ingress packet at each sweep point, plus
    the point's packet count and mean in-flight window as context."""
    out = {}
    context = {}
    for label, data in workloads.sweep_points(seed):
        sim = engine.Simulation(scenario.parse_scenario(data))
        t0 = time.perf_counter()
        log = sim.run()
        elapsed = time.perf_counter() - t0
        out[f"sweep.us_per_pkt.{label}"] = elapsed * 1e6 / log.ingress_count
        in_flight = [s.in_flight for s in log.flow_samples]
        context[label] = {"packets": log.ingress_count,
                          "mean_in_flight": sum(in_flight) / len(in_flight)}
        del log, sim
    return {"metrics": out, "context": context}


def main(argv: list[str]) -> int:
    mode, workload, seed, out_dir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    opts = dict(zip(argv[4::2], argv[5::2]))
    fault = opts.get("--fault")
    out_dir.mkdir(parents=True, exist_ok=True)
    if mode == "sweep":
        result = sweep(seed)
    else:
        tracer = None
        if mode == "trace":
            tracer = spans.Tracer()
            spans.install(tracer)
        result = workload_pass(workload, seed, out_dir, mode, fault, tracer)
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer, result["packets"])
            result["span_count"] = len(tracer.name)
            if "--spans" in opts:
                tracer.write(opts["--spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
