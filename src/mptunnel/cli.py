"""Command-line front end: run scenarios, list plugins, run the canned suite.

Exit codes: 0 success, 1 scenario validation error, 2 runtime error.
"""

import argparse
import json
import sys
from pathlib import Path

from . import metrics
from .engine import Simulation
from .reorder import RECEIVERS
from .scenario import (ScenarioConfig, ScenarioError, canned_scenario_names,
                       load_canned, load_scenario)
from .scheduler import SCHEDULERS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# Each plugin registry with its type and heading in list-plugins.
PLUGIN_TABLES = (("scheduler", "schedulers:", SCHEDULERS),
                 ("reorder", "reorder kinds:", RECEIVERS))


def run_scenario(cfg: ScenarioConfig, out_dir: Path) -> dict:
    """Execute one scenario and emit its configured outputs plus summary.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    log = Simulation(cfg).run()
    interval = cfg.nominal_interval_us()
    for out in cfg.outputs:
        metrics.export_metric(log, out.metric, out.format, out_dir / out.path,
                              interval, pdv_stream=cfg.pdv_stream)
    summary = metrics.summarize(log, interval, cfg.pdv_stream)
    summary.update(scenario=cfg.name, seed=cfg.seed)
    metrics.write_json(out_dir / "summary.json", summary)
    return summary


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg.seed = args.seed
    summary = run_scenario(cfg, Path(args.out))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_list_plugins(args) -> int:
    if args.json:
        entries = [{"type": kind, "name": name, "doc": plugin.describe()}
                   for kind, _, table in PLUGIN_TABLES
                   for name, plugin in sorted(table.items())]
        print(json.dumps(entries, indent=2, sort_keys=True))
        return EXIT_OK
    for _, heading, table in PLUGIN_TABLES:
        print(heading)
        for name, plugin in sorted(table.items()):
            print(f"  {name:<20} {plugin.describe()}")
    return EXIT_OK


def _cmd_paper_suite(args) -> int:
    for name in canned_scenario_names():
        run_scenario(load_canned(name), Path(args.out) / name)
        print(f"{name}: ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mptunnel",
        description="Deterministic multipath tunnel simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("--scenario", required=True, help="scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.set_defaults(fn=_cmd_run)

    lp = sub.add_parser("list-plugins", help="list schedulers and reorder kinds")
    lp.add_argument("--json", action="store_true", help="machine-readable output")
    lp.set_defaults(fn=_cmd_list_plugins)

    suite = sub.add_parser("paper-suite", help="run every canned scenario")
    suite.add_argument("--out", default="paper-suite-out", help="output directory")
    suite.set_defaults(fn=_cmd_paper_suite)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place a failure becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print("invalid scenario:", file=sys.stderr)
        for problem in exc.errors:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # a fault no command anticipates: one line, exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
