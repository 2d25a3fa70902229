import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mptunnel
from mptunnel import cli
from mptunnel.cli import main
from mptunnel.engine import Simulation
from mptunnel.scenario import ScenarioError, canned_scenario_names, parse_scenario

SCENARIO = {
    "name": "cli-smoke",
    "duration_s": 2,
    "seed": 5,
    "paths": [
        {"path_id": 0, "one_way_latency_us": 10_000, "bandwidth_bps": 10_000_000},
        {"path_id": 1, "one_way_latency_us": 20_000, "bandwidth_bps": 10_000_000},
    ],
    "traffic": {"kind": "cbr", "rate_bps": 1_000_000, "packet_size_bytes": 1000},
    "scheduler": {"kind": "round_robin"},
    "reorder": {"kind": "none"},
    "outputs": [
        {"metric": "deliveries", "format": "csv", "path": "deliveries.csv"},
        {"metric": "pdv", "format": "csv", "path": "pdv.csv"},
    ],
}


def write_scenario(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def test_run_writes_outputs_and_summary(tmp_path, capsys):
    scenario = write_scenario(tmp_path, SCENARIO)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 0
    assert (out / "deliveries.csv").exists()
    assert (out / "pdv.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sent"] == 250
    assert summary["delivered"] == 250
    header = (out / "deliveries.csv").read_text().splitlines()[0]
    assert header == ("delivery_time_us,overall_seq,path_id,"
                      "buffer_residency_us,disposition")


def test_run_validation_failure_exit_code(tmp_path, capsys):
    bad = dict(SCENARIO)
    bad["scheduler"] = {"kind": "fixed_ratio", "weights": [0, 0]}
    scenario = write_scenario(tmp_path, bad)
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "weights" in capsys.readouterr().err


def test_greedy_zero_weight_is_validation_error(tmp_path, capsys, monkeypatch):
    # Such a run would never end, so it must be rejected before it starts.
    def never_ends(self):
        raise RuntimeError("the run started")

    monkeypatch.setattr(Simulation, "run", never_ends)
    bad = dict(SCENARIO, traffic={"kind": "greedy", "packet_size_bytes": 1000},
               scheduler={"kind": "fixed_ratio", "weights": [3, 0]})
    scenario = write_scenario(tmp_path, bad)
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "scheduler.weights must all be > 0 for greedy traffic" in capsys.readouterr().err


@pytest.mark.parametrize("change, problem", [
    ({"paths": []}, "paths must list at least one path"),
    ({"scheduler": {"kind": "fixed_ratio", "weights": [1, 2, 3]}},
     "scheduler.weights must list one entry per path (2)"),
    ({"scheduler": {"kind": "fixed_ratio"}}, "scheduler: fixed_ratio requires weights"),
    ({"scheduler": {"kind": "round_robin", "weights": [9, 1]}},
     "scheduler.weights is not read by kind 'round_robin'; leave it out or give its "
     "default, null"),
] + [
    ({"reorder": {"kind": kind, "static_threshold_us": 20_000}},
     f"reorder.static_threshold_us is not read by kind {kind!r}; leave it out or give "
     f"its default, null")
    for kind in ("adaptive", "none")
] + [
    ({"outputs": [{"metric": "drops", "format": "csv", "path": name}]},
     f"outputs[0].path must be a bare file name, got {name!r}")
    for name in ("../x.csv", ".hidden", "")
], ids=["no-paths", "three-weights", "no-weights", "unread-weights", "unread-threshold-adaptive",
        "unread-threshold-none", "parent-dir", "hidden", "empty-name"])
def test_rule_violation_exits_1_naming_the_problem(tmp_path, capsys, change, problem):
    scenario = write_scenario(tmp_path, dict(SCENARIO, **change))
    out = tmp_path / "o"
    rc = main(["run", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"invalid scenario:\n  - {problem}\n"
    assert not out.exists()


def test_out_is_a_regular_file_is_runtime_error(tmp_path, capsys):
    scenario = write_scenario(tmp_path, SCENARIO)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    rc = main(["run", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and str(out) in err
    assert err.count("\n") == 1
    assert out.read_text() == "not a directory"


def test_paper_suite_with_an_invalid_canned_scenario_exits_1(tmp_path, capsys,
                                                              monkeypatch):
    # The suite's configs are validated again when each run is built.
    load = cli.load_canned

    def without_paths(name):
        cfg = load(name)
        cfg.paths = []
        return cfg

    monkeypatch.setattr(cli, "load_canned", without_paths)
    rc = main(["paper-suite", "--out", str(tmp_path / "suite")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid scenario:\n  - paths must list at least one path\n"


def test_shell_sees_the_exit_code(tmp_path):
    bad = dict(SCENARIO, scheduler={"kind": "fixed_ratio"})
    scenario = write_scenario(tmp_path, bad)
    src = str(Path(mptunnel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "mptunnel.cli", "run", "--scenario", str(scenario),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "  - scheduler: fixed_ratio requires weights" in proc.stderr


@pytest.mark.parametrize("section, key, value", [
    ("traffic", "stop_us", "5"),
    ("reorder", "static_threshold_us", "5"),
    (None, "paths", 5),
    (None, "outputs", 5),
    ("paths", "latency_steps", 3),
    (None, "duration_s", float("nan")),
    (None, "duration_s", float("inf")),
    (None, "duration_s", 1e303),
    # Valid JSON integers but no floats: a run would overflow converting them.
    pytest.param("paths", "one_way_latency_us", 10**400, id="latency-1e400"),
    pytest.param("reorder", "max_hold_us", 10**400, id="max_hold-1e400"),
    pytest.param("reorder", "static_threshold_us", 10**400, id="threshold-1e400"),
    # Would overflow the 64-bit size field of the first sends row.
    pytest.param("traffic", "packet_size_bytes", 10**22, id="packet_size-1e22"),
])
def test_malformed_scenario_is_validation_error(tmp_path, capsys, section, key, value):
    bad = json.loads(json.dumps(SCENARIO))
    if section is None:
        bad[key] = value
    elif section == "paths":
        bad["paths"][0][key] = value
    else:
        bad[section][key] = value
    scenario = write_scenario(tmp_path, bad)   # NaN and Infinity as JSON literals
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert key in capsys.readouterr().err


def test_unexpected_exception_is_runtime_error(tmp_path, capsys, monkeypatch):
    def explode(self):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(Simulation, "run", explode)
    scenario = write_scenario(tmp_path, SCENARIO)
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "engine fault" in capsys.readouterr().err
    assert main(["paper-suite", "--out", str(tmp_path / "suite")]) == 2


CANNED = {name: json.loads(resources.files("mptunnel").joinpath(
    "scenarios", f"{name}.json").read_text(encoding="utf-8"))
    for name in canned_scenario_names()}

# Values of the wrong type, out of range, not finite or not representable,
# and nested junk.
JUNK = [None, True, False, 0, -1, 1.5, -0.0, "", "x", "otias", [], {}, [None],
        [1, "2"], {"kind": [{}]}, [[[]]], float("nan"), float("inf"),
        float("-inf"), 1e308, -1e308, 10**400, -(10**30), 2**63]


def nodes(value, at=()):
    """Every (location, value) inside a parsed JSON document, root first."""
    yield at, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from nodes(child, at + (key,))


@st.composite
def malformed_scenarios(draw):
    """A canned scenario with one to four keys or items dropped or replaced
    by junk, or with an unknown key or a junk item added."""
    data = json.loads(json.dumps(CANNED[draw(st.sampled_from(sorted(CANNED)))]))
    for _ in range(draw(st.integers(1, 4))):
        at, _ = draw(st.sampled_from(list(nodes(data))[1:]))
        parent = data
        for key in at[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["drop", "junk", "junk", "add"]))
        junk = copy.deepcopy(draw(st.sampled_from(JUNK)))
        if op == "drop":
            del parent[at[-1]]
        elif op == "junk":
            parent[at[-1]] = junk
        elif isinstance(parent, dict):
            parent["extra"] = junk
        else:
            parent.append(junk)
        if not data:
            break
    return data


@settings(max_examples=250)
@given(malformed_scenarios())
def test_malformed_scenario_never_crashes(tmp_path_factory, mutant):
    # Each mutant parses or raises ScenarioError; a rejected one exits 1
    # through the CLI with every problem listed. A valid mutant builds a
    # Simulation, where unbounded values used to overflow, but is not run.
    try:
        cfg = parse_scenario(mutant)
    except ScenarioError as exc:
        errors = exc.errors
    else:
        Simulation(cfg)
        return
    assert errors
    scenario = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    scenario.write_text(json.dumps(mutant))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = main(["run", "--scenario", str(scenario), "--out", str(scenario.parent)])
    assert rc == 1, stderr.getvalue()
    assert "runtime error" not in stderr.getvalue()
    for problem in errors:
        assert f"  - {problem}" in stderr.getvalue()


def test_run_missing_file_is_runtime_error(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("file error: [Errno 2]")


@pytest.mark.parametrize("raw", [
    b"\xff\xfe{}",                        # not UTF-8
    b'{"seed": 1' + b"0" * 5000 + b"}",     # integer longer than int() accepts
], ids=["not-utf8", "long-integer"])
def test_undecodable_scenario_is_validation_error(tmp_path, capsys, raw):
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(raw)
    rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_seed_override_changes_loss_pattern(tmp_path):
    lossy = json.loads(json.dumps(SCENARIO))
    for p in lossy["paths"]:
        p["loss_rate"] = 0.2
    scenario = write_scenario(tmp_path, lossy)
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"out{seed}"
        assert main(["run", "--scenario", str(scenario), "--seed", str(seed),
                     "--out", str(out)]) == 0
        outs.append(json.loads((out / "summary.json").read_text()))
    assert outs[0]["seed"] == 1
    assert outs[0]["dropped"] != outs[1]["dropped"]


def test_list_plugins_text(capsys):
    assert main(["list-plugins"]) == 0
    text = capsys.readouterr().out
    for name in ("otias", "srtt", "round_robin", "fixed_ratio",
                 "cheapest_pipe_first"):
        assert name in text
    for name in ("static", "adaptive", "delay_equalize", "none"):
        assert name in text


# Every plugin as list-plugins --json lists it, in order: type, name, doc.
PLUGINS = [
    ("scheduler", "cheapest_pipe_first", "prefer the lowest-cost path while its window "
     "has room; params: cost (per path, default 0)"),
    ("scheduler", "fixed_ratio", "deterministic weighted round robin; params: weights "
     "(one non-negative integer per path, by path_id, not all zero)"),
    ("scheduler", "otias",
     "earliest estimated arrival using queue backlog and smoothed RTT; no params"),
    ("scheduler", "round_robin", "cycle through paths in path_id order; no params"),
    ("scheduler", "srtt", "lowest smoothed RTT among paths with window room; no params"),
    ("reorder", "adaptive", "resequencing with a threshold recomputed from measured "
     "RTTs; params: adaptive_k, max_hold_us"),
    ("reorder", "delay_equalize", "per-flow delay lines equalizing end-to-end latency, "
     "late packets discarded; params: adaptive_k, max_hold_us"),
    ("reorder", "none", "no receiver processing, packets delivered on arrival; no params"),
    ("reorder", "static", "resequencing with a fixed threshold; params: "
     "static_threshold_us (defaults to the configured RTT gap), max_hold_us"),
]


def test_list_plugins_json_is_sorted_array(capsys):
    assert main(["list-plugins", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert isinstance(entries, list)
    names = [e["name"] for e in entries if e["type"] == "scheduler"]
    assert names == sorted(names)
    assert all(sorted(entry) == ["doc", "name", "type"] for entry in entries)
    assert [(e["type"], e["name"], e["doc"]) for e in entries] == PLUGINS


def test_same_scenario_and_seed_byte_identical(tmp_path):
    scenario = write_scenario(tmp_path, SCENARIO)
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert blobs[0] == blobs[1]
