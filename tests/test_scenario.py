import copy
import json
import pickle
from pathlib import Path

import pytest

from mptunnel import scenario
from mptunnel.engine import Simulation
from mptunnel.metrics import METRICS
from mptunnel.reorder import RECEIVERS
from mptunnel.scenario import (REQUIRED, LatencyStep, OutputSpec, PathModel, Record,
                               ReorderConfig, ScenarioConfig, ScenarioError,
                               SchedulerConfig, TrafficSource, canned_scenario_names,
                               load_canned, load_scenario, parse_scenario)
from mptunnel.scheduler import SCHEDULERS

MINIMAL = {
    "duration_s": 1,
    "seed": 1,
    "paths": [{"path_id": 0, "one_way_latency_us": 10_000,
               "bandwidth_bps": 1_000_000}],
    "traffic": {"kind": "cbr", "rate_bps": 1_000_000, "packet_size_bytes": 1000},
    "scheduler": {"kind": "round_robin"},
    "reorder": {"kind": "none"},
}


def variant(**overrides):
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return data


def errors_of(data):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    return err.value.errors


def test_minimal_scenario_loads(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(MINIMAL))
    cfg = load_scenario(path)
    assert cfg.duration_us == 1_000_000
    assert cfg.nominal_interval_us() == 8000.0
    assert len(cfg.paths) == 1


def test_unknown_key_rejected():
    problems = errors_of(variant(warp_factor=9))
    assert any("warp_factor" in p for p in problems)
    # A config built in code is checked as the JSON object of its attributes.
    cfg = parse_scenario(MINIMAL)
    cfg.sead = 3
    assert scenario.problems(cfg) == ["scenario: unknown key 'sead'"]


def test_all_zero_weights_error_names_weights():
    data = variant(scheduler={"kind": "fixed_ratio", "weights": [0, 0]},
                   paths=[MINIMAL["paths"][0],
                          {"path_id": 1, "one_way_latency_us": 0,
                           "bandwidth_bps": 1_000_000}])
    problems = errors_of(data)
    assert any("weights" in p for p in problems)


def test_greedy_fixed_ratio_rejects_a_zero_weight():
    # A zero-weight path is never picked, so under a greedy source it would
    # stay idle and the source would offer packets without end.
    two = [MINIMAL["paths"][0], {"path_id": 1, "one_way_latency_us": 0,
                                 "bandwidth_bps": 1_000_000}]
    greedy = {"kind": "greedy", "packet_size_bytes": 1000}
    zero = {"kind": "fixed_ratio", "weights": [1, 0]}
    assert errors_of(variant(paths=two, traffic=greedy, scheduler=zero)) == [
        "scheduler.weights must all be > 0 for greedy traffic"]
    assert errors_of(variant(paths=two, traffic=greedy, duration_s="x",
                             scheduler=zero))[-1].startswith("scheduler.weights")
    parse_scenario(variant(paths=two, scheduler=zero))
    parse_scenario(variant(paths=two, traffic=greedy,
                           scheduler={"kind": "fixed_ratio", "weights": [1, 2]}))


def test_duplicate_path_id_rejected():
    data = variant(paths=[MINIMAL["paths"][0], MINIMAL["paths"][0]])
    problems = errors_of(data)
    assert any("duplicate path_id" in p for p in problems)


def test_missing_required_key_is_named():
    data = variant()
    del data["traffic"]
    problems = errors_of(data)
    assert any("traffic" in p and "missing" in p for p in problems)


def test_all_errors_collected_not_just_first():
    data = variant(duration_s=-1, bogus=1)
    data["paths"][0]["loss_rate"] = 3.0
    problems = errors_of(data)
    assert len(problems) >= 3


def test_mistyped_key_hides_no_cross_field_problem():
    # Each rule runs when the keys it reads are well typed, whatever the
    # type of the others, in the scenario and in a nested section.
    data = variant(duration_s="x", paths=[MINIMAL["paths"][0]] * 2, outputs=[
        {"metric": "drops", "format": "csv", "path": "summary.json"}])
    data["traffic"].update(packet_size_bytes="big", start_us=5, stop_us=5)
    assert errors_of(data) == [
        "duration_s must be a finite number",
        "traffic.packet_size_bytes must be an integer",
        "traffic.stop_us must be > start_us",
        "duplicate path_id 0",
        "path_id values must be 0..n-1",
        "outputs[].path must be distinct and not summary.json; "
        "clashing: summary.json",
    ]


def test_rule_skipped_only_when_a_key_it_reads_is_mistyped():
    data = variant(traffic={"kind": "cbr", "rate_bps": "fast",
                            "packet_size_bytes": 1000, "start_us": 9, "stop_us": 1})
    assert errors_of(data) == ["traffic.rate_bps must be an integer",
                               "traffic.stop_us must be > start_us"]


def test_non_contiguous_path_ids_rejected():
    data = variant(paths=[{"path_id": 3, "one_way_latency_us": 0,
                           "bandwidth_bps": 1_000_000}])
    problems = errors_of(data)
    assert any("0..n-1" in p for p in problems)


def test_parsed_json_is_no_config(tmp_path):
    # Simulation and problems take a config built by parse_scenario, not the
    # JSON it is parsed from; they say so instead of failing on a lookup.
    path = tmp_path / "s.json"
    path.write_text(json.dumps(MINIMAL))
    with open(path) as fh:
        data = json.load(fh)
    for call in (Simulation, scenario.problems):
        with pytest.raises(TypeError, match="ScenarioConfig"):
            call(data)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "JSON" in err.value.errors[0]


def test_unknown_output_metric_rejected():
    data = variant(outputs=[{"metric": "vibes", "format": "csv", "path": "x.csv"}])
    problems = errors_of(data)
    assert any("vibes" in p for p in problems)


def test_scheduler_costs_is_unknown_key():
    # Path costs are set per path; the scheduler section has no costs key.
    data = variant(scheduler={"kind": "cheapest_pipe_first", "costs": {"0": 1.0}})
    assert errors_of(data) == ["scheduler: unknown key 'costs'"]


def test_output_path_used_twice_rejected():
    data = variant(outputs=[
        {"metric": "drops", "format": "csv", "path": "d.csv"},
        {"metric": "arrivals", "format": "csv", "path": "d.csv"},
        {"metric": "pdv", "format": "csv", "path": "p.csv"},
        {"metric": "scatter", "format": "csv", "path": "p.csv"},
    ])
    problems = errors_of(data)
    assert len(problems) == 1
    assert "d.csv" in problems[0] and "p.csv" in problems[0]


def test_output_named_summary_json_rejected():
    data = variant(outputs=[
        {"metric": "deliveries", "format": "json", "path": "summary.json"}])
    problems = errors_of(data)
    assert len(problems) == 1 and "summary.json" in problems[0]


def test_reorder_params_validated():
    data = variant(reorder={"kind": "adaptive", "adaptive_k": -1})
    problems = errors_of(data)
    assert any("adaptive_k" in p for p in problems)


# A valid value other than its default for each scheduler and reorder key.
NOT_DEFAULT = {"weights": [2], "static_threshold_us": 1_000, "adaptive_k": 2.0,
               "max_hold_us": 100_000}


@pytest.mark.parametrize("section, kind", [("scheduler", kind) for kind in sorted(SCHEDULERS)]
                         + [("reorder", kind) for kind in sorted(RECEIVERS)])
def test_a_kind_takes_the_keys_it_reads_and_rejects_the_others(section, kind):
    # A key the kind does not read would be silently ignored; at its default
    # it changes nothing, so it passes.
    plugin = (SCHEDULERS if section == "scheduler" else RECEIVERS)[kind]
    reads = {key for key, _ in plugin.params}
    for f in RECORDS[section].FIELDS[1:]:
        data = variant(**{section: {"kind": kind, f.key: NOT_DEFAULT[f.key]}})
        if f.key in reads:
            parse_scenario(data)
        else:
            parse_scenario(variant(**{section: {"kind": kind, f.key: f.default}}))
            assert errors_of(data) == [
                f"{section}.{f.key} is not read by kind {kind!r}; leave it out or "
                f"give its default, {json.dumps(f.default)}"]


def test_a_record_built_in_code_is_checked_for_unread_keys():
    assert scenario.problems(SchedulerConfig("round_robin", [9, 1])) == [
        "SchedulerConfig.weights is not read by kind 'round_robin'; leave it out or "
        "give its default, null"]
    cfg = parse_scenario(variant(reorder={"kind": "static", "static_threshold_us": 5}))
    cfg.reorder.kind = "adaptive"
    assert scenario.problems(cfg) == [
        "reorder.static_threshold_us is not read by kind 'adaptive'; leave it out or "
        "give its default, null"]


def test_packet_size_capped_at_largest_ip_datagram():
    traffic = dict(MINIMAL["traffic"], packet_size_bytes=10**22)
    assert errors_of(variant(traffic=traffic)) == ["traffic.packet_size_bytes must be <= 65535"]
    traffic["packet_size_bytes"] = 65_535
    assert parse_scenario(variant(traffic=traffic)).traffic.packet_size_bytes == 65_535


def test_cbr_rate_capped_at_one_packet_per_microsecond():
    # Above the cap the emission schedule never advances; the run is not tried.
    traffic = dict(MINIMAL["traffic"], rate_bps=10**30)
    problems = errors_of(variant(traffic=traffic))
    assert len(problems) == 1 and "traffic.rate_bps must be <=" in problems[0]
    traffic["rate_bps"] = 1000 * 8 * 10**6 + 1
    assert len(errors_of(variant(traffic=traffic))) == 1
    traffic["rate_bps"] = 1000 * 8 * 10**6
    assert parse_scenario(variant(traffic=traffic)).nominal_interval_us() == 1.0


def test_canned_suite_ships_and_loads():
    names = canned_scenario_names()
    for expected in ("srtt-handover", "otias-moderate", "otias-saturated",
                     "rr-saturated", "adaptive-jump", "pdv-default",
                     "pdv-adaptive", "pdv-otias", "pdv-srtt", "delay-equalize"):
        assert expected in names
    for name in names:
        assert not scenario.problems(load_canned(name))


def test_unknown_canned_name_lists_alternatives():
    with pytest.raises(ScenarioError) as err:
        load_canned("no-such-scenario")
    assert "srtt-handover" in err.value.errors[0]


def test_a_malformed_canned_file_is_the_error_of_a_scenario_file(tmp_path, monkeypatch):
    (tmp_path / "broken.json").write_text('{"name": ', encoding="utf-8")
    monkeypatch.setattr(scenario, "SUITE_DIR", str(tmp_path))
    assert canned_scenario_names() == ["broken"]
    with pytest.raises(ScenarioError) as err:
        load_canned("broken")
    assert len(err.value.errors) == 1
    assert err.value.errors[0].startswith("not valid JSON: ")


def test_a_name_outside_the_suite_is_no_canned_scenario(tmp_path, monkeypatch):
    with pytest.raises(ScenarioError, match="no canned scenario '../pdv-default'"):
        load_canned("../pdv-default")
    # Not even where the file the name points at exists.
    text = Path(scenario.SUITE_DIR, "pdv-default.json").read_text(encoding="utf-8")
    (tmp_path / "suite").mkdir()
    for path in (tmp_path / "suite" / "pdv-default.json", tmp_path / "outside.json"):
        path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(scenario, "SUITE_DIR", str(tmp_path / "suite"))
    assert load_canned("pdv-default") == parse_scenario(json.loads(text))
    with pytest.raises(ScenarioError, match="no canned scenario '../outside'; known: pdv-default"):
        load_canned("../outside")


# Each config record class, by the JSON object it is parsed from.
RECORDS = {"scenario": ScenarioConfig, "path": PathModel, "latency_step": LatencyStep,
           "traffic": TrafficSource, "scheduler": SchedulerConfig,
           "reorder": ReorderConfig, "output": OutputSpec}

# The value every optional key of a record takes when left out.
DEFAULTS = {
    "scenario": {"reorder": ReorderConfig("none"), "outputs": [], "name": "scenario",
                 "pdv_stream": "deliveries"},
    "path": {"loss_rate": 0.0, "cost": 0.0, "latency_steps": []},
    "latency_step": {},
    "traffic": {"rate_bps": 0, "start_us": 0, "stop_us": None},
    "scheduler": {"weights": None},
    "reorder": {"static_threshold_us": None, "adaptive_k": 4.0, "max_hold_us": 500_000},
    "output": {},
}


def required_only(section: str) -> dict:
    """The required keys of a record, valued as in a parsed scenario that
    has one record of every class."""
    data = variant(outputs=[{"metric": "drops", "format": "csv", "path": "d.csv"}])
    data["paths"][0]["latency_steps"] = [{"at_us": 5, "latency_us": 7}]
    cfg = parse_scenario(data)
    path = cfg.paths[0]
    record = {"scenario": cfg, "path": path, "latency_step": path.latency_steps[0],
              "traffic": cfg.traffic, "scheduler": cfg.scheduler,
              "reorder": cfg.reorder, "output": cfg.outputs[0]}[section]
    return {f.key: getattr(record, f.key)
            for f in RECORDS[section].FIELDS if f.default is REQUIRED}


def test_schema_builds_every_config_record():
    # So test_record_semantics, one case per record, covers every record
    # class mptunnel defines (tests may derive their own), each reached
    # from ScenarioConfig's fields.
    def subclasses(cls):
        return {sub for c in cls.__subclasses__() if c.__module__.startswith("mptunnel.")
                for sub in {c} | subclasses(c)}

    def nested(cls):
        return {cls}.union(*(nested(t) for f in cls.FIELDS for t in (f.type, f.of)
                             if isinstance(t, type)))

    assert nested(ScenarioConfig) == set(RECORDS.values()) == subclasses(Record)


@pytest.mark.parametrize("section", sorted(RECORDS))
def test_record_semantics(section):
    cls = RECORDS[section]
    fields = cls.FIELDS
    assert set(DEFAULTS[section]) == {f.key for f in fields if f.default is not REQUIRED}
    required = required_only(section)
    record, twin = cls(**required), cls(**required)
    # Every optional key takes its default, a list or record a new one.
    assert vars(record) == dict(required, **DEFAULTS[section])
    for key in DEFAULTS[section]:
        if isinstance(getattr(record, key), (list, ReorderConfig)):
            assert getattr(record, key) is not getattr(twin, key), key
    # Fields are taken by position too, and listed in FIELDS order.
    assert cls(*(getattr(record, f.key) for f in fields)) == record
    assert list(vars(record)) == [f.key for f in fields]
    # An unknown field, a required one left out, one given twice, too many.
    first = fields[0].key
    for args, kwargs in (((), dict(required, bogus=1)),
                         ((), {k: v for k, v in required.items() if k != first}),
                         ((required[first],), required), (range(len(fields) + 1), {})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    # == compares field by field; repr names the class and every field.
    assert record == twin
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{f.key}=" in text for f in fields)
    assert copy.deepcopy(record) == record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record, protocol
    setattr(twin, fields[-1].key, "changed")
    assert record != twin


def test_readme_names_every_kind_key_and_metric():
    # Each name appears backticked, or quoted as in the README's JSON example.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = {*SCHEDULERS, *RECEIVERS, *METRICS,
             *(f.key for cls in RECORDS.values() for f in cls.FIELDS)}
    missing = sorted(name for name in names
                     if f"`{name}`" not in readme and f'"{name}"' not in readme)
    assert not missing, f"README.md does not name {missing}"
