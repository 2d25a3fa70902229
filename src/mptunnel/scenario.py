"""Scenario configuration: a strict JSON schema declared as one field table
(SCHEMA) with full error collection, and the canned scenario suite shipped
with the package."""

import json
import sys
from collections import namedtuple

from .metrics import METRICS
from .reorder import RECEIVERS, ReorderConfig
from .scheduler import SCHEDULERS, SchedulerConfig
from .simcore import LatencyStep, PathModel, Record, TrafficSource, US_PER_SECOND


# Upper bound on duration_s (about 31.7 years of simulated time). It keeps
# duration_us an exact integer (below 2**53 us) and far from float overflow,
# so the run's hard stop is always a finite int. The µs keys a run converts
# to floats (latency, hold, threshold) share the cap, so none overflows.
MAX_DURATION_S = 1_000_000_000
# The largest IP datagram; far larger sizes overflow a sends row's 64-bit int.
MAX_PACKET_BYTES = 65_535


class ScenarioError(Exception):
    """Carries every validation problem found, not just the first."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class OutputSpec(Record):
    def __init__(self, metric: str, format: str, path: str):
        super().__init__(metric=metric, format=format, path=path)


class ScenarioConfig(Record):
    def __init__(self, duration_s: float, seed: int, paths: list[PathModel],
                 traffic: TrafficSource, scheduler: SchedulerConfig,
                 reorder: ReorderConfig | None = None,
                 outputs: list[OutputSpec] | None = None,
                 name: str = "scenario", pdv_stream: str = "deliveries"):
        super().__init__(
            duration_s=duration_s, seed=seed, paths=paths, traffic=traffic,
            scheduler=scheduler,
            reorder=ReorderConfig() if reorder is None else reorder,
            outputs=[] if outputs is None else outputs, name=name, pdv_stream=pdv_stream)

    @property
    def duration_us(self) -> int:
        return int(round(self.duration_s * US_PER_SECOND))

    def nominal_interval_us(self) -> float:
        """CBR inter-send gap; zero for greedy traffic."""
        if self.traffic.kind != "cbr":
            return 0.0
        return self.traffic.packet_size_bytes * 8 * US_PER_SECOND / self.traffic.rate_bps


# -- schema ------------------------------------------------------------------

class Field(namedtuple("Field", "key type required nullable of gt ge le choices",
                       defaults=(False, False, None, None, None, None, None))):
    """One key of a schema section.

    type is integer, number (finite), string, array or the name of another
    section for a nested object; of is the item type of an array. The range
    (gt, ge, le) and choices apply to the value, or to each item of an array.
    An absent optional key takes the default of the record field of the
    same name; a nullable key also accepts null for that default.
    """

    __slots__ = ()


class Section(namedtuple("Section", "cls fields rules")):
    """The record a JSON object builds (cls), its keys (fields, a tuple of
    Field), and the rules that relate several keys (rules, a dict), each
    under the keys it reads: check(instance, where) -> problems. A rule runs
    whenever every key it reads is well typed, so one mistyped key hides no
    problem among the others."""

    __slots__ = ()


def _path_id_rules(cfg: ScenarioConfig, where: str) -> list[str]:
    found = []
    ids = [p.path_id for p in cfg.paths]
    if not ids:
        found.append("paths must list at least one path")
    seen = set()
    for pid in ids:
        if pid in seen:
            found.append(f"duplicate path_id {pid}")
        seen.add(pid)
    if ids and sorted(seen) != list(range(len(ids))):
        found.append("path_id values must be 0..n-1")
    return found


def _weights_rules(cfg: ScenarioConfig, where: str) -> list[str]:
    sched, n = cfg.scheduler, len(cfg.paths)
    if sched.kind == "fixed_ratio" and sched.weights and len(sched.weights) != n:
        return [f"scheduler.weights must list one entry per path ({n})"]
    return []


def _greedy_weights_rules(cfg: ScenarioConfig, where: str) -> list[str]:
    # The greedy source offers packets while some flow is idle, and fixed_ratio
    # never picks a path of weight 0, so that path would stay idle for ever.
    sched = cfg.scheduler
    if (cfg.traffic.kind == "greedy" and sched.kind == "fixed_ratio"
            and 0 in (sched.weights or ())):
        return ["scheduler.weights must all be > 0 for greedy traffic"]
    return []


def _output_name_rules(cfg: ScenarioConfig, where: str) -> list[str]:
    names = [out.path for out in cfg.outputs] + ["summary.json"]
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        return [f"outputs[].path must be distinct and not summary.json; "
                f"clashing: {', '.join(clashes)}"]
    return []


def _path_rules(path: PathModel, where: str) -> list[str]:
    at = [step.at_us for step in path.latency_steps]
    if any(later <= earlier for earlier, later in zip(at, at[1:])):
        return [f"{where}.latency_steps must be strictly increasing in time"]
    return []


def _rate_rules(traffic: TrafficSource, where: str) -> list[str]:
    if traffic.kind != "cbr":
        return []
    if traffic.rate_bps <= 0:
        return [f"{where}: cbr requires rate_bps > 0"]
    # Emission times are floored to whole µs, so past one packet per µs
    # simulated time can stop advancing.
    if traffic.rate_bps > traffic.packet_size_bytes * 8 * US_PER_SECOND:
        return [f"{where}.rate_bps must be <= packet_size_bytes * 8 * 10^6 "
                f"(at most one cbr packet per microsecond)"]
    return []


def _stop_rules(traffic: TrafficSource, where: str) -> list[str]:
    if traffic.stop_us is not None and traffic.stop_us <= traffic.start_us:
        return [f"{where}.stop_us must be > start_us"]
    return []


def _scheduler_rules(sched: SchedulerConfig, where: str) -> list[str]:
    if sched.kind == "fixed_ratio" and not sched.weights:
        return [f"{where}: fixed_ratio requires weights"]
    if sched.kind == "fixed_ratio" and not any(sched.weights):
        return [f"{where}.weights must not be all zero"]
    return []


def _output_rules(out: OutputSpec, where: str) -> list[str]:
    if not out.path or "/" in out.path or out.path.startswith("."):
        return [f"{where}.path must be a bare file name, got {out.path!r}"]
    return []


SCHEMA = {
    "scenario": Section(ScenarioConfig, (
        Field("duration_s", "number", required=True, gt=0, le=MAX_DURATION_S),
        Field("seed", "integer", required=True),
        Field("paths", "array", required=True, of="path"),
        Field("traffic", "traffic", required=True),
        Field("scheduler", "scheduler", required=True),
        Field("reorder", "reorder"),
        Field("outputs", "array", of="output"),
        Field("name", "string"),
        Field("pdv_stream", "string", choices=("arrivals", "deliveries")),
    ), {("paths",): _path_id_rules, ("paths", "scheduler"): _weights_rules,
        ("scheduler", "traffic"): _greedy_weights_rules,
        ("outputs",): _output_name_rules}),
    "path": Section(PathModel, (
        Field("path_id", "integer", required=True, ge=0, le=255),
        Field("one_way_latency_us", "integer", required=True, ge=0,
              le=MAX_DURATION_S * US_PER_SECOND),
        Field("bandwidth_bps", "integer", required=True, gt=0),
        Field("loss_rate", "number", ge=0, le=1),
        Field("cost", "number", ge=0),
        Field("latency_steps", "array", of="latency_step"),
    ), {("latency_steps",): _path_rules}),
    "latency_step": Section(LatencyStep, (
        Field("at_us", "integer", required=True, ge=0),
        Field("latency_us", "integer", required=True, ge=0),
    ), {}),
    "traffic": Section(TrafficSource, (
        Field("kind", "string", required=True, choices=("cbr", "greedy")),
        Field("packet_size_bytes", "integer", required=True, gt=0,
              le=MAX_PACKET_BYTES),
        Field("rate_bps", "integer"),
        Field("start_us", "integer", ge=0),
        Field("stop_us", "integer", nullable=True),
    ), {("kind", "rate_bps", "packet_size_bytes"): _rate_rules,
        ("start_us", "stop_us"): _stop_rules}),
    "scheduler": Section(SchedulerConfig, (
        Field("kind", "string", required=True, choices=SCHEDULERS),
        Field("weights", "array", nullable=True, of="integer", ge=0),
    ), {("kind", "weights"): _scheduler_rules}),
    "reorder": Section(ReorderConfig, (
        Field("kind", "string", required=True, choices=RECEIVERS),
        Field("static_threshold_us", "integer", nullable=True, ge=0,
              le=MAX_DURATION_S * US_PER_SECOND),
        Field("adaptive_k", "number", gt=0),
        Field("max_hold_us", "integer", ge=0, le=MAX_DURATION_S * US_PER_SECOND),
    ), {}),
    "output": Section(OutputSpec, (
        Field("metric", "string", required=True, choices=METRICS),
        Field("format", "string", required=True, choices=("csv", "json")),
        Field("path", "string", required=True),
    ), {("path",): _output_rules}),
}

_SECTION_OF = {section.cls: name for name, section in SCHEMA.items()}


def _is_number(value) -> bool:
    # Finite and representable as a float: rejects NaN, infinities, huge ints.
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


_SCALARS = {
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("a finite number", _is_number),
    "string": ("a string", lambda v: isinstance(v, str)),
}

_BAD = object()  # stands in for a value of the wrong type or shape


def _value(f: Field, kind: str, value, name: str, errors: list[str]):
    """Check one value of key f, of type kind (f.type, or f.of for an item);
    return it converted, or _BAD when its type or shape is wrong.

    A value out of range or choices is reported but still returned, so the
    rules that read it still run.
    """
    if kind in SCHEMA:
        return _section(kind, value, name, errors)
    if kind == "array":
        if not isinstance(value, list):
            errors.append(f"{name} must be an array")
            return _BAD
        out = [_value(f, f.of, v, f"{name}[{i}]", errors) for i, v in enumerate(value)]
        return _BAD if any(v is _BAD for v in out) else out
    what, ok = _SCALARS[kind]
    if not ok(value):
        errors.append(f"{name} must be {what}")
        return _BAD
    if f.gt is not None and not value > f.gt:
        errors.append(f"{name} must be > {f.gt}")
    if f.ge is not None and not value >= f.ge:
        errors.append(f"{name} must be >= {f.ge}")
    if f.le is not None and not value <= f.le:
        errors.append(f"{name} must be <= {f.le}")
    if f.choices is not None and value not in f.choices:
        errors.append(f"{name} must be one of {', '.join(sorted(f.choices))}; "
                      f"got {value!r}")
    return float(value) if kind == "number" else value


def _section(section: str, obj, where: str, errors: list[str]):
    """Check obj against SCHEMA[section], then against each of the section's
    rules whose keys are well typed.

    obj is parsed JSON, built into the section's record, or an instance of
    that record, checked as the JSON object of its fields. Returns the
    instance, or _BAD when a key is missing or has the wrong type.
    """
    cls, fields, rules = SCHEMA[section]
    label = where or "scenario"
    if isinstance(obj, cls):
        obj = vars(obj)
    if not isinstance(obj, dict):
        errors.append(f"{label} must be an object")
        return _BAD
    known = [f.key for f in fields]
    errors.extend(f"{label}: unknown key {key!r}" for key in obj if key not in known)
    values = {}
    for f in fields:
        if f.key not in obj:
            if f.required:
                errors.append(f"{label}: missing required key {f.key!r}")
                values[f.key] = _BAD
            continue
        value = obj[f.key]
        if value is not None or not f.nullable:
            name = f"{where}.{f.key}" if where else f.key
            values[f.key] = _value(f, f.type, value, name, errors)
    obj = cls(**values)
    for reads, check in rules.items():
        if all(values.get(key) is not _BAD for key in reads):
            errors.extend(check(obj, where))
    return _BAD if any(v is _BAD for v in values.values()) else obj


def problems(obj) -> list[str]:
    """Every schema problem of a config built in code: a ScenarioConfig or one
    of the records a SCHEMA section builds. Anything else, such as the
    JSON a config is parsed from, raises TypeError."""
    section = _SECTION_OF.get(type(obj))
    if section is None:
        raise TypeError(f"expected a ScenarioConfig or one of its section "
                        f"records, not {type(obj).__name__}")
    errors: list[str] = []
    _section(section, obj, "" if section == "scenario" else section, errors)
    return errors


def parse_scenario(data) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed JSON, raising ScenarioError with the
    complete list of schema and semantic problems."""
    errors: list[str] = []
    cfg = _section("scenario", data, "", errors)
    if errors:
        raise ScenarioError(errors)
    return cfg


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario file; ScenarioError lists every problem."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8 or an over-long integer
            raise ScenarioError([f"not valid JSON: {exc}"]) from exc
    return parse_scenario(data)


# -- canned scenario suite -------------------------------------------------------

def _suite():
    """The directory of the canned suite. importlib.resources loads pathlib,
    tempfile and zipfile, so only reading the suite imports it."""
    from importlib import resources

    return resources.files(__package__).joinpath("scenarios")


def canned_scenario_names() -> list[str]:
    return sorted(
        f.name.removesuffix(".json")
        for f in _suite().iterdir()
        if f.name.endswith(".json")
    )


def load_canned(name: str) -> ScenarioConfig:
    ref = _suite().joinpath(f"{name}.json")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(
            [f"no canned scenario {name!r}; known: {', '.join(canned_scenario_names())}"]
        ) from None
    return parse_scenario(json.loads(text))
