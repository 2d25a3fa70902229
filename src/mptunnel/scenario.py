"""Scenario configuration: one record class per JSON object of a scenario,
built and checked from its own table (FIELDS and RULES) with full error
collection, and the canned scenario suite shipped with the package."""

import copyreg
import json
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from .metrics import METRICS
from .reorder import DEFAULT_ADAPTIVE_K, DEFAULT_MAX_HOLD_US, RECEIVERS
from .scheduler import SCHEDULERS
from .simcore import US_PER_SECOND


# Upper bound on duration_s (about 31.7 years of simulated time). It keeps
# duration_us an exact integer (below 2**53 us) and far from float overflow,
# so the run's hard stop is always a finite int. The µs keys a run converts
# to floats (latency, hold, threshold) share the cap, so none overflows.
MAX_DURATION_S = 1_000_000_000
# The largest IP datagram; far larger sizes overflow a sends row's 64-bit int.
MAX_PACKET_BYTES = 65_535

REQUIRED = object()  # the default of a key that has none


class ScenarioError(Exception):
    """Carries every validation problem found, not just the first."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class Field(namedtuple("Field", "key type default of gt ge le choices",
                       defaults=(REQUIRED, None, None, None, None, None))):
    """One key of a record: its JSON type, default, range and choices.

    type is integer, number (finite), string, array or the Record class of
    a nested object; of is the item type of an array. The range (gt, ge, le)
    and choices apply to the value, or to each item of an array. A key with
    no default is required. An absent key takes its default, and a callable
    default (a class, say) is called once per record. A key whose default is
    None also accepts null for it.
    """

    __slots__ = ()


class Record(SimpleNamespace):
    """A mutable config record whose fields are its attributes, declared by
    its class: FIELDS, a tuple of Field in order, and RULES, the checks that
    relate several keys, each under the keys it reads: check(record, where)
    -> problems. A rule runs whenever every key it reads is well typed, so
    one mistyped key hides no problem among the others.

    A record takes its fields by position or keyword, and a field left out
    its default. vars() lists the fields, == and repr go field by field and
    a copy is rebuilt from them.
    """

    FIELDS: tuple = ()
    RULES: dict = {}

    def __init__(self, *args, **kwargs):
        fields, values = self.FIELDS, self.__dict__
        for f, value in zip(fields, args):
            values[f.key] = value
        taken = len(args)
        for f in fields[taken:]:
            if f.key in kwargs:
                values[f.key] = kwargs[f.key]
                taken += 1
            elif f.default is REQUIRED:
                raise TypeError(f"{type(self).__name__} needs {f.key!r}")
            else:
                values[f.key] = f.default() if callable(f.default) else f.default
        if len(args) > len(fields) or taken != len(args) + len(kwargs):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, "
                            f"each once: {', '.join(f.key for f in fields)}")

    def __reduce__(self):
        # A bare instance, then its fields: __init__ is not called, and
        # copyreg.__newobj__ is found by name at every pickle protocol.
        return copyreg.__newobj__, (type(self),), vars(self)


def _unread(plugins: dict):
    """The rule that rejects a key, set away from its default, that the
    chosen kind of plugins does not read (its Plugin.params)."""
    def check(record: Record, where: str) -> list[str]:
        plugin = plugins.get(record.kind)
        if plugin is None:  # an unknown kind is reported by its choices
            return []
        reads = {"kind", *(key for key, _ in plugin.params)}
        return [f"{where}.{f.key} is not read by kind {record.kind!r}; leave it "
                f"out or give its default, {json.dumps(f.default)}"
                for f in record.FIELDS
                if f.key not in reads and getattr(record, f.key) != f.default]
    return check


class LatencyStep(Record):
    """Scheduled change of a path's one-way latency."""

    FIELDS = (Field("at_us", "integer", ge=0), Field("latency_us", "integer", ge=0))


class PathModel(Record):
    """Static description of one simulated link."""

    FIELDS = (
        Field("path_id", "integer", ge=0, le=255),
        Field("one_way_latency_us", "integer", ge=0, le=MAX_DURATION_S * US_PER_SECOND),
        Field("bandwidth_bps", "integer", gt=0),
        Field("loss_rate", "number", 0.0, ge=0, le=1),
        Field("cost", "number", 0.0, ge=0),
        Field("latency_steps", "array", list, of=LatencyStep),
    )

    def _step_rules(self, where: str) -> list[str]:
        at = [step.at_us for step in self.latency_steps]
        if any(later <= earlier for earlier, later in zip(at, at[1:])):
            return [f"{where}.latency_steps must be strictly increasing in time"]
        return []

    RULES = {("latency_steps",): _step_rules}


class TrafficSource(Record):
    """Constant bit rate or greedy (always backlogged) packet source."""

    FIELDS = (
        Field("kind", "string", choices=("cbr", "greedy")),
        Field("packet_size_bytes", "integer", gt=0, le=MAX_PACKET_BYTES),
        Field("rate_bps", "integer", 0),
        Field("start_us", "integer", 0, ge=0),
        Field("stop_us", "integer", None),
    )

    def _rate_rules(self, where: str) -> list[str]:
        if self.kind != "cbr":
            return []
        if self.rate_bps <= 0:
            return [f"{where}: cbr requires rate_bps > 0"]
        # Emission times are floored to whole µs, so past one packet per µs
        # simulated time can stop advancing.
        if self.rate_bps > self.packet_size_bytes * 8 * US_PER_SECOND:
            return [f"{where}.rate_bps must be <= packet_size_bytes * 8 * 10^6 "
                    f"(at most one cbr packet per microsecond)"]
        return []

    def _stop_rules(self, where: str) -> list[str]:
        if self.stop_us is not None and self.stop_us <= self.start_us:
            return [f"{where}.stop_us must be > start_us"]
        return []

    RULES = {("kind", "rate_bps", "packet_size_bytes"): _rate_rules,
             ("start_us", "stop_us"): _stop_rules}


class SchedulerConfig(Record):
    FIELDS = (
        Field("kind", "string", choices=SCHEDULERS),
        Field("weights", "array", None, of="integer", ge=0),
    )

    def _fixed_ratio_rules(self, where: str) -> list[str]:
        if self.kind == "fixed_ratio" and not self.weights:
            return [f"{where}: fixed_ratio requires weights"]
        if self.kind == "fixed_ratio" and not any(self.weights):
            return [f"{where}.weights must not be all zero"]
        return []

    RULES = {("kind", "weights"): _fixed_ratio_rules, ("kind",): _unread(SCHEDULERS)}


class ReorderConfig(Record):
    FIELDS = (
        Field("kind", "string", choices=RECEIVERS),
        Field("static_threshold_us", "integer", None, ge=0,
              le=MAX_DURATION_S * US_PER_SECOND),
        Field("adaptive_k", "number", DEFAULT_ADAPTIVE_K, gt=0),
        Field("max_hold_us", "integer", DEFAULT_MAX_HOLD_US, ge=0,
              le=MAX_DURATION_S * US_PER_SECOND),
    )
    RULES = {("kind",): _unread(RECEIVERS)}


class OutputSpec(Record):
    FIELDS = (
        Field("metric", "string", choices=METRICS),
        Field("format", "string", choices=("csv", "json")),
        Field("path", "string"),
    )

    def _name_rules(self, where: str) -> list[str]:
        if not self.path or "/" in self.path or self.path.startswith("."):
            return [f"{where}.path must be a bare file name, got {self.path!r}"]
        return []

    RULES = {("path",): _name_rules}


class ScenarioConfig(Record):
    FIELDS = (
        Field("duration_s", "number", gt=0, le=MAX_DURATION_S),
        Field("seed", "integer"),
        Field("paths", "array", of=PathModel),
        Field("traffic", TrafficSource),
        Field("scheduler", SchedulerConfig),
        Field("reorder", ReorderConfig, lambda: ReorderConfig("none")),
        Field("outputs", "array", list, of=OutputSpec),
        Field("name", "string", "scenario"),
        Field("pdv_stream", "string", "deliveries", choices=("arrivals", "deliveries")),
    )

    @property
    def duration_us(self) -> int:
        return int(round(self.duration_s * US_PER_SECOND))

    def nominal_interval_us(self) -> float:
        """CBR inter-send gap; zero for greedy traffic."""
        if self.traffic.kind != "cbr":
            return 0.0
        return self.traffic.packet_size_bytes * 8 * US_PER_SECOND / self.traffic.rate_bps

    def _path_id_rules(self, where: str) -> list[str]:
        found = []
        ids = [p.path_id for p in self.paths]
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

    def _weights_rules(self, where: str) -> list[str]:
        sched, n = self.scheduler, len(self.paths)
        if sched.kind == "fixed_ratio" and sched.weights and len(sched.weights) != n:
            return [f"scheduler.weights must list one entry per path ({n})"]
        return []

    def _greedy_weights_rules(self, where: str) -> list[str]:
        # The greedy source offers packets while some flow is idle, and
        # fixed_ratio never picks a path of weight 0, so that path would stay
        # idle for ever.
        sched = self.scheduler
        if (self.traffic.kind == "greedy" and sched.kind == "fixed_ratio"
                and 0 in (sched.weights or ())):
            return ["scheduler.weights must all be > 0 for greedy traffic"]
        return []

    def _output_name_rules(self, where: str) -> list[str]:
        names = [out.path for out in self.outputs] + ["summary.json"]
        clashes = sorted({name for name in names if names.count(name) > 1})
        if clashes:
            return [f"outputs[].path must be distinct and not summary.json; "
                    f"clashing: {', '.join(clashes)}"]
        return []

    RULES = {("paths",): _path_id_rules, ("paths", "scheduler"): _weights_rules,
             ("scheduler", "traffic"): _greedy_weights_rules,
             ("outputs",): _output_name_rules}


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


def _value(f: Field, kind, value, name: str, errors: list[str]):
    """Check one value of key f, of type kind (f.type, or f.of for an item);
    return it converted, or _BAD when its type or shape is wrong.

    A value out of range or choices is reported but still returned, so the
    rules that read it still run.
    """
    if isinstance(kind, type):
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


def _section(cls: type, obj, where: str, errors: list[str]):
    """Check obj against cls.FIELDS, then against each of cls.RULES whose
    keys are well typed.

    obj is parsed JSON, built into a cls record, or a cls record, checked as
    the JSON object of its fields and returned as it is. Returns the record,
    or _BAD when a key is missing or has the wrong type.
    """
    label = where or "scenario"
    record = obj if isinstance(obj, cls) else None
    if record is not None:
        obj = vars(record)
    if not isinstance(obj, dict):
        errors.append(f"{label} must be an object")
        return _BAD
    known = [f.key for f in cls.FIELDS]
    errors.extend(f"{label}: unknown key {key!r}" for key in obj if key not in known)
    values = {}
    for f in cls.FIELDS:
        if f.key not in obj:
            # A record has every field, unless one was deleted.
            if f.default is REQUIRED or record is not None:
                errors.append(f"{label}: missing required key {f.key!r}")
                values[f.key] = _BAD
            continue
        value = obj[f.key]
        if value is not None or f.default is not None:
            name = f"{where}.{f.key}" if where else f.key
            values[f.key] = _value(f, f.type, value, name, errors)
    if record is None:
        record = cls(**values)
    for reads, check in cls.RULES.items():
        if all(values.get(key) is not _BAD for key in reads):
            errors.extend(check(record, where))
    return _BAD if any(v is _BAD for v in values.values()) else record


def problems(obj) -> list[str]:
    """Every schema problem of a config built in code: a ScenarioConfig or one
    of the records it holds. Anything else, such as the JSON a config is
    parsed from, raises TypeError."""
    if not isinstance(obj, Record):
        raise TypeError(f"expected a ScenarioConfig or one of its records, "
                        f"not {type(obj).__name__}")
    errors: list[str] = []
    where = "" if isinstance(obj, ScenarioConfig) else type(obj).__name__
    _section(type(obj), obj, where, errors)
    return errors


def parse_scenario(data) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed JSON, raising ScenarioError with the
    complete list of schema and semantic problems."""
    errors: list[str] = []
    cfg = _section(ScenarioConfig, data, "", errors)
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

SUITE_DIR = os.path.join(os.path.dirname(__file__), "scenarios")


def canned_scenario_names() -> list[str]:
    return sorted(f.removesuffix(".json") for f in os.listdir(SUITE_DIR) if f.endswith(".json"))


def load_canned(name: str) -> ScenarioConfig:
    if name not in (names := canned_scenario_names()):
        raise ScenarioError([f"no canned scenario {name!r}; known: {', '.join(names)}"])
    return load_scenario(os.path.join(SUITE_DIR, f"{name}.json"))
