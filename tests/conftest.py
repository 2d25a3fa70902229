"""Tier-1's one hypothesis profile: deterministic example generation, no
example database on disk and no per-example deadline, so the suite stays
reproducible run to run and a slow shared host fails no property. Each
property test states only its max_examples, and the loss-detection property
its phases too, to skip shrinking.

The runs fixture runs each canned scenario at most once per session and
hands every test that asks for it the same (cfg, log); tests only read
them.

write_rows writes a hand-built log as the engine writes a run's, and
first_difference names the first place two logs differ; tests import both
from here."""

from itertools import zip_longest

import pytest
from hypothesis import settings

from mptunnel.engine import Simulation
from mptunnel.metrics import DISPOSITION_CODES, STREAMS, Totals
from mptunnel.scenario import load_canned

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def runs():
    cache = {}

    def get(name):
        if name not in cache:
            cfg = load_canned(name)
            cache[name] = (cfg, Simulation(cfg).run())
        return cache[name]

    return get


def write_rows(stream, rows) -> None:
    """Write rows onto a metrics.Stream as the engine does: each packed onto
    its tail, a disposition as its DISPOSITION_CODES code."""
    codes = [DISPOSITION_CODES if kind == "c" else None for kind in stream.kinds]
    for row in rows:
        stream.tail += stream.struct.pack(
            *[v if code is None else code[v] for code, v in zip(codes, row, strict=True)])


def first_difference(log_a, log_b):
    """The first place two run logs differ: (stream, row index, row of a, row
    of b) for the first differing row, streams taken in STREAMS order and a
    row past a stream's end read as None; else (total, None, value of a,
    value of b) for the first differing Totals field; None if they agree."""
    for name in STREAMS:
        for i, (a, b) in enumerate(zip_longest(getattr(log_a, name), getattr(log_b, name))):
            if a != b:
                return name, i, a, b
    for name in Totals._fields:
        if getattr(log_a, name) != getattr(log_b, name):
            return name, None, getattr(log_a, name), getattr(log_b, name)
    return None
