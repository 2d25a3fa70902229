"""Tier-1's one hypothesis profile: deterministic example generation, no
example database on disk and no per-example deadline, so the suite stays
reproducible run to run and a slow shared host fails no property. Each
property test states only its max_examples, and the loss-detection property
its phases too, to skip shrinking.

The runs fixture runs each canned scenario at most once per session and
hands every test that asks for it the same (cfg, log); tests only read
them."""

import pytest
from hypothesis import settings

from mptunnel.engine import Simulation
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
