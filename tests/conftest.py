"""Tier-1's one hypothesis profile: deterministic example generation, no
example database on disk and no per-example deadline, so the suite stays
reproducible run to run and a slow shared host fails no property. Each
property test states only its max_examples."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
