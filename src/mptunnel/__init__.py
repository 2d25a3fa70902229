"""Deterministic discrete-event simulator for multipath tunneling: per-path
window-based tunnel flows, pluggable packet schedulers and receiver-side
reordering or delay equalization."""

from .engine import Simulation
from .scenario import (ScenarioConfig, ScenarioError, canned_scenario_names,
                       load_canned, load_scenario)

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "Simulation",
    "canned_scenario_names",
    "load_canned",
    "load_scenario",
    "__version__",
]
