"""Energy-aware velocity planning and simulation for a solar surface vessel.

The package closes the loop between a battery/drag energy model, tightened
state-of-charge barriers, a learned switching controller and benchmark
strategies, all driven by a fixed-step mission harness with CSV exports and a
CLI (``solarasv run|compare|barriers``).

The names below are the mission-level API; the lower-level pieces (solar
profiles, barrier envelopes, control laws, the planner) are imported from
their submodules.
"""

from .benchmark import MpcConfig
from .config import ConfigError, SimConfig, load_compare_configs, load_sim_config
from .controller import IlcSettings
from .harness import (
    SimResult,
    compare_strategies,
    export_comparison,
    export_traces,
    run_mission,
)
from .solar import FileSource, IdealizedSource
from .vessel import VesselParams

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "FileSource",
    "IdealizedSource",
    "IlcSettings",
    "MpcConfig",
    "SimConfig",
    "SimResult",
    "VesselParams",
    "compare_strategies",
    "export_comparison",
    "export_traces",
    "load_compare_configs",
    "load_sim_config",
    "run_mission",
]
