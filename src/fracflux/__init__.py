"""Conserved control-volume solver for 1-D diffusion with interchangeable
local and one-sided fractional flux laws."""

__version__ = "0.1.0"

from .diagnostics import max_principle_check, steady_state_time
from .flux import FluxKind, apparent_advection, face_fluxes
from .scenarios import SCENARIO_NAMES, build_initial, make_scenario
from .solver import (
    BoundaryCondition,
    ConfigurationError,
    InstabilityError,
    RunResult,
    SimConfig,
    boundary_condition,
    run,
)
from .weights import build_table

# The names the README's library example and the command line use.
__all__ = [
    "BoundaryCondition",
    "ConfigurationError",
    "FluxKind",
    "InstabilityError",
    "RunResult",
    "SCENARIO_NAMES",
    "SimConfig",
    "apparent_advection",
    "boundary_condition",
    "build_initial",
    "build_table",
    "face_fluxes",
    "make_scenario",
    "max_principle_check",
    "run",
    "steady_state_time",
]
