"""Deterministic 2D marble-sulphation simulator with surface rugosity."""

__version__ = "0.1.0"

from .bulk import FieldState, LinearSystem, assemble_s_system, c_update_exact, cg_solve, step
from .config import ConfigError, RunConfig, parse_config
from .grid import BoundaryTrace, Edge, EdgeTag, Grid2D, ProfileLine, build_grid, extract_profile
from .model import (
    ConstraintMode,
    NuLaw,
    PhysParams,
    permeability,
    porosity,
    project_box,
    rugosity_reaction,
)
from .runner import RunResult, initial_state, run, sweep
from .surface import RugosityInit, RugosityInitMode, init_rugosity, step_r, weibull_sample

__all__ = [
    "__version__",
    "BoundaryTrace",
    "ConfigError",
    "ConstraintMode",
    "Edge",
    "EdgeTag",
    "FieldState",
    "Grid2D",
    "LinearSystem",
    "NuLaw",
    "PhysParams",
    "ProfileLine",
    "RugosityInit",
    "RugosityInitMode",
    "RunConfig",
    "RunResult",
    "assemble_s_system",
    "build_grid",
    "c_update_exact",
    "cg_solve",
    "extract_profile",
    "init_rugosity",
    "initial_state",
    "parse_config",
    "permeability",
    "porosity",
    "project_box",
    "rugosity_reaction",
    "run",
    "step",
    "step_r",
    "sweep",
    "weibull_sample",
]
