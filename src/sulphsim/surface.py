"""Rugosity evolution on the exposed boundary and initial-profile generation.

The surface equation dt(r) + xi + G(r, c, s) = 0 is a nodewise ODE (the
paper's potential Psi and forcing F vanish in its experiments and are not
modelled); it advances by explicit Euler followed, in box mode, by
projection onto [0, R0] with multiplier xi.  Initial profiles are constant,
piecewise constant in the free boundary coordinate, or Weibull-distributed
draws from the run's deterministic generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import BoundaryTrace
from .model import (
    ConstraintMode,
    PhysParams,
    check_dt,
    coerce_enums,
    enum_violations,
    project_box,
    rugosity_reaction,
)
from .rng import Xoshiro256pp


class RugosityInitMode(str, Enum):
    CONSTANT = "constant"
    PIECEWISE = "piecewise"
    WEIBULL = "weibull"


@dataclass(frozen=True)
class RugosityInit:
    """Initial-rugosity recipe.

    Piecewise assigns lo_factor*r0 below split_x2 and hi_factor*r0 at and
    above it (reference values 0.5, 2.0, 0.5).  Weibull draws one sample
    per trace node, in trace order, from the run generator; its scale and
    shape are the weibull_r0 / weibull_m physical parameters, not the r0
    base of the deterministic modes.
    """

    mode: RugosityInitMode = RugosityInitMode.PIECEWISE
    r0: float = 0.2
    value: float = 0.2
    lo_factor: float = 0.5
    hi_factor: float = 2.0
    split_x2: float = 0.5

    __post_init__ = coerce_enums

    def validate(self) -> list[str]:
        """Every violated rule: a mode that names no member, then the ranges."""
        return enum_violations(self) + self.range_violations()

    def range_violations(self) -> list[str]:
        """The numeric rules alone; validate_config reports r_init_mode by its key."""
        v = []
        if self.lo_factor < 0 or self.hi_factor < 0:
            v.append("rugosity factors must be >= 0")
        if not 0.0 < self.split_x2 < 1.0:
            v.append(f"split_x2 must be in (0,1) (got {self.split_x2})")
        if self.r0 < 0:
            v.append(f"r0 must be >= 0 (got {self.r0})")
        if self.value < 0:
            v.append(f"constant rugosity must be >= 0 (got {self.value})")
        return v


def weibull_sample(u: float, r0: float, m: float) -> float:
    """Inverse-transform Weibull draw r0 * (ln(1/(1-u)))**(1/m).

    Strictly increasing in u; the inner log is computed with log1p so the
    u -> 0 limit is accurate.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must be in (0,1) (got {u})")
    if r0 < 0:
        raise ValueError(f"r0 must be >= 0 (got {r0})")
    if m <= 0:
        raise ValueError(f"m must be > 0 (got {m})")
    return r0 * (-np.log1p(-u)) ** (1.0 / m)


def init_rugosity(
    trace: BoundaryTrace,
    init: RugosityInit,
    rng: Xoshiro256pp,
    p: PhysParams,
) -> np.ndarray:
    """Initial rugosity on the exposed trace; clamped into [0, R0] in box mode."""
    problems = init.validate()
    if problems:
        raise ValueError("; ".join(problems))

    if init.mode is RugosityInitMode.CONSTANT:
        r = np.full(len(trace), float(init.value))
    elif init.mode is RugosityInitMode.PIECEWISE:
        lo = init.lo_factor * init.r0
        hi = init.hi_factor * init.r0
        r = np.where(trace.coords < init.split_x2, lo, hi)
    else:
        r = np.array(
            [
                weibull_sample(rng.uniform(), p.weibull_r0, p.weibull_m)
                for _ in range(len(trace))
            ]
        )
    if p.constraint_mode is ConstraintMode.BOX:
        r = np.clip(r, 0.0, p.R0)
    return r


def step_r(
    r_n: np.ndarray,
    c_trace: np.ndarray,
    s_trace: np.ndarray,
    dt: float,
    p: PhysParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One explicit Euler step of the rugosity equation, projected in box mode.

    The trial value is r* = r_n - dt*G(r_n, c, s); in free mode xi is
    identically zero and (r_new - r_n)/dt + G = 0 holds to roundoff by
    construction.
    """
    check_dt(dt)
    r_n = np.asarray(r_n, dtype=float)
    if np.any(r_n < 0):
        raise ValueError("step_r requires r_n >= 0 nodewise")
    g_term = rugosity_reaction(r_n, c_trace, s_trace, p)
    # 0.0 + G turns a -0.0 reaction into +0.0, so r_n = -0.0 gives +0.0
    r_trial = r_n - dt * (0.0 + g_term)
    if p.constraint_mode is ConstraintMode.BOX:
        return project_box(r_trial, dt, p)
    return r_trial, np.zeros_like(r_trial)
