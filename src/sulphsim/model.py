"""Physical parameters and constitutive laws of the sulphation model.

Everything here is a pure function of its arguments: the porosity law
phi(c) = A + B*c, the rugosity-dependent boundary permeability nu(r), the
rugosity reaction term G(r, c, s), and the box projection that realizes the
constraint r in [0, R0].
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cache

import numpy as np

C_RANGE_TOL = 1e-12


class NuLaw(str, Enum):
    LINEAR = "linear"
    PARABOLIC = "parabolic"


class ConstraintMode(str, Enum):
    FREE = "free"
    BOX = "box"


@cache
def enum_fields(cls) -> tuple[tuple[str, type[Enum]], ...]:
    """(name, enum class) of every dataclass field whose default is an enum member."""
    return tuple(
        (f.name, type(f.default)) for f in fields(cls) if isinstance(f.default, Enum)
    )


def coerce_enums(obj) -> None:
    """Turn enum fields given by their string value into members, in place.

    This is the one place enum values are parsed, so a config built in
    Python with nu_law="parabolic" runs the parabolic law just as a parsed
    one does.  A string that names no member is kept as given, for
    validation to report with its key.
    """
    for name, enum in enum_fields(type(obj)):
        value = getattr(obj, name)
        if not isinstance(value, enum):
            try:
                object.__setattr__(obj, name, enum(value))
            except ValueError:
                pass


def choice_error(key: str, choices, value) -> str:
    """The one message for a key whose value is not among its choices."""
    return f"key {key!r}: expected one of {', '.join(choices)}, got {value!r}"


def enum_violations(obj) -> list[str]:
    """One choice_error per enum field of obj whose value names no member.

    Each validate() calls this, so a word coerce_enums could not parse is
    reported, by field name, instead of running a fallback.
    """
    return [
        choice_error(name, [m.value for m in enum], getattr(obj, name))
        for name, enum in enum_fields(type(obj))
        if not isinstance(getattr(obj, name), enum)
    ]


@dataclass(frozen=True)
class PhysParams:
    """All physical and constitutive constants of one simulation.

    Defaults follow the reference setup: reaction rate lam=100, rugosity
    rate g=30, unit ceilings C0=S0=1, ambient concentration sbar=1, and a
    permeability law rising from nu0=0.1 at a flat surface to nul=1 at
    rugosity rl=1.  A=0.1, B=-0.05 satisfy both the positivity assumption
    on the porosity (A > 0, A + B*C0 > 0) and the global ceiling
    assumption (B <= 1/S0, sbar <= S0), so the maximum principle
    0 <= s <= S0 is guaranteed and is enforced as a hard invariant.
    """

    A: float = 0.1
    B: float = -0.05
    lam: float = 100.0          # reaction rate ("lambda" is a Python keyword)
    C0: float = 1.0
    S0: float = 1.0
    sbar: float = 1.0
    g: float = 30.0
    R0: float = 4.0
    nu_law: NuLaw = NuLaw.LINEAR
    nu0: float = 0.1
    nul: float = 1.0
    rl: float = 1.0
    weibull_m: float = 10.0
    weibull_r0: float = 0.2
    constraint_mode: ConstraintMode = ConstraintMode.FREE

    __post_init__ = coerce_enums

    def validate(self, enforce_global_bound: bool = True) -> list[str]:
        """Return a list of violated assumptions (empty when valid)."""
        v = enum_violations(self)
        if not (self.A > 0 and self.A + self.B * self.C0 > 0):
            v.append(
                f"(A1): requires A > 0 and A + B*C0 > 0 "
                f"(A={self.A}, A+B*C0={self.A + self.B * self.C0})"
            )
        if enforce_global_bound and self.S0 > 0 and self.B > 1.0 / self.S0:
            v.append(f"(A9): requires B <= 1/S0 (B={self.B}, 1/S0={1.0 / self.S0})")
        if not 0.0 <= self.sbar <= self.S0:
            v.append(f"(A9): requires 0 <= sbar <= S0 (sbar={self.sbar}, S0={self.S0})")
        if self.nu0 < 0 or self.nul < 0:
            v.append(f"nu0 and nul must be >= 0 (nu0={self.nu0}, nul={self.nul})")
        if self.rl <= 0:
            v.append(f"rl must be > 0 (rl={self.rl})")
        if self.g < 0:
            v.append(f"g must be >= 0 (g={self.g})")
        if self.lam <= 0:
            v.append(f"lam must be > 0 (lam={self.lam})")
        if self.C0 <= 0:
            v.append(f"C0 must be > 0 (C0={self.C0})")
        if self.S0 <= 0:
            v.append(f"S0 must be > 0 (S0={self.S0})")
        if self.weibull_m <= 0:
            v.append(f"weibull_m must be > 0 (weibull_m={self.weibull_m})")
        if self.weibull_r0 < 0:
            v.append(f"weibull_r0 must be >= 0 (weibull_r0={self.weibull_r0})")
        if self.R0 <= 0:
            v.append(f"R0 must be > 0 (R0={self.R0})")
        return v

    def ceiling_guaranteed(self) -> bool:
        """True when the hypotheses of the s <= S0 bound hold."""
        return self.B <= 1.0 / self.S0 + 1e-15 and self.sbar <= self.S0 + 1e-15


def porosity(c, p: PhysParams):
    """Affine porosity A + B*c.

    Rejects c outside [0, C0] beyond 1e-12; an out-of-range value signals a
    bound violation in the caller, not a recoverable condition.
    """
    c = np.asarray(c, dtype=float)
    lo, hi = -C_RANGE_TOL, p.C0 + C_RANGE_TOL
    # min/max decide a clean array in two passes.  They propagate NaN, so
    # an array holding one goes on to the elementwise test, under which a
    # NaN entry passes (and yields a NaN porosity) but any other entry out
    # of range still fails.
    if c.size and not (c.min() >= lo and c.max() <= hi) and (np.any(c < lo) or np.any(c > hi)):
        raise ValueError(
            f"calcite density outside [0, C0={p.C0}] beyond {C_RANGE_TOL} "
            f"(range [{float(c.min())}, {float(c.max())}])"
        )
    return p.A + p.B * c


def permeability(r, p: PhysParams):
    """Boundary exchange coefficient nu(r), linear or parabolic in r.

    Both laws pass through (0, nu0) and (rl, nul).  Beyond rl the formula
    is extrapolated as written; the rugosity cap R0 is enforced elsewhere.
    """
    r = np.asarray(r, dtype=float)
    if p.nu_law is NuLaw.LINEAR:
        return p.nu0 + (p.nul - p.nu0) * r / p.rl
    if p.nu_law is NuLaw.PARABOLIC:
        return p.nu0 + (p.nul - p.nu0) * r * r / (p.rl * p.rl)
    raise ValueError(f"unknown nu_law {p.nu_law!r}")


def rugosity_reaction(r, c, s, p: PhysParams):
    """Reaction term G(r, c, s) = -phi(c)*c*s*(1 + r/(1+r))*g.

    Nonpositive for nonnegative arguments, and vanishing whenever c or s
    does, so rugosity never decreases under the reduced surface equation.
    """
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    phi = p.A + p.B * c
    return -phi * c * s * (1.0 + r / (1.0 + r)) * p.g


def project_box(r_trial, dt: float, p: PhysParams):
    """Clamp a trial rugosity into [0, R0] and return the multiplier.

    xi = (r_trial - r)/dt restores the pointwise identity
    (r_new - r_old)/dt + xi + G = F of the constrained update; xi is zero
    exactly when the trial value is feasible.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0 (dt={dt})")
    r_trial = np.asarray(r_trial, dtype=float)
    r = np.clip(r_trial, 0.0, p.R0)
    xi = (r_trial - r) / dt
    return r, xi
