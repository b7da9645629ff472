"""Invariant auditing and the MMS convergence harness."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bulk import (
    HISTORY_DEPTH,
    STEP_CG_TOL,
    BalanceTerms,
    FieldState,
    assemble_s_system,
    cg_solve,
    history_start,
)
from .grid import Grid2D
from .model import ConstraintMode, PhysParams, check_dt, permeability
from .pool import map_jobs

S_TOL = 1e-10
C_TOL = 1e-12
R_TOL = 1e-12
BALANCE_REL_TOL = 1e-8
MMS_MIN_LEVELS = 3  # the fewest levels that give two observed orders


@dataclass(frozen=True)
class AuditEntry:
    step: int
    t: float
    s_min: float
    s_max: float
    c_min: float
    c_max: float
    r_min: float
    r_max: float
    xi_max_abs: float
    balance_residual: float
    balance_scale: float
    flags: tuple[str, ...]


@dataclass
class InvariantReport:
    """Append-only record of per-step bounds and balance residuals."""

    entries: list[AuditEntry] = field(default_factory=list)

    def append(self, entry: AuditEntry) -> None:
        self.entries.append(entry)

    @property
    def flagged(self) -> list[AuditEntry]:
        return [e for e in self.entries if e.flags]

    def summary(self) -> dict[str, str]:
        if not self.entries:
            return {"steps": "0", "flags": "0"}
        floor = sys.float_info.min  # a subnormal scale is floored, as audit_step floors it
        worst_balance = max(
            (e.balance_residual / max(e.balance_scale, floor) if e.balance_scale > 0 else 0.0)
            for e in self.entries
        )
        return {
            "steps": str(len(self.entries)),
            "flags": str(sum(len(e.flags) for e in self.entries)),
            "s_min": f"{min(e.s_min for e in self.entries):.3e}",
            "s_max": f"{max(e.s_max for e in self.entries):.3e}",
            "c_min": f"{min(e.c_min for e in self.entries):.3e}",
            "max_rel_balance_residual": f"{worst_balance:.3e}",
        }


def audit_step(
    state: FieldState,
    p: PhysParams,
    terms: BalanceTerms,
    step_index: int = 0,
) -> AuditEntry:
    """Check one accepted step against the model's provable bounds.

    Flags: s below -1e-10, s above S0+1e-10 (only when the ceiling
    hypotheses hold), c outside [0, C0] beyond 1e-12, r outside [0, R0]
    beyond 1e-12 in box mode, and a discrete balance residual above 1e-8
    relative to its largest constituent term, or to the smallest normal
    float if that term is subnormal.  Reporting only; the state is never
    mutated.
    """
    flags = []
    s_min = float(state.s.min())
    s_max = float(state.s.max())
    c_min = float(state.c.min())
    c_max = float(state.c.max())
    r_min = float(state.r.min())
    r_max = float(state.r.max())
    xi_max = float(np.abs(state.xi).max())

    if s_min < -S_TOL:
        flags.append(f"s_min={s_min:.3e} below -{S_TOL} at node {int(state.s.argmin())}")
    if p.ceiling_guaranteed() and s_max > p.S0 + S_TOL:
        flags.append(f"s_max={s_max:.3e} above S0+{S_TOL} at node {int(state.s.argmax())}")
    if c_min < -C_TOL or c_max > p.C0 + C_TOL:
        node = int(state.c.argmin() if c_min < -C_TOL else state.c.argmax())
        flags.append(f"c range [{c_min:.3e}, {c_max:.3e}] outside [0, C0] at node {node}")
    if r_min < -R_TOL:
        flags.append(f"r_min={r_min:.3e} below 0 at trace node {int(state.r.argmin())}")
    if p.constraint_mode is ConstraintMode.BOX and r_max > p.R0 + R_TOL:
        flags.append(f"r_max={r_max:.3e} above R0 at trace node {int(state.r.argmax())}")

    residual = abs(terms.accumulation + terms.reaction - terms.boundary_exchange)
    scale = max(abs(terms.accumulation), abs(terms.reaction), abs(terms.boundary_exchange))
    if scale > 0 and residual > BALANCE_REL_TOL * max(scale, sys.float_info.min):
        flags.append(f"balance residual {residual:.3e} above {BALANCE_REL_TOL}*{scale:.3e}")

    return AuditEntry(
        step=step_index,
        t=state.t,
        s_min=s_min,
        s_max=s_max,
        c_min=c_min,
        c_max=c_max,
        r_min=r_min,
        r_max=r_max,
        xi_max_abs=xi_max,
        balance_residual=residual,
        balance_scale=scale,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Method of manufactured solutions
# ---------------------------------------------------------------------------


class NodeFactors(NamedTuple):
    """Per-node coefficients of the nodal fields in powers of E = exp(-t).

    s* = E*s1, c* = 0.5*C0 + E*c1 and f = E*f1 + E^2*f2 + E^3*f3 (see
    ManufacturedFields.node_factors).
    """

    s1: np.ndarray
    c1: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray


@dataclass(frozen=True)
class ManufacturedFields:
    """Closed-form fields driving the verification of the implicit s-solve.

    With E = exp(-t) the fields are

        s* = E cos(pi x1) cos(pi x2),
        c* = C0 (0.5 + 0.25 E cos(pi x1)),
        r* = rl (0.5 + 0.25 sin(pi x2)) (1 - E) on the left edge.

    c and r are prescribed (their integrators have exact oracles of their
    own), a volumetric source makes s_exact solve the discrete equation's
    continuous counterpart, and a boundary flux added to the exposed
    edge's exchange law -nu(r)(s - sbar) makes s_exact satisfy it, so the
    exchange is exercised with nu(r) of the prescribed r.

    Each field is a function of t and of per-point factors: node_factors
    for the bulk fields, edge_factors for those on the left edge.  Every
    nodal field is a polynomial in E of degree at most 3, so node_factors
    returns its coefficients, and s_exact, c_field and source evaluate
    that polynomial at one E in a few array passes.  A caller that
    evaluates a field at many times computes the factors once.
    """

    p: PhysParams

    def node_factors(self, x1, x2) -> NodeFactors:
        """The coefficients of s*, c* and the forcing f in powers of E, at (x1, x2).

        With S1 = cos(pi x1) cos(pi x2), s* = E S1 and
        c* = 0.5 C0 + E c1, c1 = 0.25 C0 cos(pi x1).  Then
        phi(c*) = a0 + E a1 with a0 = A + 0.5 B C0 and a1 = B c1, and
        expanding each term of source's closed form in E gives, with
        kappa = 2 pi^2 - 1,

            f1 = S1 a0 (kappa + 0.5 lam C0),
            f2 = S1 ((kappa - 1) a1 + lam (a0 c1 + 0.5 C0 a1))
                 - 0.25 B C0 pi^2 sin^2(pi x1) cos(pi x2),
            f3 = lam S1 a1 c1.

        x1 and x2 broadcast against each other; scalars give scalars.
        """
        p = self.p
        cos1, cos2 = np.cos(np.pi * x1), np.cos(np.pi * x2)
        s1 = cos1 * cos2
        c1 = 0.25 * p.C0 * cos1
        a0 = p.A + 0.5 * p.B * p.C0
        a1 = p.B * c1
        kappa = 2.0 * np.pi**2 - 1.0
        cross = 0.25 * p.B * p.C0 * np.pi**2 * np.sin(np.pi * x1) ** 2 * cos2
        return NodeFactors(
            s1=s1,
            c1=c1,
            f1=(a0 * (kappa + 0.5 * p.lam * p.C0)) * s1,
            f2=s1 * ((kappa - 1.0) * a1 + p.lam * (a0 * c1 + 0.5 * p.C0 * a1)) - cross,
            f3=p.lam * s1 * a1 * c1,
        )

    def edge_factors(self, x2):
        """cos(pi x2) and rl*(0.5 + 0.25 sin(pi x2)) at the left-edge nodes x2."""
        return np.cos(np.pi * x2), self.p.rl * (0.5 + 0.25 * np.sin(np.pi * x2))

    def s_exact(self, nodes, t):
        return math.exp(-t) * nodes.s1

    def c_field(self, nodes, t):
        c = math.exp(-t) * nodes.c1
        c += 0.5 * self.p.C0
        return c

    def r_field(self, edge, t):
        return edge[1] * (1.0 - math.exp(-t))

    def source(self, nodes, t):
        """Forcing f = dt(phi*s) - div(phi*grad s) + lam*phi*c*s for s_exact.

        In closed form, with phi = A + B c*, dt(phi s*) = B dt(c*) s* - phi s*,
        lap(s*) = -2 pi^2 s* and
        grad(phi).grad(s*) = 0.25 B C0 pi^2 E^2 sin^2(pi x1) cos(pi x2), so

            f = B dt(c*) s* + (2 pi^2 - 1) phi s* - grad(phi).grad(s*)
                + lam phi c* s*.

        Each term is E, E^2 or E^3 times a fixed per-node factor, so f is
        evaluated as E (f1 + E (f2 + E f3)) from node_factors' coefficients
        (Horner's rule): five array passes, one of them allocating f.
        """
        e = math.exp(-t)
        f = e * nodes.f3
        f += nodes.f2
        f *= e
        f += nodes.f1
        f *= e
        return f

    def boundary_flux(self, edge, r, t):
        """Flux g on the left edge under which s_exact satisfies the exchange law.

        r is the rugosity r* = r_field(edge, t) the step's assembly reads.
        s_exact has zero normal derivative on every edge, so
        0 = -nu(r*)(s_exact|edge - sbar) + g requires
        g = nu(r*)(s_exact|edge - sbar).
        """
        s_edge = math.exp(-t) * edge[0]  # cos(pi*0) = 1
        return permeability(r, self.p) * (s_edge - self.p.sbar)


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    h_or_dt: float
    err_l2: float
    err_max: float
    order_l2: float | None
    order_max: float | None


@dataclass
class ConvergenceTable:
    study: str
    rows: list[ConvergenceRow]

    CSV_HEADER = "level,h_or_dt,err_L2,err_max,order_L2,order_max"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            o2 = "" if r.order_l2 is None else f"{r.order_l2:.17g}"
            om = "" if r.order_max is None else f"{r.order_max:.17g}"
            lines.append(
                f"{r.level},{r.h_or_dt:.17g},{r.err_l2:.17g},{r.err_max:.17g},{o2},{om}"
            )
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        out = [f"{self.study} convergence study"]
        out.append(f"{'level':>5} {'h_or_dt':>12} {'err_L2':>12} {'err_max':>12} {'ord_L2':>7} {'ord_max':>7}")
        for r in self.rows:
            o2 = "  --- " if r.order_l2 is None else f"{r.order_l2:7.3f}"
            om = "  --- " if r.order_max is None else f"{r.order_max:7.3f}"
            out.append(
                f"{r.level:>5} {r.h_or_dt:12.5e} {r.err_l2:12.5e} {r.err_max:12.5e} {o2} {om}"
            )
        return "\n".join(out)


def _mms_solution(
    mf: ManufacturedFields,
    n: int,
    dt: float,
    t_end: float,
) -> np.ndarray:
    """Integrate the forced s-equation on an n x n grid; return s at t_end.

    c and r are prescribed.  The fields' per-point factors are computed
    once: node_factors' coefficients in E = exp(-t), from which each step
    evaluates c* and the forcing at its E, and edge_factors.  Each step's
    r* both sets nu(r*) in the assembly and is passed to boundary_flux.
    Each step's CG stops at STEP_CG_TOL, as in step(), and starts from the
    polynomial extrapolation of the last HISTORY_DEPTH solutions, or of
    all of them before as many exist (see bulk.history_start): step 1 from
    s^0, step 2 from 2*s^1 - s^0, and so on.
    """
    check_dt(dt)
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and >= 0 (t_end={t_end})")
    grid = Grid2D(n, n)
    trace = grid.exposed_trace()
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-12 * max(1.0, t_end):
        raise ValueError(f"dt={dt} does not divide t_end={t_end}")

    nodes = mf.node_factors(grid.x1(), grid.x2())
    edge = mf.edge_factors(trace.coords)
    s = mf.s_exact(nodes, 0.0)
    c_old = mf.c_field(nodes, 0.0)
    unread = np.zeros(len(trace))  # the old state's r and xi: the assembly reads neither
    s_hist = (s,)  # the last solutions, newest first
    for k in range(1, n_steps + 1):
        t = k * dt
        c_new = mf.c_field(nodes, t)
        r_new = mf.r_field(edge, t)
        sys = assemble_s_system(
            grid,
            FieldState(t=t - dt, s=s, c=c_old, r=unread, xi=unread),
            c_new,
            r_new=r_new,
            dt=dt,
            p=mf.p,
            source=mf.source(nodes, t),
            boundary_flux=mf.boundary_flux(edge, r_new, t),
        )
        s, _, _ = cg_solve(sys, x0=history_start(s_hist), rel_tol=STEP_CG_TOL)
        s_hist = (s,) + s_hist[: HISTORY_DEPTH - 1]
        c_old = c_new
    return s


def _error_norms(grid: Grid2D, err: np.ndarray) -> tuple[float, float]:
    """The discrete L2 norm (dual-cell volumes) and the max norm of err on grid."""
    vols = grid.node_volumes()
    return float(np.sqrt(np.sum(vols * err**2))), float(np.abs(err).max())


def _mms_job(job: tuple[ManufacturedFields, int, float]) -> np.ndarray:
    """s at MMS_T_END on the n x n grid, for one (fields, n, dt) job."""
    mf, n, dt = job
    return _mms_solution(mf, n, dt, MMS_T_END)


def _extrapolate_in_time(s_dt: np.ndarray, s_half: np.ndarray, s_quarter: np.ndarray) -> np.ndarray:
    """(8*s(dt/4) - 6*s(dt/2) + s(dt))/3: cancels the dt and dt^2 terms of the time error."""
    out = 8.0 * s_quarter
    out -= 6.0 * s_half
    out += s_dt
    out /= 3.0
    return out


# The spatial study's base step.  Each grid is also solved at dt/2 and dt/4,
# and _extrapolate_in_time leaves a time error below 5e-9 (max norm, against
# the same combination from dt = 6.25e-4) at 17^2 to 129^2, far below the
# h^2 error even at 129^2 (2e-5), in 20 + 40 + 80 steps.
SPATIAL_DT = 5e-3
TEMPORAL_GRID = 129
TEMPORAL_DT0 = 0.05
MMS_T_END = 0.1


def mms_convergence(
    study: str,
    levels: int,
    p: PhysParams | None = None,
) -> ConvergenceTable:
    """Run the spatial or temporal convergence study at t = 0.1.

    Spatial: grids 17^2 -> 33^2 -> 65^2 -> 129^2 (then further refined by
    nesting), each solved at dt = SPATIAL_DT = 5e-3, dt/2 and dt/4 (140
    steps).  A level's errors are those of
    (8*s(dt/4) - 6*s(dt/2) + s(dt))/3 against the manufactured solution.
    Backward Euler's global error expands in powers of dt, and this
    two-stage Richardson extrapolation cancels its dt and dt^2 terms, so
    the h^2 error shows without a tiny dt.  The extrapolated field is only
    an error measure; it solves no scheme and keeps none of its bounds
    (s >= 0, s <= S0).

    Temporal: grid fixed at 129^2, dt halved per level starting from 0.05,
    with one solution more than levels.  Level k's errors are the norms of
    s(dt_k) - s(dt_(k+1)), the difference of successive solutions on the
    one grid, in which the spatial error cancels exactly; the orders are
    the observed orders of those differences.

    Each solution runs as one job, in up to SULPHSIM_THREADS worker
    processes (see pool.map_jobs); the table does not depend on how many.
    """
    if levels < MMS_MIN_LEVELS:
        raise ValueError(f"convergence study needs at least {MMS_MIN_LEVELS} levels")
    if study == "spatial":
        sizes = [16 * 2**k + 1 for k in range(levels)]  # 17, 33, 65, ...
        plan = [(n, (SPATIAL_DT, SPATIAL_DT / 2, SPATIAL_DT / 4)) for n in sizes]
    elif study == "temporal":
        dts = [TEMPORAL_DT0 / 2**k for k in range(levels + 1)]
        plan = [(TEMPORAL_GRID, tuple(dts))]
    else:
        raise ValueError(f"unknown study {study!r}")
    mf = ManufacturedFields(p if p is not None else PhysParams())
    # One job per solution, the most nodes x steps first, so that the last
    # to start are the cheapest.
    jobs = [(n, dt) for n, dts in plan for dt in dts]
    jobs.sort(key=lambda job: job[0] ** 2 / job[1], reverse=True)
    done = map_jobs(_mms_job, [(mf, n, dt) for n, dt in jobs])
    solution = dict(zip(jobs, done))
    solved = [[solution[n, dt] for dt in dts] for n, dts in plan]

    if study == "spatial":
        h_or_dt = [1.0 / (n - 1) for n in sizes]
        errors = []
        for n, solutions in zip(sizes, solved):
            grid = Grid2D(n, n)
            err = _extrapolate_in_time(*solutions)
            err -= mf.s_exact(mf.node_factors(grid.x1(), grid.x2()), MMS_T_END)
            errors.append(_error_norms(grid, err))
    else:
        (s,) = solved
        h_or_dt = dts[:-1]
        grid = Grid2D(TEMPORAL_GRID, TEMPORAL_GRID)
        errors = [_error_norms(grid, a - b) for a, b in zip(s, s[1:])]

    rows: list[ConvergenceRow] = []
    for lvl, (h, (e2, em)) in enumerate(zip(h_or_dt, errors)):
        order_l2 = order_max = None
        if rows:
            prev = rows[-1]
            log_ratio = math.log(prev.h_or_dt / h)
            order_l2 = math.log(prev.err_l2 / e2) / log_ratio
            order_max = math.log(prev.err_max / em) / log_ratio
        rows.append(ConvergenceRow(lvl, h, e2, em, order_l2, order_max))
    return ConvergenceTable(study=study, rows=rows)
