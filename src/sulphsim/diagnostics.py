"""Invariant auditing and the MMS convergence harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bulk import BalanceTerms, FieldState, RobinData, assemble_s_rows, cg_solve
from .grid import Edge, EdgeTag, Grid2D, build_grid
from .model import ConstraintMode, PhysParams, permeability
from .pool import map_jobs

S_TOL = 1e-10
C_TOL = 1e-12
R_TOL = 1e-12
BALANCE_REL_TOL = 1e-8


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
        worst_balance = max(
            (e.balance_residual / e.balance_scale if e.balance_scale > 0 else 0.0)
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
    grid: Grid2D,
    step_index: int = 0,
) -> AuditEntry:
    """Check one accepted step against the model's provable bounds.

    Flags: s below -1e-10, s above S0+1e-10 (only when the ceiling
    hypotheses hold), c outside [0, C0] beyond 1e-12, r outside [0, R0]
    beyond 1e-12 in box mode, and a discrete balance residual above 1e-8
    relative to its largest constituent term.  Reporting only; the state is
    never mutated.
    """
    flags = []
    s_min = float(state.s.min())
    s_max = float(state.s.max())
    c_min = float(state.c.min())
    c_max = float(state.c.max())
    if len(state.r):
        r_min = float(state.r.min())
        r_max = float(state.r.max())
        xi_max = float(np.abs(state.xi).max())
    else:
        r_min = r_max = xi_max = 0.0

    if s_min < -S_TOL:
        flags.append(f"s_min={s_min:.3e} below -{S_TOL} at node {int(state.s.argmin())}")
    if p.ceiling_guaranteed() and s_max > p.S0 + S_TOL:
        flags.append(f"s_max={s_max:.3e} above S0+{S_TOL} at node {int(state.s.argmax())}")
    if c_min < -C_TOL or c_max > p.C0 + C_TOL:
        node = int(state.c.argmin() if c_min < -C_TOL else state.c.argmax())
        flags.append(f"c range [{c_min:.3e}, {c_max:.3e}] outside [0, C0] at node {node}")
    if len(state.r) and (r_min < -R_TOL):
        flags.append(f"r_min={r_min:.3e} below 0 at trace node {int(state.r.argmin())}")
    if p.constraint_mode is ConstraintMode.BOX and len(state.r) and r_max > p.R0 + R_TOL:
        flags.append(f"r_max={r_max:.3e} above R0 at trace node {int(state.r.argmax())}")

    residual = abs(
        terms.accumulation + terms.reaction - terms.boundary_exchange - terms.source_total
    )
    scale = max(
        abs(terms.accumulation),
        abs(terms.reaction),
        abs(terms.boundary_exchange),
        abs(terms.source_total),
    )
    if scale > 0 and residual > BALANCE_REL_TOL * scale:
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


@dataclass(frozen=True)
class ManufacturedFields:
    """Closed-form fields driving the verification of the implicit s-solve.

    c and r are prescribed (their integrators have exact oracles of their
    own), a volumetric source makes s_exact solve the discrete equation's
    continuous counterpart, and the exposed-edge Robin data is overridden
    with a compensating flux so the exchange machinery is exercised
    nontrivially.
    """

    p: PhysParams
    # (x1, x2, cos(pi x1), cos(pi x2), sin^2(pi x1)) for one set of nodes,
    # and (x2, cos(pi x2), rl*(0.5 + 0.25 sin(pi x2))) for one set of
    # left-edge nodes, set by at_nodes().
    nodes: tuple | None = field(default=None, compare=False, repr=False)
    edge: tuple | None = field(default=None, compare=False, repr=False)

    def at_nodes(
        self, x1: np.ndarray, x2: np.ndarray, edge_x2: np.ndarray | None = None
    ) -> "ManufacturedFields":
        """A copy that evaluates the spatial factors once, here.

        The factors are those at the nodes (x1, x2) and, when given, at the
        left-edge nodes edge_x2.  c_field and source reuse them whenever
        they are called with x1 and x2, r_field and robin_override whenever
        they are called with edge_x2; none of these arrays may change
        afterwards.  A subclass that overrides one of those methods keeps
        its own definition.
        """
        edge = None if edge_x2 is None else (edge_x2,) + self._edge_factors(edge_x2)
        return replace(self, nodes=(x1, x2) + self._factors(x1, x2), edge=edge)

    def _factors(self, x1, x2):
        """cos(pi x1), cos(pi x2) and sin^2(pi x1)."""
        nodes = self.nodes
        if nodes is not None and x1 is nodes[0] and x2 is nodes[1]:
            return nodes[2:]
        return np.cos(np.pi * x1), np.cos(np.pi * x2), np.sin(np.pi * x1) ** 2

    def _edge_factors(self, x2):
        """cos(pi x2) and rl*(0.5 + 0.25 sin(pi x2)) on the left edge."""
        edge = self.edge
        if edge is not None and x2 is edge[0]:
            return edge[1:]
        return np.cos(np.pi * x2), self.p.rl * (0.5 + 0.25 * np.sin(np.pi * x2))

    def s_exact(self, x1, x2, t):
        return self._s(np.cos(np.pi * x1), np.cos(np.pi * x2), math.exp(-t))

    def c_field(self, x1, x2, t):
        return self._c(self._factors(x1, x2)[0], math.exp(-t))

    def r_field(self, x2, t):
        return self._r(x2, math.exp(-t))

    # The fields in terms of the spatial factors and of e = exp(-t) (and
    # e2 = exp(-2t)), so that each is evaluated once per call, or once per
    # set of nodes (see at_nodes()).  e and e2 are floats, or (K, 1) columns
    # of math.exp values for K times at once (see fields_at_times()).

    def _s(self, cos1, cos2, e):
        return e * cos1 * cos2

    def _c(self, cos1, e):
        return self.p.C0 * (0.5 + 0.25 * cos1 * e)

    def _r(self, x2, e):
        return self._edge_factors(x2)[1] * (1.0 - e)

    def source(self, x1, x2, t):
        """Forcing f = dt(phi*s) - div(phi*grad s) + lam*phi*c*s for s_exact."""
        e = math.exp(-t)
        return self._source(x1, x2, e, math.exp(-2.0 * t), self._c(self._factors(x1, x2)[0], e))

    def _source(self, x1, x2, e, e2, c):
        """source(x1, x2, t), given e, e2 and c = c_field(x1, x2, t)."""
        p = self.p
        cos1, cos2, sin1_sq = self._factors(x1, x2)
        s = self._s(cos1, cos2, e)
        phi = p.A + p.B * c
        c_t = -0.25 * p.C0 * cos1 * e
        # dt(phi s) = B*c_t*s + phi*(-s);  lap(s) = -2 pi^2 s
        # grad(phi).grad(s) = 0.25*B*C0*pi^2*exp(-2t)*sin^2(pi x1)*cos(pi x2)
        cross = 0.25 * p.B * p.C0 * np.pi**2 * e2 * sin1_sq * cos2
        return p.B * c_t * s - phi * s + 2.0 * np.pi**2 * phi * s - cross + p.lam * phi * c * s

    def robin_override(self, coords: np.ndarray, t: float) -> RobinData:
        """Exchange data on the left edge under which s_exact is exact.

        s_exact has zero normal derivative on every edge, so the required
        compensating flux is g = nu(r*)(s_exact|edge - sbar).
        """
        return self._robin(coords, self.r_field(coords, t), math.exp(-t))

    def _robin(self, coords, r, e):
        """robin_override(coords, t), given r = r_field(coords, t) and e."""
        p = self.p
        nu = np.asarray(permeability(r, p), dtype=float)
        s_edge = self._s(1.0, self._edge_factors(coords)[0], e)  # cos(pi*0) = 1
        return RobinData(
            nu=nu,
            sbar=np.full(nu.shape, p.sbar),
            flux=nu * (s_edge - p.sbar),
        )

    def fields_at_times(self, x1, x2, coords, ts) -> tuple[np.ndarray, np.ndarray, RobinData]:
        """c_field, source and robin_override at each time of ts, one row per time.

        Returns c and source as (K, n) arrays and the Robin data with (K, m)
        arrays, each row bit for bit the per-time call's result.  Each
        formula runs once for all K times, in its own operation order.  A
        subclass that overrides c_field or source, or robin_override or
        r_field, gets those rows from per-time calls of its own definitions.
        """
        base, cls = ManufacturedFields, type(self)
        e = np.array([math.exp(-t) for t in ts])[:, None]
        if cls.c_field is base.c_field and cls.source is base.source:
            c = self._c(self._factors(x1, x2)[0], e)
            source = self._source(x1, x2, e, np.array([math.exp(-2.0 * t) for t in ts])[:, None], c)
        else:
            c = np.empty((len(ts), len(x1)))
            source = np.empty_like(c)
            for row, t in enumerate(ts):
                c[row], source[row] = self.c_field(x1, x2, t), self.source(x1, x2, t)
        if cls.robin_override is base.robin_override and cls.r_field is base.r_field:
            robin = self._robin(coords, self._r(coords, e), e)
        else:  # stacked as given, so that the assembly checks each row's shape
            per_time = [self.robin_override(coords, t) for t in ts]
            robin = RobinData(*(np.array([getattr(d, name) for d in per_time]) for name in ("nu", "sbar", "flux")))
        return c, source, robin


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


def _mms_grid(n: int) -> Grid2D:
    return build_grid(n, n, {Edge.LEFT: EdgeTag.EXPOSED})


# Entries in each (steps, nodes) array of a block of MMS steps: 69 steps at
# 17^2, 4 at 65^2 and 1 from 129^2 up.  The block's matrix entries are five
# times that, so a block holds about 1.4 MB at 65^2.
_BLOCK_ELEMENTS = 20_000


def run_mms_level(
    mf: ManufacturedFields,
    n: int,
    dt: float,
    t_end: float,
    cg_rel_tol: float = 1e-12,
) -> tuple[float, float]:
    """Integrate the forced s-equation on an n x n grid; return error norms at t_end.

    c and r are prescribed, so everything in the s-systems that s does not
    enter (c, the source, the Robin data, the matrix, phi(c) and the model
    coefficients) is built for a block of consecutive steps at once (see
    bulk.assemble_s_rows); each step then adds its V*phi(c^n)*s^n/dt part
    and solves.  The systems are bit for bit those built one step at a
    time.  Each step's CG starts from the linear extrapolation
    2*s^n - s^(n-1) of the last two steps; the first step starts from s^0,
    which 2*s^0 - s^0 equals exactly.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0 (dt={dt})")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and >= 0 (t_end={t_end})")
    grid = _mms_grid(n)
    x1 = grid.x1()
    x2 = grid.x2()
    trace = grid.exposed_trace()
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-12 * max(1.0, t_end):
        raise ValueError(f"dt={dt} does not divide t_end={t_end}")

    mf = mf.at_nodes(x1, x2, trace.coords)
    s = mf.s_exact(x1, x2, 0.0)
    c_old = mf.c_field(x1, x2, 0.0)
    r = np.zeros(len(trace))  # unused: the Robin data is overridden
    s_prev = s
    block = max(1, _BLOCK_ELEMENTS // grid.n_nodes)
    for first in range(1, n_steps + 1, block):
        ts = [k * dt for k in range(first, min(first + block, n_steps + 1))]
        c_new, source, robin = mf.fields_at_times(x1, x2, trace.coords, ts)
        rows = assemble_s_rows(grid, c_old, c_new, r, dt, mf.p, source, robin)
        for k in range(len(ts)):
            sys = rows.system(k, s)
            x0 = 2.0 * s
            x0 -= s_prev
            s_prev = s
            s, _, _ = cg_solve(sys, x0=x0, rel_tol=cg_rel_tol)
        c_old = c_new[-1]

    err = s - mf.s_exact(x1, x2, t_end)
    vols = grid.node_volumes()
    err_l2 = float(np.sqrt(np.sum(vols * err**2)))
    err_max = float(np.abs(err).max())
    return err_l2, err_max


def _mms_level_job(job: tuple[ManufacturedFields, int, float]) -> tuple[float, float]:
    """run_mms_level for one (fields, n, dt) level of a study, up to MMS_T_END."""
    mf, n, dt = job
    return run_mms_level(mf, n, dt, MMS_T_END)


SPATIAL_DT = 1e-5
TEMPORAL_GRID = 129
TEMPORAL_DT0 = 0.05
MMS_T_END = 0.1


def mms_convergence(
    study: str,
    levels: int,
    p: PhysParams | None = None,
) -> ConvergenceTable:
    """Run the spatial or temporal convergence study.

    Spatial: dt fixed at 1e-5, grids 17^2 -> 33^2 -> 65^2 -> 129^2 (then
    further refined by nesting).  Temporal: grid fixed at 129^2, dt halved
    per level starting from 0.05.  Errors are measured at t = 0.1 against
    the manufactured solution.  The levels run in up to SULPHSIM_THREADS
    worker processes (see pool.map_jobs); the table does not depend on how
    many.
    """
    if levels < 3:
        raise ValueError("convergence study needs at least 3 levels")
    if study == "spatial":
        plan = [(16 * 2**k + 1, SPATIAL_DT) for k in range(levels)]  # 17, 33, 65, ...
    elif study == "temporal":
        plan = [(TEMPORAL_GRID, TEMPORAL_DT0 / 2**k) for k in range(levels)]
    else:
        raise ValueError(f"unknown study {study!r}")
    mf = ManufacturedFields(p if p is not None else PhysParams())
    # The last level, on the finest grid or with the smallest dt, costs the
    # most, so it is submitted first; the errors come back in plan order.
    errors = map_jobs(_mms_level_job, [(mf, n, dt) for n, dt in reversed(plan)])[::-1]

    rows: list[ConvergenceRow] = []
    for lvl, ((n, dt), (e2, em)) in enumerate(zip(plan, errors)):
        h_or_dt = 1.0 / (n - 1) if study == "spatial" else dt
        order_l2 = order_max = None
        if rows:
            prev = rows[-1]
            log_ratio = math.log(prev.h_or_dt / h_or_dt)
            order_l2 = math.log(prev.err_l2 / e2) / log_ratio
            order_max = math.log(prev.err_max / em) / log_ratio
        rows.append(ConvergenceRow(lvl, h_or_dt, e2, em, order_l2, order_max))
    return ConvergenceTable(study=study, rows=rows)
