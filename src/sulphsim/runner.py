"""Run orchestration: simulation loop and parameter sweeps."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bulk import FieldState, step
from .config import ConfigError, RunConfig, reject, validate_config
from .diagnostics import InvariantReport, audit_step
from .output import (
    ensure_dir,
    profile_rows,
    write_invariants_csv,
    write_manifest,
    write_profiles_csv,
    write_vtk,
)
from .pool import map_jobs
from .rng import Xoshiro256pp
from .surface import init_rugosity


class StrictInvariantError(RuntimeError):
    pass


@dataclass
class RunMetrics:
    """Per-run results beyond the artifacts: the threshold step and CG totals.

    cg_solves, cg_iterations_total and cg_iterations_max count the s-solves
    of the steps taken (one per step), their summed iterations and the most
    in one solve; run() writes them to manifest.ini as solver.* comments.
    """

    first_step_half_c0: int | None = None
    cg_solves: int = 0
    cg_iterations_total: int = 0
    cg_iterations_max: int = 0

    def solver_summary(self) -> dict[str, str]:
        return {
            "cg_solves": str(self.cg_solves),
            "cg_iterations_total": str(self.cg_iterations_total),
            "cg_iterations_max": str(self.cg_iterations_max),
        }


@dataclass
class RunResult:
    status: int
    config: RunConfig
    report: InvariantReport
    metrics: RunMetrics
    error: str | None = None


def _emit_artifacts(cfg, report, metrics, rows, out_dir):
    ensure_dir(out_dir)
    if cfg.emit_csv:
        write_profiles_csv(os.path.join(out_dir, "profiles.csv"), rows)
    write_invariants_csv(os.path.join(out_dir, "invariants.csv"), report)
    write_manifest(
        os.path.join(out_dir, "manifest.ini"),
        cfg,
        __version__,
        report.summary(),
        metrics.solver_summary(),
    )


def initial_state(cfg: RunConfig) -> FieldState:
    """The state a run of cfg starts from: s = 0, c = C0 and the configured
    rugosity profile, drawn from Xoshiro256pp(cfg.seed), on the exposed edge."""
    p = cfg.phys()
    grid = cfg.grid()
    r0 = init_rugosity(grid.exposed_trace(), cfg.rugosity_init(), Xoshiro256pp(cfg.seed), p)
    n = grid.n_nodes
    return FieldState(
        t=0.0,
        s=np.zeros(n),
        c=np.full(n, p.C0),
        r=r0,
        xi=np.zeros_like(r0),
    )


def run(cfg: RunConfig) -> RunResult:
    """Simulate one configuration and emit its artifact set.

    The run starts from initial_state(cfg), advances n_steps and audits
    every step.  It writes the invariant log and a manifest that re-parses
    to the identical RunConfig, plus the profile CSV if emit_csv and VTK
    snapshots if emit_vtk.  The MMS study is not a run: call
    diagnostics.mms_convergence or ``sulphsim mms``.
    The exit status is nonzero iff a strict-mode invariant fails or a
    solve fails.
    """
    reject(validate_config(cfg))
    out_dir = cfg.out_dir

    p = cfg.phys()
    grid = cfg.grid()
    trace = grid.exposed_trace()
    state = initial_state(cfg)
    report = InvariantReport()
    metrics = RunMetrics()
    rows = []
    snapshots = set(cfg.snapshot_steps)

    def snapshot(step_idx: int, st: FieldState):
        if cfg.emit_csv:
            rows.extend(profile_rows(st, grid, cfg.profiles))
        if cfg.emit_vtk:
            ensure_dir(out_dir)
            write_vtk(
                os.path.join(out_dir, f"fields_step{step_idx:06d}.vtk"),
                grid,
                {"s": st.s, "c": st.c},
                f"sulphsim fields step={step_idx} t={st.t:.17g}",
            )

    if 0 in snapshots:
        snapshot(0, state)

    status = 0
    error = None
    try:
        for k in range(1, cfg.n_steps + 1):
            state, terms = step(state, cfg.dt, grid, p)
            metrics.cg_solves += 1
            metrics.cg_iterations_total += terms.cg_iterations
            metrics.cg_iterations_max = max(metrics.cg_iterations_max, terms.cg_iterations)
            entry = audit_step(state, p, terms, step_index=k)
            report.append(entry)
            if metrics.first_step_half_c0 is None and state.c[trace.indices].min() < 0.5 * p.C0:
                metrics.first_step_half_c0 = k
            if cfg.strict and entry.flags:
                raise StrictInvariantError(
                    f"step {k}: invariant violation: " + "; ".join(entry.flags)
                )
            if k in snapshots:
                snapshot(k, state)
    except StrictInvariantError as exc:
        status, error = 1, str(exc)
    except Exception as exc:  # solver failure; keep partial artifacts
        status, error = 1, f"step failed: {exc}"

    _emit_artifacts(cfg, report, metrics, rows, out_dir)
    return RunResult(status, cfg, report, metrics, error)


def _sweep_job(cfg: RunConfig) -> RunResult:
    """Run one sweep configuration; an exception becomes a status-1 result."""
    try:
        return run(cfg)
    except Exception as exc:
        return RunResult(1, cfg, InvariantReport(), RunMetrics(), error=str(exc))


def sweep(configs: list[RunConfig], summary_path: str | None = None) -> list[RunResult]:
    """Run several configurations in up to SULPHSIM_THREADS worker processes.

    Results come back in configuration order.  One run's failure does not
    abort the others.  The combined CSV reports the time-to-threshold metric
    (first step at which the minimum of c on the exposed edge drops below
    0.5*C0).
    """
    seen: dict[str, str] = {}
    for c in configs:
        # abspath also normalises, so "d", "./d" and "d/" are one directory
        key = os.path.abspath(c.out_dir)
        if key in seen:
            raise ConfigError(
                f"sweep configurations must use distinct out_dirs: "
                f"{seen[key]!r} and {c.out_dir!r} name the same directory"
            )
        seen[key] = c.out_dir
    results = map_jobs(_sweep_job, configs)

    if summary_path is not None:
        with open(summary_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["out_dir", "status", "first_step_half_c0", "n_steps", "seed"])
            for r in results:
                c = r.config  # csv writes a None threshold as an empty field
                writer.writerow([c.out_dir, r.status, r.metrics.first_step_half_c0, c.n_steps, c.seed])
    return results
