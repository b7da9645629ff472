"""Run orchestration: simulation loop, MMS delegation, parameter sweeps."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .bulk import FieldState, step
from .config import ConfigError, RunConfig, validate_config
from .diagnostics import InvariantReport, audit_step, mms_convergence
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
class TraceRecord:
    """Exposed-edge quantities of one step, kept for post-processing.

    The step's rugosity update read r_prev, s_used and c_edge, the new c.
    """

    step: int
    t: float
    s_used: np.ndarray
    r_prev: np.ndarray
    r_new: np.ndarray
    xi: np.ndarray
    c_edge: np.ndarray
    s_edge: np.ndarray


@dataclass
class RunMetrics:
    first_step_half_c0: int | None = None


@dataclass
class RunResult:
    status: int
    config: RunConfig
    report: InvariantReport
    metrics: RunMetrics
    final_state: FieldState | None = None
    trace_history: list[TraceRecord] = field(default_factory=list)
    error: str | None = None


def _emit_artifacts(cfg, report, rows, out_dir):
    ensure_dir(out_dir)
    if cfg.emit_csv and cfg.mode == "simulate":
        write_profiles_csv(os.path.join(out_dir, "profiles.csv"), rows)
    write_invariants_csv(os.path.join(out_dir, "invariants.csv"), report)
    write_manifest(
        os.path.join(out_dir, "manifest.ini"), cfg, __version__, report.summary()
    )


def run(cfg: RunConfig, record_traces: bool = False) -> RunResult:
    """Execute one configuration and emit its artifact set.

    Simulate mode starts from s = 0, c = C0 and the configured rugosity
    profile, advances n_steps, audits every step, and writes profile CSV,
    optional VTK snapshots, the invariant log, and a manifest that
    re-parses to the identical RunConfig.  MMS modes delegate to the
    convergence harness.  The exit status is nonzero iff a strict-mode
    invariant fails or a solve fails.
    """
    problems = validate_config(cfg)
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    out_dir = cfg.out_dir

    if cfg.mode in ("mms_spatial", "mms_temporal"):
        study = "spatial" if cfg.mode == "mms_spatial" else "temporal"
        table = mms_convergence(study, cfg.mms_levels, cfg.phys())
        ensure_dir(out_dir)
        with open(os.path.join(out_dir, f"mms_{study}.csv"), "w", newline="\n") as fh:
            fh.write(table.to_csv())
        return RunResult(0, cfg, InvariantReport(), RunMetrics())

    p = cfg.phys()
    grid = cfg.grid()
    trace = grid.exposed_trace()
    rng = Xoshiro256pp(cfg.seed)
    if trace is not None:
        r0 = init_rugosity(trace, grid, cfg.rugosity_init(), rng, p)
    else:
        r0 = np.zeros(0)

    n = grid.n_nodes
    state = FieldState(
        t=0.0,
        s=np.zeros(n),
        c=np.full(n, p.C0),
        r=r0,
        xi=np.zeros_like(r0),
    )
    report = InvariantReport()
    metrics = RunMetrics()
    history: list[TraceRecord] = []
    rows = []
    snapshots = set(cfg.snapshot_steps)
    emit_fields = cfg.mode == "simulate"

    def snapshot(step_idx: int, st: FieldState):
        if not emit_fields:
            return
        rows.extend(profile_rows(st.t, st, grid, cfg.profiles))
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
    terms = None  # the previous step's, whose solution history warm-starts the next
    try:
        for k in range(1, cfg.n_steps + 1):
            r_prev = state.r
            state, terms = step(
                state, cfg.dt, grid, p, picard_iters=cfg.picard_iters, history=terms
            )
            entry = audit_step(state, p, terms, grid, step_index=k)
            report.append(entry)
            if trace is not None:
                c_edge = state.c[trace.indices]
                if metrics.first_step_half_c0 is None and c_edge.min() < 0.5 * p.C0:
                    metrics.first_step_half_c0 = k
                if record_traces:
                    history.append(
                        TraceRecord(
                            step=k,
                            t=state.t,
                            s_used=terms.s_trace.copy(),
                            r_prev=r_prev.copy(),
                            r_new=state.r.copy(),
                            xi=state.xi.copy(),
                            c_edge=c_edge.copy(),
                            s_edge=state.s[trace.indices].copy(),
                        )
                    )
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

    _emit_artifacts(cfg, report, rows, out_dir)
    return RunResult(status, cfg, report, metrics, state, history, error)


def _sweep_job(cfg: RunConfig) -> RunResult:
    """Run one sweep configuration; an exception becomes a status-1 result.

    The result is slim and picklable, so a worker process can send it back
    cheaply: it carries no final_state, and run() records no trace_history
    unless asked to.
    """
    try:
        return replace(run(cfg), final_state=None)
    except Exception as exc:
        return RunResult(1, cfg, InvariantReport(), RunMetrics(), error=str(exc))


def sweep(configs: list[RunConfig], summary_path: str | None = None) -> list[RunResult]:
    """Run several configurations in up to SULPHSIM_THREADS worker processes.

    Results come back in configuration order and carry no final_state.  One
    run's failure does not abort the others.  The combined CSV reports the
    time-to-threshold metric (first step at which the minimum of c on the
    exposed edge drops below 0.5*C0).
    """
    out_dirs = [c.out_dir for c in configs]
    if len(set(out_dirs)) != len(out_dirs):
        raise ConfigError("sweep configurations must use distinct out_dirs")
    results = map_jobs(_sweep_job, configs)

    if summary_path is not None:
        with open(summary_path, "w", newline="\n") as fh:
            fh.write("out_dir,status,first_step_half_c0,n_steps,seed\n")
            for r in results:
                thr = "" if r.metrics.first_step_half_c0 is None else str(r.metrics.first_step_half_c0)
                fh.write(f"{r.config.out_dir},{r.status},{thr},{r.config.n_steps},{r.config.seed}\n")
    return results
