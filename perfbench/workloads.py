"""The benchmark's three workloads: inputs from a seed, the public call, the output check.

This module imports nothing from sulphsim at import time, so the set-up
probe can load it before it starts its clock.  Every function that needs
the program takes the imported ``sulphsim`` package as an argument.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))

# Every run must audit clean and close its discrete balance to this level.
BALANCE_LIMIT = 1e-8
# Second-order spatial convergence, within this distance of 2.
MMS_ORDER, MMS_ORDER_TOL = 2.0, 0.2
MMS_LEVELS = 3
SWEEP_CONFIGS = 4

# Sweep seeds are drawn from this pool; expected.json holds, for every pool
# seed, first_step_half_c0 as the program computed it when the benchmark was
# defined (see record_expected.py).  The pool lets every --seed be checked
# against recorded values while still varying the Weibull realisations.
EXPECTED_PATH = os.path.join(HERE, "expected.json")


@functools.cache
def expected_half_c0() -> dict[int, int]:
    with open(EXPECTED_PATH) as fh:
        return {int(k): v for k, v in json.load(fh)["first_step_half_c0"].items()}


def weibull_config(sim_seed: int, out_dir: str) -> str:
    """One config of the paper's random-rugosity experiment, default artifacts."""
    return (
        "nx = 65\nny = 65\ndt = 0.01\nn_steps = 200\n"
        "nu_law = parabolic\nr_init_mode = weibull\nweibull_r0 = 0.2\n"
        f"seed = {sim_seed}\nout_dir = {out_dir}\n"
    )


def sweep_seeds(seed: int) -> list[int]:
    return random.Random(seed).sample(sorted(expected_half_c0()), SWEEP_CONFIGS)


@dataclass
class Prepared:
    """Parsed inputs of one op plus what its check needs."""

    configs: list = field(default_factory=list)
    grids: list = field(default_factory=list)
    phys: object = None
    seed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    texts: object  # (seed, out_dir) -> list of config texts
    grid_sides: tuple[int, ...]  # side of each square grid the call solves on
    call: object  # (sulphsim, Prepared, out_dir) -> result
    check: object  # (Prepared, result) -> list of problems
    steps: object  # (Prepared) -> time steps one call completes


# -- reference ----------------------------------------------------------------


def _ref_texts(seed, out_dir):
    # The paper's reference run: every default, 500 steps.
    return [f"n_steps = 500\nseed = {seed}\nout_dir = {out_dir}\n"]


def _ref_call(sulphsim, prep, out_dir):
    return [sulphsim.run(prep.configs[0])]


def _run_problems(results) -> list[str]:
    problems = []
    for r in results:
        where = os.path.basename(r.config.out_dir)
        if r.status != 0:
            problems.append(f"{where}: status {r.status} ({r.error})")
        if r.report.flagged:
            problems.append(f"{where}: {len(r.report.flagged)} steps with invariant flags")
        worst = max(
            (e.balance_residual / e.balance_scale for e in r.report.entries if e.balance_scale > 0),
            default=0.0,
        )
        if worst > BALANCE_LIMIT:
            problems.append(f"{where}: worst balance {worst:.3e} above {BALANCE_LIMIT}")
        if len(r.report.entries) != r.config.n_steps:
            problems.append(f"{where}: {len(r.report.entries)} of {r.config.n_steps} steps audited")
    return problems


# -- mms_spatial --------------------------------------------------------------


def _mms_texts(seed, out_dir):
    # The CLI's mms command parses an empty config for the physical constants.
    return [""]


def _mms_call(sulphsim, prep, out_dir):
    table = sulphsim.diagnostics.mms_convergence("spatial", MMS_LEVELS, prep.phys)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "mms_spatial.csv"), "w", newline="\n") as fh:
        fh.write(table.to_csv())
    return table


def _mms_check(prep, table):
    problems = []
    if len(table.rows) != MMS_LEVELS:
        problems.append(f"mms: {len(table.rows)} levels, expected {MMS_LEVELS}")
    for row in table.rows[1:]:
        if row.order_l2 is None or abs(row.order_l2 - MMS_ORDER) > MMS_ORDER_TOL:
            problems.append(f"mms level {row.level}: L2 order {row.order_l2} not {MMS_ORDER}±{MMS_ORDER_TOL}")
    return problems


# -- sweep_weibull ------------------------------------------------------------


def _sweep_texts(seed, out_dir):
    return [
        weibull_config(s, os.path.join(out_dir, f"run{k}"))
        for k, s in enumerate(sweep_seeds(seed))
    ]


def _sweep_call(sulphsim, prep, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    return sulphsim.sweep(prep.configs, os.path.join(out_dir, "sweep_summary.csv"))


def _sweep_check(prep, results):
    problems = _run_problems(results)
    got = [r.metrics.first_step_half_c0 for r in results]
    seeds = sweep_seeds(prep.seed)
    want = [expected_half_c0()[s] for s in seeds]
    if got != want:
        problems.append(f"sweep first_step_half_c0 {got} != recorded {want} for seeds {seeds}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference",
            "The paper's reference run (65^2, 500 steps, CSV and 4 VTK): a mixed load led by cg_solve "
            "at ~25 iterations, then assembly, kinetics, rugosity, audit and output.",
            _ref_texts,
            (65,),
            _ref_call,
            lambda prep, results: _run_problems(results),
            lambda prep: sum(c.n_steps for c in prep.configs),
        ),
        Workload(
            "mms_spatial",
            "MMS spatial study, 3 levels x 10^4 steps at ~3 CG iterations per solve: per-call "
            "overhead dominates, so a better preconditioner should barely move it.",
            _mms_texts,
            tuple(16 * 2**k + 1 for k in range(MMS_LEVELS)),  # as mms_convergence builds them
            _mms_call,
            _mms_check,
            lambda prep: MMS_LEVELS * 10_000,  # t_end / dt = 0.1 / 1e-5 per level
        ),
        Workload(
            "sweep_weibull",
            "Seeded 4-config Weibull sweep (dt = 0.01, ~130 CG iterations per solve) through the "
            "runner.sweep pool: iteration count and pool efficiency show here.",
            _sweep_texts,
            (65,) * SWEEP_CONFIGS,
            _sweep_call,
            _sweep_check,
            lambda prep: sum(c.n_steps for c in prep.configs),
        ),
    )
}


def prepare(sulphsim, workload: Workload, seed: int, out_dir: str) -> Prepared:
    """Parse and validate the workload's configs and build its grids."""
    prep = Prepared(seed=seed)
    prep.configs = [sulphsim.parse_config(t) for t in workload.texts(seed, out_dir)]
    prep.phys = prep.configs[0].phys()
    tags = {sulphsim.Edge.LEFT: sulphsim.EdgeTag.EXPOSED}
    prep.grids = [sulphsim.build_grid(n, n, tags) for n in workload.grid_sides]
    return prep


def tree_digest(root: str) -> str:
    """SHA-256 over every file under root: relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def working_set(n: int) -> dict:
    """Computed size of one s-solve on an n x n grid: nodes, CSR nonzeros and bytes.

    CSR bytes are float64 data plus int64 indices and row pointers; vector
    bytes count the seven per-node float64 vectors of Jacobi-PCG
    (x, b, r, z, p, Ap, diagonal).
    """
    nodes = n * n
    nnz = nodes + 4 * (n - 1) * n  # diagonal plus both directions of every face
    csr = nnz * 16 + (nodes + 1) * 8
    return {"grid": f"{n}x{n}", "nodes": nodes, "nnz": nnz, "csr_bytes": csr, "vector_bytes": 7 * nodes * 8}
