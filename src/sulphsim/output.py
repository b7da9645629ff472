"""Artifact emission: profile CSV, legacy VTK fields, invariant log, manifest.

All numbers are printed with 17 significant digits so 64-bit floats
round-trip exactly and equal runs produce byte-identical files.
"""

from __future__ import annotations

import os
from itertools import chain

import numpy as np

from .bulk import FieldState
from .config import RunConfig, config_to_text
from .diagnostics import InvariantReport
from .grid import Grid2D, ProfileLine, extract_profile

PROFILE_HEADER = "t,x1,x2,field,value"
INVARIANT_HEADER = (
    "step,t,s_min,s_max,c_min,c_max,r_min,r_max,xi_max_abs,"
    "balance_residual,balance_scale,flags"
)


# printf form of fmt(): the same text for every float, signed zeros, nan,
# inf and subnormals included, but one % over a tuple formats a whole block
FLOAT = "%.17g"
PROFILE_ROW = f"{FLOAT},{FLOAT},{FLOAT},%s,{FLOAT}\n"
INVARIANT_ROW = "%s," + ",".join([FLOAT] * 10) + ",%s\n"


def fmt(v: float) -> str:
    return f"{v:.17g}"


def profile_rows(
    state: FieldState,
    grid: Grid2D,
    lines: tuple[ProfileLine, ...],
) -> list[tuple[float, float, float, str, float]]:
    """Rows (t, x1, x2, field, value) at t = state.t: s and c on each line, r on the trace."""
    t = state.t
    rows = []
    for line in lines:
        coords, svals = extract_profile(state.s, grid, line)
        _, cvals = extract_profile(state.c, grid, line)
        for k, coord in enumerate(coords):
            if line.orientation == "vertical":
                x1, x2 = line.coord, coord
            else:
                x1, x2 = coord, line.coord
            rows.append((t, x1, x2, "s", float(svals[k])))
            rows.append((t, x1, x2, "c", float(cvals[k])))
    x1_all = grid.x1()
    x2_all = grid.x2()
    for k, idx in enumerate(grid.exposed_trace().indices):
        rows.append((t, float(x1_all[idx]), float(x2_all[idx]), "r", float(state.r[k])))
    return rows


def write_profiles_csv(path: str, rows) -> None:
    rows = sorted(rows, key=lambda r: (r[0], r[3], r[2], r[1]))
    with open(path, "w", newline="\n") as fh:
        fh.write(PROFILE_HEADER + "\n")
        fh.write((PROFILE_ROW * len(rows)) % tuple(chain.from_iterable(rows)))


def write_vtk(path: str, grid: Grid2D, fields: dict[str, np.ndarray], title: str) -> None:
    """Legacy ASCII STRUCTURED_POINTS snapshot with named point scalars.

    Node ordering matches the lexicographic layout (x1 fastest), which is
    the ordering legacy VTK expects for structured points.
    """
    n = grid.n_nodes
    with open(path, "w", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title + "\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {grid.nx} {grid.ny} 1\n")
        fh.write("ORIGIN 0 0 0\n")
        fh.write(f"SPACING {fmt(grid.hx)} {fmt(grid.hy)} 1\n")
        fh.write(f"POINT_DATA {n}\n")
        for name, values in fields.items():
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            values = np.asarray(values, dtype=float).ravel().tolist()
            fh.write((f"{FLOAT}\n" * len(values)) % tuple(values))


def write_invariants_csv(path: str, report: InvariantReport) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(INVARIANT_HEADER + "\n")
        fields = [
            (
                e.step, e.t, e.s_min, e.s_max, e.c_min, e.c_max, e.r_min, e.r_max,
                e.xi_max_abs, e.balance_residual, e.balance_scale, ";".join(e.flags),
            )
            for e in report.entries
        ]
        fh.write((INVARIANT_ROW * len(fields)) % tuple(chain.from_iterable(fields)))


def write_manifest(
    path: str,
    cfg: RunConfig,
    code_version: str,
    summary: dict[str, str],
    solver: dict[str, str],
) -> None:
    """The config as re-parseable text under comment lines: the code
    version, the invariant summary and the solver totals."""
    comments = {"code_version": code_version}
    comments.update({f"invariants.{k}": v for k, v in summary.items()})
    comments.update({f"solver.{k}": v for k, v in solver.items()})
    with open(path, "w", newline="\n") as fh:
        fh.write(config_to_text(cfg, header_comments=comments))


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
