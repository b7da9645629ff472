"""Uniform vertex-centered grid on the unit square with boundary tagging.

Nodes sit at (i*hx, j*hy) with lexicographic index p = j*nx + i.  Each of
the four boundary edges is tagged exposed (Robin exchange with the ambient
concentration) or isolated (homogeneous Neumann); at most one edge may be
exposed, and in the reference configuration it is the left one.  A grid is
an immutable value, so structures derived from it are cached by value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

LINE_ALIGN_TOL = 1e-12
# Grids whose derived structures (trace, stencil pattern) stay cached at
# once; bounded so a script that scans grid sizes does not grow without limit.
GRID_CACHE_SIZE = 16


class Edge(Enum):
    LEFT = "left"
    RIGHT = "right"
    BOTTOM = "bottom"
    TOP = "top"


_EDGE_CODES = {e: k for k, e in enumerate(Edge)}


class EdgeTag(Enum):
    EXPOSED = "exposed"
    ISOLATED = "isolated"


DEFAULT_TAGS = {
    Edge.LEFT: EdgeTag.EXPOSED,
    Edge.RIGHT: EdgeTag.ISOLATED,
    Edge.BOTTOM: EdgeTag.ISOLATED,
    Edge.TOP: EdgeTag.ISOLATED,
}


@dataclass(frozen=True)
class Grid2D:
    """nx x ny nodes; exposed_edge is the one Robin edge, None if all are isolated."""

    nx: int
    ny: int
    exposed_edge: Edge | None = Edge.LEFT

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid needs nx, ny >= 3 (got nx={self.nx}, ny={self.ny})")
        edge = self.exposed_edge
        if edge is not None and not isinstance(edge, Edge):
            raise ValueError(f"exposed_edge must be an Edge or None (got {edge!r})")
        # Hashed once, from ints only: the generated hash would call the
        # pure-Python Enum.__hash__ on every cache lookup, and an int hash
        # stays valid in a process that unpickles the grid.
        code = -1 if edge is None else _EDGE_CODES[edge]
        object.__setattr__(self, "_hash", hash((self.nx, self.ny, code)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def hx(self) -> float:
        return 1.0 / (self.nx - 1)

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny - 1)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    def index(self, i: int, j: int) -> int:
        return j * self.nx + i

    def ij(self, p: int) -> tuple[int, int]:
        return p % self.nx, p // self.nx

    def x1(self) -> np.ndarray:
        """x1 coordinate of every node, lexicographic order."""
        return np.tile(np.arange(self.nx) * self.hx, self.ny)

    def x2(self) -> np.ndarray:
        return np.repeat(np.arange(self.ny) * self.hy, self.nx)

    def axis_weights(self, n: int, h: float) -> np.ndarray:
        """Trapezoidal weights along one axis: h/2 at the ends, h inside."""
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        return w

    def node_volumes(self) -> np.ndarray:
        """Dual-cell areas (2D trapezoidal quadrature weights), length nx*ny."""
        wx = self.axis_weights(self.nx, self.hx)
        wy = self.axis_weights(self.ny, self.hy)
        return (wy[:, None] * wx[None, :]).ravel()

    def exposed_trace(self) -> "BoundaryTrace | None":
        e = self.exposed_edge
        return None if e is None else boundary_trace(self, e)


@dataclass(frozen=True)
class BoundaryTrace:
    """Nodes of one boundary edge, ordered by the free coordinate.

    weights are trapezoidal arc-length weights (h/2 at the trace ends, h
    inside) and sum to the edge length 1.
    """

    edge: Edge
    indices: np.ndarray
    coords: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def build_grid(nx: int, ny: int, tags: dict[Edge, EdgeTag] | None = None) -> Grid2D:
    """A grid with the default tags (left edge exposed) overlaid by tags."""
    full_tags = dict(DEFAULT_TAGS)
    if tags is not None:
        full_tags.update(tags)
    exposed = [e for e, t in full_tags.items() if t is EdgeTag.EXPOSED]
    if len(exposed) > 1:
        names = ", ".join(e.value for e in exposed)
        raise ValueError(
            f"at most one exposed edge is supported (got {names}); the left edge is "
            "exposed by default, so to expose another pass Edge.LEFT: EdgeTag.ISOLATED too"
        )
    return Grid2D(nx=nx, ny=ny, exposed_edge=exposed[0] if exposed else None)


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def boundary_trace(grid: Grid2D, edge: Edge) -> BoundaryTrace:
    """The trace of edge on grid, shared by every caller: its arrays are read-only."""
    nx, ny = grid.nx, grid.ny
    if edge is Edge.LEFT:
        idx = np.arange(ny) * nx
        coords = np.arange(ny) * grid.hy
        w = grid.axis_weights(ny, grid.hy)
    elif edge is Edge.RIGHT:
        idx = np.arange(ny) * nx + (nx - 1)
        coords = np.arange(ny) * grid.hy
        w = grid.axis_weights(ny, grid.hy)
    elif edge is Edge.BOTTOM:
        idx = np.arange(nx)
        coords = np.arange(nx) * grid.hx
        w = grid.axis_weights(nx, grid.hx)
    else:
        idx = np.arange(nx) + (ny - 1) * nx
        coords = np.arange(nx) * grid.hx
        w = grid.axis_weights(nx, grid.hx)
    for a in (idx, coords, w):
        a.flags.writeable = False
    return BoundaryTrace(edge=edge, indices=idx, coords=coords, weights=w)


@dataclass(frozen=True)
class ProfileLine:
    """A grid-aligned sampling line: vertical means constant x1."""

    orientation: str  # "vertical" | "horizontal"
    coord: float

    def __post_init__(self):
        if self.orientation not in ("vertical", "horizontal"):
            raise ValueError(f"unknown profile orientation {self.orientation!r}")

    @property
    def axis(self) -> str:
        """Name of the fixed coordinate: x1 for a vertical line, x2 for a horizontal one."""
        return "x1" if self.orientation == "vertical" else "x2"


def grid_line_index(coord: float, n: int) -> int | None:
    """Index of the grid line at coord on an n-node unit axis.

    None when coord is not within LINE_ALIGN_TOL of a node coordinate
    (non-finite coords included): profile lines are node-aligned, no
    interpolation is done.
    """
    if not math.isfinite(coord):
        return None
    h = 1.0 / (n - 1)
    k = round(coord / h)
    if 0 <= k < n and abs(coord - k * h) <= LINE_ALIGN_TOL:
        return k
    return None


def extract_profile(field: np.ndarray, grid: Grid2D, line: ProfileLine):
    """Sample a nodal field along a grid line.

    Returns (coords, values) ordered by the free coordinate.  The line must
    coincide with a grid line to within 1e-12.
    """
    field = np.asarray(field)
    if field.shape != (grid.n_nodes,):
        raise ValueError(f"field has shape {field.shape}, expected ({grid.n_nodes},)")
    vertical = line.orientation == "vertical"
    n = grid.nx if vertical else grid.ny
    k = grid_line_index(line.coord, n)
    if k is None:
        raise ValueError(
            f"{line.axis}={line.coord} is not a grid line (spacing "
            f"{1.0 / (n - 1)}); profile lines must be node-aligned, no interpolation is done"
        )
    f2 = field.reshape(grid.ny, grid.nx)
    if vertical:
        return np.arange(grid.ny) * grid.hy, f2[:, k].copy()
    return np.arange(grid.nx) * grid.hx, f2[k, :].copy()
