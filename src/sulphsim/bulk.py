"""Time integration of the bulk unknowns s and c.

The calcite density c advances pointwise by the exact solution of its
kinetics ODE with s frozen over the step.  The SO2 concentration s advances
by backward Euler on the conservative form

    (phi(c^{n+1}) s^{n+1} - phi(c^n) s^n)/dt
        - div_h(phi(c^{n+1}) grad_h s^{n+1})
        + lam * phi(c^{n+1}) c^{n+1} s^{n+1}  =  source,

discretized with the 5-point flux stencil, face diffusivity the arithmetic
mean of nodal phi, homogeneous Neumann on isolated edges and Robin exchange
phi*dn(s) = -nu(r)(s - sbar) on the exposed edge.  Rows are scaled by the
dual-cell volumes, which makes the matrix symmetric, an M-matrix, and
strictly diagonally dominant for every dt > 0, so the discrete solution
inherits positivity and (under the ceiling assumptions) s <= S0.

The system is solved by conjugate gradients preconditioned with a
fast-diagonalisation (Lynch-Rice-Thomas) solve of the constant-coefficient
operator

    M = phi_bar * K + m_bar * V,

K the unit-diffusivity Neumann stiffness and V the dual volumes, applied as
P^{-1} = S M^{-1} S with S = sqrt(diag(M)/diag(A)) absorbing the variation
of phi(c) and the Robin diagonal (a Concus-Golub preconditioner).  On the
vertex-centred grid with trapezoid volumes the DCT-I basis diagonalises K,
so M^{-1} is four small dense products; the iteration count stays flat
under refinement.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .grid import GRID_CACHE_SIZE, Grid2D
from .model import PhysParams, check_dt, porosity, permeability
from .surface import step_r

if TYPE_CHECKING:
    import scipy.sparse

# scipy's compiled sparse kernels, under scipy's own module name; _matvec
# calls its csr_matvec.
_SPARSETOOLS = "scipy.sparse._sparsetools"


def _load_sparsetools(scipy_dir: str) -> None:
    """Load scipy.sparse._sparsetools from its extension file under scipy_dir.

    Importing it by name would first run the scipy.sparse package init,
    which imports scipy's array-API layer and with it numpy.f2py,
    numpy.testing and numpy.ma: 150-190 ms and 22 MB of RSS, more than all
    the rest of import sulphsim.  The extension holds only compiled kernels
    and needs no package init.  It is registered under scipy's name, so a
    later import scipy.sparse takes this module instead of loading the
    file a second time.
    """
    stem = os.path.join(scipy_dir, "sparse", "_sparsetools")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(
            f"scipy's CSR kernel not found: none of {', '.join(paths)} exists",
            name=_SPARSETOOLS,
        )
    loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_SPARSETOOLS, loader))
    loader.exec_module(module)
    sys.modules[_SPARSETOOLS] = module


if _SPARSETOOLS not in sys.modules:  # not yet loaded by an import of scipy.sparse
    _scipy = importlib.util.find_spec("scipy")  # locates the package; imports nothing
    if _scipy is None:
        raise ModuleNotFoundError("sulphsim needs scipy", name="scipy")
    _load_sparsetools(_scipy.submodule_search_locations[0])
_csr_matvec = sys.modules[_SPARSETOOLS].csr_matvec

# Size of a block allocated and freed once, at import.  glibc's malloc maps
# a block above its mmap threshold (128 KiB at start) with mmap, and freeing
# such a block raises that threshold to the block's size and the heap-trim
# threshold to twice it (mallopt(3)).  Without that, each step from 129^2
# up returns its freed temporaries to the kernel and faults them back in
# on the next step: 250-370 page faults per step at 129^2, against 0 with
# the block.  4 MiB holds the largest per-step array up to 257^2, the
# 2.6 MB matrix data.  Under another allocator the block is one
# allocation that changes nothing.
_HEAP_WARMUP_BYTES = 1 << 22
np.empty(_HEAP_WARMUP_BYTES // 8)

# CG tolerance of step() and of the MMS harness's solves: tighter than the
# cg_solve default so the solver error stays well below the 1e-10 invariant
# tolerances.
STEP_CG_TOL = 1e-12
# Most solutions an s-solve's start extrapolates (see history_start).  Each
# stored solution's CG error is amplified by 2**depth - 1 in the start, so
# deeper histories gained no iterations on the Weibull runs.
HISTORY_DEPTH = 7


@dataclass
class FieldState:
    """Bulk fields s, c (length nx*ny) plus boundary fields r, xi at one time.

    history holds the s of up to HISTORY_DEPTH - 1 earlier steps, newest
    first: s^(n-1), s^(n-2), ...  step() reads it and passes it on; it holds
    arrays only, so a state keeps no earlier state alive.  A state without
    it, such as an initial one, starts the history afresh.
    """

    t: float
    s: np.ndarray
    c: np.ndarray
    r: np.ndarray
    xi: np.ndarray
    history: tuple[np.ndarray, ...] = ()


@dataclass
class LinearSystem:
    """The s-system of one grid: a 5-point matrix in CSR layout plus right-hand side.

    pattern is the grid stencil the system was assembled on.  It fixes the
    CSR structure, which indptr and indices read: five entries per row
    (see _Pattern), the stencil's nonzeros plus an explicit 0 for each
    neighbour a boundary row lacks, placed on the row's own column.  data
    holds the entries in that layout.  model_coefs = (phi_bar, m_bar) are
    the coefficients of the constant-coefficient model operator that
    preconditions the system (see _preconditioner).
    """

    pattern: _Pattern
    data: np.ndarray
    rhs: np.ndarray
    model_coefs: tuple[float, float]

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def indptr(self) -> np.ndarray:
        return self.pattern.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.pattern.indices

    def matrix(self) -> scipy.sparse.csr_matrix:
        """The matrix as a canonical csr_matrix that owns copies of the arrays.

        Duplicate entries are summed and each row's columns ascend, so the
        pads merge into the diagonal (0.0 + d = d) and scipy routines that
        canonicalise in place, such as spsolve, accept it.  The first call
        in a process imports scipy.sparse, which a run never needs (see
        _load_sparsetools).  An import that finds the kernel module already
        loaded does not bind it as scipy.sparse's attribute, so this call
        binds it.  Raises a ValueError if data or rhs does not fit the
        pattern (see _check_arrays).
        """
        import scipy.sparse as sp

        if "_sparsetools" not in vars(sp):
            sp._sparsetools = sys.modules[_SPARSETOOLS]
        _check_arrays(self)
        a = sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n), copy=True)
        a.sum_duplicates()
        return a

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal, a strided view into data."""
        return self.data[self.pattern.diag_slot]


def _cosine_basis(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """DCT-I eigenbasis of the 1D Neumann Laplacian with trapezoid weights.

    Returns (Q, lam) with Q[i, k] = sqrt(c_k) cos(pi*i*k/(n-1)), c_k = 1 at
    k = 0, n-1 and 2 inside, so that Q^T W Q = I for the trapezoid weights
    W, and lam_k = (4/h^2) sin^2(pi*k/(2(n-1))).
    """
    k = np.arange(n)
    q = np.cos(np.pi * np.outer(k, k) / (n - 1))
    c = np.full(n, 2.0)
    c[0] = c[-1] = 1.0
    lam = (4.0 / h**2) * np.sin(0.5 * np.pi * k / (n - 1)) ** 2
    return q * np.sqrt(c), lam


# Slots of one CSR row, in ascending column order p-nx, p-1, p, p+1, p+nx.
SOUTH, WEST, DIAG, EAST, NORTH = range(5)


class _Pattern:
    """Fixed CSR structure of the 5-point stencil for one grid.

    Every row has five slots S, W, D, E, N, whose columns p-nx, p-1, p,
    p+1, p+nx ascend.  A neighbour that a boundary row lacks keeps its slot
    as an explicit 0 on the row's own column.  The data array of a system
    therefore reshapes to (ny, nx, 5), and each per-step fill is one
    strided write instead of a scatter; a matrix-vector product sums the
    real entries of a row in the same order as without the pads, each of
    which adds +0.0.  Face arrays are flat: tx[p] joins node p to p+1 and
    is 0 at the end of each row, ty[p] joins p to p+nx.

    Also holds the grid's exposed trace and the constant-coefficient model
    solve: with Q = Qy (x) Qx and eig = lam_y (+) lam_x (shape (ny, nx)),
    M = phi_bar*K + m_bar*V satisfies M^{-1} = Q diag(1/(phi_bar*eig +
    m_bar)) Q^T; unit_diag is diag(K), the stiffness diagonal for phi = 1.
    """

    diag_slot = slice(DIAG, None, 5)

    def __init__(self, grid: Grid2D):
        nx, ny = grid.nx, grid.ny
        n = nx * ny
        node = np.arange(n).reshape(ny, nx)
        cols = np.repeat(node[:, :, None], 5, axis=2)  # pads: the row's own column
        cols[1:, :, SOUTH] = node[:-1, :]
        cols[:, 1:, WEST] = node[:, :-1]
        cols[:, :-1, EAST] = node[:, 1:]
        cols[:-1, :, NORTH] = node[1:, :]

        wx = grid.axis_weights(nx, grid.hx)
        wy = grid.axis_weights(ny, grid.hy)

        # Face lengths in flat layout.  The x-face from node p to p+1 has the
        # dual length wy of its row; the last "face" of each row wraps to the
        # next row and is zeroed wherever a face array is built.  The y-face
        # from node p to p+nx has the dual length wx of its column.
        self.xlen = np.repeat(wy, nx)
        self.ylen = np.tile(wx, ny - 1)
        self.hx, self.hy = grid.hx, grid.hy

        self.shape = (ny, nx)
        self.indptr = np.arange(0, 5 * n + 1, 5, dtype=np.int32)
        self.indices = cols.ravel().astype(np.int32)
        self.volumes = grid.node_volumes()
        self.volume_sum = self.volumes.sum()
        self.n = n
        self.trace = grid.exposed_trace()
        self.zeros = np.zeros(n)  # see _first_non_finite

        self.qx, lam_x = _cosine_basis(nx, grid.hx)
        self.qy, lam_y = _cosine_basis(ny, grid.hy)
        self.eig = lam_y[:, None] + lam_x[None, :]
        unit_x = self.xlen / grid.hx
        unit_x[nx - 1 :: nx] = 0.0
        self.unit_diag = np.zeros(n)
        _add_face_couplings(self.unit_diag, unit_x, self.ylen / grid.hy, nx)
        self.unit_diag_sum = self.unit_diag.sum()
        for a in (self.indptr, self.indices, self.volumes, self.zeros, self.unit_diag):
            a.flags.writeable = False


def _add_face_couplings(diag: np.ndarray, tx: np.ndarray, ty: np.ndarray, nx: int) -> None:
    """Add to each node's diagonal entry the couplings of its faces.

    tx (length n) couples each node to its east neighbour and is 0 at the
    end of each row; ty (length n - nx) couples it to its north neighbour.
    The order east, west, north, south is fixed, and each node gets one
    term per direction (+0.0 from a row-end zero), so the sums equal a
    face-by-face scatter in that order.
    """
    diag += tx
    diag[1:] += tx[:-1]
    diag[:-nx] += ty
    diag[nx:] += ty


# One stencil pattern per grid value, shared by every system assembled on it.
_pattern = functools.lru_cache(maxsize=GRID_CACHE_SIZE)(_Pattern)


def c_update_exact(c_n, s_frozen, dt: float, p: PhysParams):
    """Exact one-step kinetics update with s frozen over [t, t+dt].

    The ODE dc/dt = -lam*(A+B*c)*c*s is of Bernoulli type; its closed form

        c(t+dt) = A*c_n / ((A + B*c_n) * exp(lam*A*s*dt) - B*c_n)

    is monotone nonincreasing in dt and stays in [0, c_n].  The final clip
    only shields that guarantee against last-ulp roundoff.
    """
    check_dt(dt)
    c_n = np.asarray(c_n, dtype=float)
    s_frozen = np.asarray(s_frozen, dtype=float)
    # min() decides a clean array in one pass.  It propagates NaN, so an
    # array holding one goes on to the elementwise test, under which a NaN
    # entry passes but a negative entry still fails.
    if s_frozen.size and not s_frozen.min() >= 0 and np.any(s_frozen < 0):
        raise ValueError("c_update_exact requires s_frozen >= 0")
    # The closed form in place in x, each operation as written above; the
    # clip is its two halves, which numpy's clip matches bit for bit.
    bc = p.B * c_n
    x = np.empty(np.broadcast(c_n, s_frozen).shape)
    np.multiply(p.lam * p.A, s_frozen, out=x)
    x *= dt
    np.minimum(x, 700.0, out=x)  # exp overflow guard
    np.exp(x, out=x)
    x *= p.A + bc
    x -= bc
    np.divide(p.A * c_n, x, out=x)
    np.maximum(x, 0.0, out=x)
    np.minimum(x, c_n, out=x)
    return x if x.ndim else x[()]


def _first_non_finite(named, pat: _Pattern) -> str | None:
    """Name of the first of the (name, array) pairs holding a NaN or inf, or None.

    One dot per array with zeros: 0*NaN and 0*inf are NaN, so the dot is
    finite exactly when the array is, whatever the size of its entries.
    """
    with np.errstate(invalid="ignore"):
        for name, arr in named:
            if not math.isfinite(arr @ pat.zeros):
                return name
    return None


def _check_shapes(pat: _Pattern, nodal, edge) -> None:
    """Raise a ValueError naming the first array whose shape does not fit pat.

    nodal and edge are (name, array) pairs of fields on the grid's nodes
    and on its exposed trace.  Only the shapes are compared; no array is
    read.
    """
    ny, nx = pat.shape
    for named, want, place in (
        (nodal, (pat.n,), f"the {nx} x {ny} grid"),
        (edge, (len(pat.trace),), "the exposed trace"),
    ):
        for name, arr in named:
            shape = np.shape(arr)
            if shape != want:
                raise ValueError(f"{name} has shape {shape}, expected {want} for {place}")


def assemble_s_system(
    grid: Grid2D,
    state_old: FieldState,
    c_new: np.ndarray,
    r_new: np.ndarray,
    dt: float,
    p: PhysParams,
    source: np.ndarray | None = None,
    boundary_flux: np.ndarray | None = None,
) -> LinearSystem:
    """Build the backward-Euler system for s^{n+1}.

    source is an optional nodal forcing and boundary_flux an optional flux
    g added to the exchange law, phi*dn(s) = -nu(r_new)*(s - sbar) + g,
    with one value per exposed-trace node (both used by the verification
    harness).  Rows are scaled by dual-cell volumes, so the matrix is
    symmetric by construction.
    """
    check_dt(dt)
    pat = _pattern(grid)
    edge = (("r_new", r_new),)
    if boundary_flux is not None:
        edge += (("boundary_flux", boundary_flux),)
    nodal = (("c_new", c_new), ("s_old", state_old.s), ("c_old", state_old.c))
    forcing = () if source is None else (("source", source),)
    _check_shapes(pat, nodal + forcing, edge)
    bad = _first_non_finite(nodal, pat)
    if bad:
        raise ValueError(f"non-finite values in {bad}")
    _, rhs = _old_state_terms(pat, state_old, dt, p)
    flux = 0.0 if boundary_flux is None else boundary_flux
    return _assemble(pat, rhs, c_new, r_new, dt, p, source, flux)[0]


def _old_state_terms(pat: _Pattern, state_old: FieldState, dt: float, p: PhysParams):
    """phi(c^n) and V*phi(c^n)*s^n/dt, the part of the s-system the old state fixes.

    step() and assemble_s_system() share it.  The right-hand side is built
    in place, in the operation order of its formula.
    """
    phi_old = np.asarray(porosity(state_old.c, p))
    rhs = np.multiply(phi_old, state_old.s)
    rhs /= dt
    rhs *= pat.volumes
    return phi_old, rhs


def _assemble(
    pat: _Pattern,
    rhs: np.ndarray,
    c_new: np.ndarray,
    r_new: np.ndarray,
    dt: float,
    p: PhysParams,
    source: np.ndarray | None = None,
    boundary_flux: np.ndarray | float = 0.0,
) -> tuple[LinearSystem, np.ndarray]:
    """The s-system on pat's grid, and phi(c_new), from checked inputs.

    rhs is the old-state part of the right-hand side (see
    _old_state_terms); the system takes it over and adds the source and
    exchange terms in place.
    """
    phi_new = np.asarray(porosity(c_new, p))

    # Each coefficient is built in place, in the operation order of its
    # formula: tx = 0.5*(phi_p + phi_q)*xlen/hx, mass = V*phi*(1/dt + lam*c),
    # rhs += V*source.  Face arrays are flat, as in _add_face_couplings.
    n, nx = pat.n, pat.shape[1]
    tx = np.empty(n)
    tx[-1] = 0.0
    np.add(phi_new[:-1], phi_new[1:], out=tx[:-1])
    tx *= 0.5
    tx *= pat.xlen
    tx /= pat.hx
    tx[nx - 1 :: nx] = 0.0
    ty = np.add(phi_new[:-nx], phi_new[nx:])
    ty *= 0.5
    ty *= pat.ylen
    ty /= pat.hy

    mass = np.multiply(p.lam, c_new)
    mass += 1.0 / dt
    mass *= pat.volumes * phi_new
    if source is not None:
        rhs += pat.volumes * np.asarray(source)
    # volume-weighted mean of the mass + reaction coefficient, before the
    # diagonal is built on mass in place
    m_bar = float(mass.sum() / pat.volume_sum)

    diag = mass
    trace = pat.trace
    nu = np.asarray(permeability(r_new, p), dtype=float)
    if (nu < 0).any():
        raise ValueError("negative boundary permeability nu(r)")
    diag[trace.indices] += nu * trace.weights
    rhs[trace.indices] += trace.weights * (nu * p.sbar + boundary_flux)
    _add_face_couplings(diag, tx, ty, nx)

    # One strided write per slot (see _Pattern), then the pads.
    data = np.empty(5 * n)
    data[DIAG::5] = diag
    np.negative(tx, out=data[EAST::5])
    np.negative(tx[:-1], out=data[WEST + 5 :: 5])
    np.negative(ty, out=data[NORTH : 5 * (n - nx) : 5])
    np.negative(ty, out=data[SOUTH + 5 * nx :: 5])
    slots = data.reshape(*pat.shape, 5)
    slots[:, -1, EAST] = slots[:, 0, WEST] = slots[-1, :, NORTH] = slots[0, :, SOUTH] = 0.0

    # Face-coupling-weighted mean of phi (each face enters two diagonal
    # entries).  The x-faces are summed as the contiguous (ny, nx-1) array
    # they form without the row-end zeros, which fixes the order of the sum.
    tx_sum = np.ascontiguousarray(tx.reshape(pat.shape)[:, :-1]).sum()
    phi_bar = float(2.0 * (tx_sum + ty.sum()) / pat.unit_diag_sum)
    return LinearSystem(pat, data, rhs, (phi_bar, m_bar)), phi_new


class CgNonConvergence(RuntimeError):
    """Raised when PCG exhausts max_iter; carries the residual history."""

    def __init__(self, history: list[float], max_iter: int):
        super().__init__(
            f"conjugate gradients did not converge in {max_iter} iterations "
            f"(last residual {history[-1]:.3e})"
        )
        self.residual_history = history
        self.max_iter = max_iter

    def __reduce__(self):
        # rebuilt from its own arguments, so it pickles (as from a worker process)
        return type(self), (self.residual_history, self.max_iter)


class CgBreakdown(RuntimeError):
    """Raised when PCG cannot succeed: a non-finite residual or p.Ap <= 0."""


def _preconditioner(sys: LinearSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Return r -> P^{-1} r, the preconditioner cg_solve uses for sys.

    P^{-1} = S M^{-1} S, with M the constant-coefficient model operator and
    S = sqrt(diag(M)/diag(A)), applied through the cosine eigenbasis; it is
    symmetric positive definite.  The basis is applied as dense products
    rather than scipy.fft.dctn(type=1): on a 2-core Xeon with two OpenBLAS
    threads one apply took 48/380/1750 us that way, against 93/410/1790 us
    for the forward and inverse dctn alone, at 65^2/129^2/257^2 (with one
    thread, 55/380/2680 us against 130/410/1820 us).
    """
    d = sys.diagonal()
    # min() propagates NaN, so a diagonal holding one goes on to the
    # elementwise test: NaN entries pass (CG then stops on a non-finite
    # residual), any entry <= 0 does not.
    if d.size and not d.min() > 0 and (d <= 0).any():
        raise ValueError("system diagonal is not strictly positive")
    pat = sys.pattern
    phi_bar, m_bar = sys.model_coefs
    # 1/(phi_bar*eig + m_bar) and sqrt((phi_bar*unit_diag + m_bar*V)/d), in place
    inv_eig = phi_bar * pat.eig
    inv_eig += m_bar
    np.divide(1.0, inv_eig, out=inv_eig)
    scale = phi_bar * pat.unit_diag
    scale += m_bar * pat.volumes
    scale /= d
    scale = np.sqrt(scale, out=scale).reshape(pat.shape)
    qx, qy = pat.qx, pat.qy

    def apply(r: np.ndarray) -> np.ndarray:
        w = qy.T @ (scale * r.reshape(pat.shape)) @ qx
        w *= inv_eig
        z = qy @ w @ qx.T
        z *= scale
        return z.ravel()

    return apply


def _check_arrays(sys: LinearSystem) -> None:
    """Raise a ValueError unless sys's data and rhs fit its pattern of sys.n rows.

    scipy's CSR kernel checks nothing, and reads data past its end if it
    is short.  indptr and indices are the pattern's own, built valid.
    """
    n = sys.n
    if sys.data.shape != (5 * n,) or sys.data.dtype != np.float64 or sys.rhs.shape != (n,):
        raise ValueError(f"system arrays do not form a float64 CSR matrix of {n} rows")


def _matvec(sys: LinearSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Return x -> A x for sys, as a new array.

    Calls scipy's CSR kernel directly: it sums each row in storage order,
    as csr_matrix @ x does, but skips the csr_matrix construction and the
    operator dispatch, about 25 us per solve at any grid size.  The kernel
    checks nothing, so this checks the arrays (see _check_arrays) and each
    vector's shape.
    """
    _check_arrays(sys)
    n, indptr, indices, data = sys.n, sys.indptr, sys.indices, sys.data

    def matvec(x: np.ndarray) -> np.ndarray:
        if x.shape != (n,):
            raise ValueError(f"vector of shape {x.shape} for a system of {n} rows")
        y = np.zeros(n)
        _csr_matvec(n, n, indptr, indices, data, x, y)
        return y

    return matvec


def cg_solve(
    sys: LinearSystem,
    x0: np.ndarray | None = None,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
):
    """Preconditioned conjugate gradients.

    The preconditioner is the fast-diagonalisation model solve (see
    _preconditioner()).  Returns (solution, iterations, final true
    residual norm); stops when ||b - A x||_2 <= rel_tol * ||b||_2.  The
    recursive residual controls the iteration and the true residual is
    verified before returning.  A start x0 whose residual is nonzero is
    refined by at least one
    iteration even if it already meets the tolerance, so that an
    extrapolated start is never returned as it came; one whose residual
    is exactly 0 is returned at once, with 0 iterations.  A right-hand
    side whose norm is outside [1e-100, 1e100], where the squares in the
    norms would under- or overflow, is solved scaled by a power of 2,
    which every iterate follows exactly.  Raises CgBreakdown at once on a
    non-finite residual or p.Ap <= 0, and CgNonConvergence after max_iter
    iterations.
    """
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0,1) (got {rel_tol})")
    n = sys.n
    if max_iter is None:
        max_iter = 10 * n
    matvec = _matvec(sys)
    precond = _preconditioner(sys)
    b = sys.rhs
    with np.errstate(over="ignore"):  # a huge b is rescaled below
        bnorm = math.sqrt(b @ b)
    if not 1e-100 <= bnorm <= 1e100 and np.isfinite(b).all():
        if not b.any():
            return np.zeros(n), 0, 0.0
        shift = -math.frexp(np.abs(b).max())[1]
        x, k, res = cg_solve(
            replace(sys, rhs=np.ldexp(b, shift)),
            None if x0 is None else np.ldexp(x0, shift),
            rel_tol,
            max_iter,
        )
        return np.ldexp(x, -shift), k, math.ldexp(res, -shift)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - matvec(x)
    history = [math.sqrt(r @ r)]
    target = rel_tol * bnorm
    step_vec = np.empty(n)  # alpha*p and alpha*Ap, before they update x and r
    # The preconditioner is applied only after the convergence test, so the
    # last residual is never preconditioned; pvec None (re)starts the
    # search direction.  precond returns a fresh array, which pvec may own.
    pvec = None

    for k in range(max_iter + 1):
        if not math.isfinite(history[-1]):
            raise CgBreakdown(
                f"non-finite residual norm at iteration {k} "
                "(NaN or inf in the matrix, right-hand side or start vector)"
            )
        if history[-1] <= target and (k or history[-1] == 0.0):
            true_r = b - matvec(x)
            tn = math.sqrt(true_r @ true_r)
            if tn <= target:
                return x, k, tn
            # recursive residual drifted; restart from the true one
            r = true_r
            pvec = None
            history[-1] = tn
        if k == max_iter:
            break
        z = precond(r)
        rz_new = float(r @ z)
        if pvec is None:
            pvec = z
        else:  # p = z + beta*p
            pvec *= rz_new / rz
            pvec += z
        rz = rz_new
        ap = matvec(pvec)
        pap = float(pvec @ ap)
        if not pap > 0.0:
            raise CgBreakdown(
                f"p.Ap = {pap:.3e} at iteration {k}: the matrix is not positive definite"
            )
        alpha = rz / pap
        x += np.multiply(alpha, pvec, out=step_vec)
        r -= np.multiply(alpha, ap, out=step_vec)
        history.append(math.sqrt(r @ r))

    raise CgNonConvergence(history, max_iter)


@dataclass
class BalanceTerms:
    """Per-step byproducts consumed by the invariant audit and the next step.

    The first three entries are the summands of the discrete balance
    identity obtained by summing the volume-scaled scheme over all nodes;
    s_trace is the frozen s that the rugosity update read on the exposed
    trace (the c it read is the new c there).  cg_iterations and
    cg_residual are the s-solve's CG iterations and final true residual.
    """

    accumulation: float
    reaction: float
    boundary_exchange: float
    s_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cg_iterations: int = 0
    cg_residual: float = 0.0


def history_start(values) -> np.ndarray:
    """Where a solve starts, from its quantity's values at the last steps.

    values holds m >= 1 of them, newest first, and the start is their
    interpolating polynomial extrapolated one step ahead (Fischer's
    history-based initial guess),

        x = sum_{j<m} (-1)^j C(m, j+1) v_j,

    exact for values of a polynomial of degree m - 1 in the step: v0,
    2*v0 - v1, 3*v0 - 3*v1 + v2, ...  The sum is taken term by term in
    index order, so two values give 2*v0 - v1 bit for bit.  step() and
    the MMS harness take their s-solve starts from here, from up to
    HISTORY_DEPTH values; cg_solve copies its start, so with one value v0
    itself is returned.
    """
    m = len(values)
    if m == 1:
        return values[0]
    x = np.multiply(float(m), values[0])
    term = np.empty_like(x)
    for j in range(1, m):
        coef = math.comb(m, j + 1)
        v = values[j] if coef == 1 else np.multiply(float(coef), values[j], out=term)
        if j % 2:
            x -= v
        else:
            x += v
    return x


def step(
    state: FieldState,
    dt: float,
    grid: Grid2D,
    p: PhysParams,
) -> tuple[FieldState, BalanceTerms]:
    """Advance the coupled state by one time step.

    (1) c from the exact kinetics with s frozen, (2) r by the explicit
    surface update using traces of the new c and the frozen s, (3) s from
    the implicit solve with coefficients phi(c_new), nu(r_new).

    The frozen s is max(2*s^n - s^(n-1), 0), the extrapolated explicit
    coupling of IMEX schemes (Ascher, Ruuth & Wetton 1995), when
    state.history holds s^(n-1), and max(s^n, 0) when it is empty.  It
    feeds only the kinetics and the rugosity update, so the solve is the
    same M-matrix solve either way.

    The history otherwise only chooses where CG starts: the extrapolation
    of s^n and up to HISTORY_DEPTH - 1 earlier values (see history_start).
    The solve stops at the same tolerance from any start, so the start
    moves the result only within it.  The new state's history is s^n
    followed by the newest HISTORY_DEPTH - 2 values it read.
    """
    check_dt(dt)
    pat = _pattern(grid)
    trace = pat.trace
    history = state.history[: HISTORY_DEPTH - 1]
    nodal = (("s_old", state.s), ("c_old", state.c))
    named_history = tuple((f"history[{i}]", v) for i, v in enumerate(history))
    _check_shapes(pat, nodal + named_history, (("r_old", state.r),))
    bad = _first_non_finite(nodal, pat)
    if bad:
        raise ValueError(f"non-finite values in {bad}")
    phi_old, rhs = _old_state_terms(pat, state, dt, p)
    s_hist = (state.s,) + history  # newest first

    # Frozen s must be nonnegative for the kinetics; the solve itself can
    # leave -1e-12-scale noise which would otherwise flip the decay sign.
    s_frozen = np.maximum(history_start(s_hist[:2]), 0.0)
    c_new = c_update_exact(state.c, s_frozen, dt, p)
    if _first_non_finite((("c_new", c_new),), pat):
        raise ValueError("non-finite values in c_new")
    s_tr = s_frozen[trace.indices]
    r_new, xi = step_r(state.r, c_new[trace.indices], s_tr, dt, p)
    sys, phi_new = _assemble(pat, rhs, c_new, r_new, dt, p)
    s_new, n_iter, resid = cg_solve(sys, x0=history_start(s_hist), rel_tol=STEP_CG_TOL)
    if _first_non_finite((("s", s_new),), pat):
        raise ValueError("non-finite s after implicit solve")

    v = pat.volumes
    accumulation = float((v * (phi_new * s_new - phi_old * state.s)).sum() / dt)
    reaction = float(p.lam * (v * phi_new * c_new * s_new).sum())
    nu = np.asarray(permeability(r_new, p))
    boundary = float((trace.weights * nu * (p.sbar - s_new[trace.indices])).sum())

    new_state = FieldState(state.t + dt, s_new, c_new, r_new, xi, s_hist[: HISTORY_DEPTH - 1])
    terms = BalanceTerms(
        accumulation=accumulation,
        reaction=reaction,
        boundary_exchange=boundary,
        s_trace=s_tr,
        cg_iterations=n_iter,
        cg_residual=resid,
    )
    return new_state, terms
