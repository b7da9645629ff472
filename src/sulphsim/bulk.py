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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import GRID_CACHE_SIZE, Grid2D
from .model import PhysParams, PSI_ZERO, PsiPolynomial, porosity, permeability
from .surface import step_r

# CG tolerance used inside step(): tighter than the cg_solve default so the
# solver error stays well below the 1e-10 invariant tolerances.
STEP_CG_TOL = 1e-12


@dataclass
class FieldState:
    """Bulk fields s, c (length nx*ny) plus boundary fields r, xi at one time."""

    t: float
    s: np.ndarray
    c: np.ndarray
    r: np.ndarray
    xi: np.ndarray

    def copy(self) -> "FieldState":
        return FieldState(self.t, self.s.copy(), self.c.copy(), self.r.copy(), self.xi.copy())


@dataclass
class RobinData:
    """Per-trace-node boundary data phi*dn(s) = -nu*(s - sbar) + flux.

    The production path uses nu = nu(r), sbar from the parameters and
    flux = 0; the verification harness overrides all three.
    """

    nu: np.ndarray
    sbar: np.ndarray
    flux: np.ndarray


@dataclass
class LinearSystem:
    """Symmetric positive definite system in CSR layout plus right-hand side.

    pattern is the grid stencil the system was assembled on and
    model_coefs = (phi_bar, m_bar) the coefficients of the
    constant-coefficient model operator that preconditions it.  A system
    built by hand, without them, is preconditioned with Jacobi.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    dominance_margin: float
    pattern: _Pattern | None = None
    model_coefs: tuple[float, float] | None = None

    @property
    def n(self) -> int:
        return len(self.rhs)

    def matrix(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    def dense(self) -> np.ndarray:
        return self.matrix().toarray()

    def diagonal(self) -> np.ndarray:
        if self.pattern is not None:
            return self.data[self.pattern.diag_pos]
        return self.matrix().diagonal()


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


class _Pattern:
    """Fixed CSR structure of the 5-point stencil for one grid.

    Precomputes, once per grid (see _pattern), where each diagonal and face
    contribution lands in the CSR data array, so per-step assembly is pure
    vectorized fills.  Face arrays are 2D: x-faces (ny, nx-1) join node
    (j, i) to (j, i+1), y-faces (ny-1, nx) join (j, i) to (j+1, i).

    Also holds the constant-coefficient model solve: with Q = Qy (x) Qx and
    eig = lam_y (+) lam_x (shape (ny, nx)), M = phi_bar*K + m_bar*V
    satisfies M^{-1} = Q diag(1/(phi_bar*eig + m_bar)) Q^T; unit_diag is
    diag(K), the stiffness diagonal for phi = 1.
    """

    def __init__(self, grid: Grid2D):
        nx, ny = grid.nx, grid.ny
        n = nx * ny
        p = np.arange(n)
        i = p % nx
        j = p // nx
        has_w = i > 0
        has_e = i < nx - 1
        has_s = j > 0
        has_n = j < ny - 1

        deg = 1 + has_w + has_e + has_s + has_n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        row0 = indptr[:-1]

        # Neighbor columns of row p sorted ascending: p-nx, p-1, p, p+1, p+nx.
        south_pos = row0
        west_pos = row0 + has_s
        diag_pos = row0 + has_s + has_w
        east_pos = diag_pos + 1
        north_pos = indptr[1:] - 1

        indices = np.empty(indptr[-1], dtype=np.int64)
        indices[diag_pos] = p
        indices[south_pos[has_s]] = p[has_s] - nx
        indices[west_pos[has_w]] = p[has_w] - 1
        indices[east_pos[has_e]] = p[has_e] + 1
        indices[north_pos[has_n]] = p[has_n] + nx

        wx = grid.axis_weights(nx, grid.hx)
        wy = grid.axis_weights(ny, grid.hy)

        # x-faces: dual length wy of the row; y-faces: wx of the column.
        self.xlen = wy[:, None]
        self.xpos_pq = east_pos[has_e].reshape(ny, nx - 1)
        self.xpos_qp = west_pos[p[has_e] + 1].reshape(ny, nx - 1)
        self.ylen = wx[None, :]
        self.ypos_pq = north_pos[has_n].reshape(ny - 1, nx)
        self.ypos_qp = south_pos[p[has_n] + nx].reshape(ny - 1, nx)

        self.shape = (ny, nx)
        # 32-bit CSR indices: scipy keeps them as given instead of copying
        # them down on every csr_matrix construction.  The data positions
        # above stay native-width for cheap fancy indexing.
        self.indptr = indptr.astype(np.int32)
        self.indices = indices.astype(np.int32)
        self.diag_pos = diag_pos
        self.volumes = grid.node_volumes()
        self.n = n

        self.qx, lam_x = _cosine_basis(nx, grid.hx)
        self.qy, lam_y = _cosine_basis(ny, grid.hy)
        self.eig = lam_y[:, None] + lam_x[None, :]
        unit_diag = np.zeros(self.shape)
        _add_face_couplings(
            unit_diag,
            np.broadcast_to(self.xlen / grid.hx, (ny, nx - 1)),
            np.broadcast_to(self.ylen / grid.hy, (ny - 1, nx)),
        )
        self.unit_diag = unit_diag.ravel()


def _add_face_couplings(diag2: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> None:
    """Add to each node of the (ny, nx) diagonal the couplings of its faces.

    The order east, west, north, south is fixed; each slice hits a node at
    most once, so the sums equal a face-by-face scatter in that order.
    """
    diag2[:, :-1] += tx
    diag2[:, 1:] += tx
    diag2[:-1, :] += ty
    diag2[1:, :] += ty


# One stencil pattern per grid value, shared by every system assembled on it.
_pattern = functools.lru_cache(maxsize=GRID_CACHE_SIZE)(_Pattern)


def c_update_exact(c_n, s_frozen, dt: float, p: PhysParams):
    """Exact one-step kinetics update with s frozen over [t, t+dt].

    The ODE dc/dt = -lam*(A+B*c)*c*s is of Bernoulli type; its closed form

        c(t+dt) = A*c_n / ((A + B*c_n) * exp(lam*A*s*dt) - B*c_n)

    is monotone nonincreasing in dt and stays in [0, c_n].  The final clip
    only shields that guarantee against last-ulp roundoff.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0 (dt={dt})")
    c_n = np.asarray(c_n, dtype=float)
    s_frozen = np.asarray(s_frozen, dtype=float)
    if np.any(s_frozen < 0):
        raise ValueError("c_update_exact requires s_frozen >= 0")
    x = np.minimum(p.lam * p.A * s_frozen * dt, 700.0)  # exp overflow guard
    denom = (p.A + p.B * c_n) * np.exp(x) - p.B * c_n
    return np.clip(p.A * c_n / denom, 0.0, c_n)


def assemble_s_system(
    grid: Grid2D,
    state_old: FieldState,
    c_new: np.ndarray,
    r_new: np.ndarray,
    dt: float,
    p: PhysParams,
    source: np.ndarray | None = None,
    robin_data: RobinData | None = None,
) -> LinearSystem:
    """Build the backward-Euler system for s^{n+1}.

    source is an optional nodal forcing (used by the verification harness);
    robin_data overrides the exposed-edge exchange data.  Rows are scaled
    by dual-cell volumes, so the matrix is symmetric by construction.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0 (dt={dt})")
    for name, arr in (("c_new", c_new), ("s_old", state_old.s), ("c_old", state_old.c)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values in {name}")

    pat = _pattern(grid)
    phi_new = np.asarray(porosity(c_new, p))
    phi_old = np.asarray(porosity(state_old.c, p))

    phi2 = phi_new.reshape(pat.shape)
    tx = 0.5 * (phi2[:, :-1] + phi2[:, 1:]) * pat.xlen / grid.hx
    ty = 0.5 * (phi2[:-1, :] + phi2[1:, :]) * pat.ylen / grid.hy

    mass = pat.volumes * phi_new * (1.0 / dt + p.lam * np.asarray(c_new))
    base_diag = mass.copy()
    rhs = pat.volumes * (phi_old * state_old.s / dt)
    if source is not None:
        rhs = rhs + pat.volumes * np.asarray(source)

    trace = grid.exposed_trace()
    if trace is not None:
        if robin_data is None:
            nu = np.asarray(permeability(r_new, p), dtype=float)
            robin_data = RobinData(
                nu=nu,
                sbar=np.full(len(trace), p.sbar),
                flux=np.zeros(len(trace)),
            )
        if np.any(robin_data.nu < 0):
            raise ValueError("negative boundary permeability nu(r)")
        base_diag[trace.indices] += robin_data.nu * trace.weights
        rhs = rhs.copy()
        rhs[trace.indices] += trace.weights * (
            robin_data.nu * robin_data.sbar + robin_data.flux
        )

    diag = base_diag.copy()
    _add_face_couplings(diag.reshape(pat.shape), tx, ty)

    data = np.empty(len(pat.indices))
    data[pat.diag_pos] = diag
    data[pat.xpos_pq] = -tx
    data[pat.xpos_qp] = -tx
    data[pat.ypos_pq] = -ty
    data[pat.ypos_qp] = -ty

    # Off-diagonal row sums equal the face sums, so the dominance margin is
    # exactly the mass + reaction + Robin diagonal; positive for any dt.
    margin = float(base_diag.min())
    # Face-coupling-weighted mean of phi (each face enters two diagonal
    # entries) and volume-weighted mean of the mass + reaction coefficient.
    phi_bar = float(2.0 * (tx.sum() + ty.sum()) / pat.unit_diag.sum())
    m_bar = float(mass.sum() / pat.volumes.sum())
    return LinearSystem(
        indptr=pat.indptr,
        indices=pat.indices,
        data=data,
        rhs=rhs,
        dominance_margin=margin,
        pattern=pat,
        model_coefs=(phi_bar, m_bar),
    )


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

    For a grid system, P^{-1} = S M^{-1} S with M the constant-coefficient
    model operator and S = sqrt(diag(M)/diag(A)), applied through the
    cosine eigenbasis; for a system built by hand, Jacobi.  Both are
    symmetric positive definite.  The basis is applied as dense products
    rather than scipy.fft.dctn(type=1): on a 2-core Xeon one apply took
    80/450/2400 us that way against 190/500/3000 us at 65^2/129^2/257^2.
    """
    d = sys.diagonal()
    if np.any(d <= 0):
        raise ValueError("system diagonal is not strictly positive")
    if sys.model_coefs is None:
        return lambda r: r / d
    pat = sys.pattern
    phi_bar, m_bar = sys.model_coefs
    inv_eig = 1.0 / (phi_bar * pat.eig + m_bar)
    scale = np.sqrt((phi_bar * pat.unit_diag + m_bar * pat.volumes) / d).reshape(pat.shape)
    qx, qy = pat.qx, pat.qy

    def apply(r: np.ndarray) -> np.ndarray:
        w = qy.T @ (scale * r.reshape(pat.shape)) @ qx
        return (scale * (qy @ (w * inv_eig) @ qx.T)).ravel()

    return apply


def cg_solve(
    sys: LinearSystem,
    x0: np.ndarray | None = None,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
):
    """Preconditioned conjugate gradients.

    The preconditioner (see _preconditioner()) is the fast-diagonalisation
    model solve for a grid system and Jacobi for one built by hand.
    Returns (solution, iterations, final true residual norm); stops when
    ||b - A x||_2 <= rel_tol * ||b||_2.  The recursive residual controls
    the iteration and the true residual is verified before returning.
    Raises CgBreakdown at once on a non-finite residual or p.Ap <= 0, and
    CgNonConvergence after max_iter iterations.
    """
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0,1) (got {rel_tol})")
    n = sys.n
    if max_iter is None:
        max_iter = 10 * n
    a = sys.matrix()
    precond = _preconditioner(sys)
    b = sys.rhs
    bnorm = float(np.sqrt(b @ b))
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - a @ x
    history = [float(np.sqrt(r @ r))]
    target = rel_tol * bnorm
    # The preconditioner is applied only after the convergence test, so the
    # last residual is never preconditioned; pvec None (re)starts the
    # search direction.
    pvec = None

    for k in range(max_iter + 1):
        if not np.isfinite(history[-1]):
            raise CgBreakdown(
                f"non-finite residual norm at iteration {k} "
                "(NaN or inf in the matrix, right-hand side or start vector)"
            )
        if history[-1] <= target:
            true_r = b - a @ x
            tn = float(np.sqrt(true_r @ true_r))
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
        pvec = z if pvec is None else z + (rz_new / rz) * pvec
        rz = rz_new
        ap = a @ pvec
        pap = float(pvec @ ap)
        if not pap > 0.0:
            raise CgBreakdown(
                f"p.Ap = {pap:.3e} at iteration {k}: the matrix is not positive definite"
            )
        alpha = rz / pap
        x += alpha * pvec
        r -= alpha * ap
        history.append(float(np.sqrt(r @ r)))

    raise CgNonConvergence(history, max_iter)


@dataclass
class BalanceTerms:
    """Per-step byproducts consumed by the invariant audit.

    The first four entries are the summands of the discrete balance
    identity obtained by summing the volume-scaled scheme over all nodes;
    the traces record the surface inputs of the final rugosity update.
    """

    accumulation: float
    reaction: float
    boundary_exchange: float
    source_total: float
    c_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    s_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    r_prev: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cg_iterations: int = 0
    cg_residual: float = 0.0


def step(
    state: FieldState,
    dt: float,
    grid: Grid2D,
    p: PhysParams,
    picard_iters: int = 2,
    psi: PsiPolynomial = PSI_ZERO,
    f_ext: np.ndarray | float = 0.0,
) -> tuple[FieldState, BalanceTerms]:
    """Advance the coupled state by one time step.

    Per Picard sweep: (1) c from the exact kinetics with s frozen, (2) r by
    the explicit surface update using traces of the new c and the frozen s,
    (3) s from the implicit solve with coefficients phi(c_new), nu(r_new).
    Further sweeps re-freeze s at the latest iterate and redo (1)-(3) from
    the time-level-n state, approximating the fully implicit coupling; each
    sweep's solve starts from the previous sweep's s.
    """
    if picard_iters < 1:
        raise ValueError("picard_iters must be >= 1")
    pat = _pattern(grid)
    trace = grid.exposed_trace()

    # Frozen s must be nonnegative for the kinetics; the solve itself can
    # leave -1e-12-scale noise which would otherwise flip the decay sign.
    s_frozen = np.maximum(state.s, 0.0)
    c_new = state.c
    r_new, xi = state.r, np.zeros_like(state.r)
    s_new = state.s
    iters = 0
    resid = 0.0
    c_tr = np.zeros(0)
    s_tr = np.zeros(0)

    for _ in range(picard_iters):
        c_new = c_update_exact(state.c, s_frozen, dt, p)
        if trace is not None:
            c_tr = c_new[trace.indices]
            s_tr = s_frozen[trace.indices]
            r_new, xi = step_r(state.r, c_tr, s_tr, dt, p, f_ext=f_ext, psi=psi)
        sys = assemble_s_system(grid, state, c_new, r_new, dt, p)
        s_new, iters, resid = cg_solve(sys, x0=s_new, rel_tol=STEP_CG_TOL)
        if not np.all(np.isfinite(s_new)):
            raise ValueError("non-finite s after implicit solve")
        s_frozen = np.maximum(s_new, 0.0)

    phi_new = np.asarray(porosity(c_new, p))
    phi_old = np.asarray(porosity(state.c, p))
    v = pat.volumes
    accumulation = float(np.sum(v * (phi_new * s_new - phi_old * state.s)) / dt)
    reaction = float(p.lam * np.sum(v * phi_new * c_new * s_new))
    if trace is not None:
        nu = np.asarray(permeability(r_new, p))
        boundary = float(np.sum(trace.weights * nu * (p.sbar - s_new[trace.indices])))
    else:
        boundary = 0.0

    new_state = FieldState(t=state.t + dt, s=s_new, c=c_new, r=r_new, xi=xi)
    terms = BalanceTerms(
        accumulation=accumulation,
        reaction=reaction,
        boundary_exchange=boundary,
        source_total=0.0,
        c_trace=c_tr,
        s_trace=s_tr,
        r_prev=state.r.copy(),
        cg_iterations=iters,
        cg_residual=resid,
    )
    return new_state, terms
