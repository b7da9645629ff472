import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import sulphsim.bulk as bulk
from sulphsim.bulk import (
    DIAG,
    EAST,
    WEST,
    CgBreakdown,
    CgNonConvergence,
    FieldState,
    assemble_s_system,
    cg_solve,
    step,
)
from sulphsim.grid import build_grid
from sulphsim.model import PhysParams

N = 9  # grid side


def grid_system(seed=11):
    """The s-system on the N x N grid, assembled from seeded random c, s and r."""
    rng = np.random.default_rng(seed)
    grid = build_grid(N, N)
    m = len(grid.exposed_trace())
    c = rng.uniform(0.2, 0.9, grid.n_nodes)
    s = rng.uniform(0.0, 1.0, grid.n_nodes)
    r = rng.uniform(0.0, 1.0, m)
    return assemble_s_system(grid, FieldState(0.0, s, c, r, np.zeros(m)), c, r, 1e-2, PhysParams())


def with_slots(sys, fill):
    """sys with its data replaced: fill(slots) edits a copy shaped (N, N, 5) in place."""
    data = sys.data.copy()
    fill(data.reshape(N, N, 5))
    return replace(sys, data=data)


def diagonal_only(sys, diag):
    """sys with every off-diagonal slot zeroed and the diagonal set to diag."""
    data = np.zeros_like(sys.data)
    data[DIAG::5] = diag
    return replace(sys, data=data)


def direct(sys):
    return spla.spsolve(sys.matrix().tocsc(), sys.rhs)


def true_residual(sys, x):
    return np.linalg.norm(sys.rhs - sys.matrix() @ x)


class TestBasics:
    def test_identity(self):
        b = np.random.default_rng(3).standard_normal(N * N)
        sys = replace(diagonal_only(grid_system(), 1.0), rhs=b)
        x, _, _ = cg_solve(sys, rel_tol=1e-12)
        assert np.allclose(x, b, rtol=0, atol=1e-11)

    def test_diagonal(self):
        sys = grid_system()
        d = sys.diagonal().copy()
        x, _, _ = cg_solve(diagonal_only(sys, d), rel_tol=1e-12)
        assert np.allclose(x, sys.rhs / d, rtol=1e-11, atol=0)

    def test_zero_rhs_short_circuits(self):
        sys = replace(grid_system(), rhs=np.zeros(N * N))
        x, iters, res = cg_solve(sys, x0=np.ones(N * N))
        assert np.array_equal(x, np.zeros(N * N))
        assert iters == 0 and res == 0.0

    @pytest.mark.parametrize("shift", [-600, 600])
    def test_tiny_and_huge_rhs_scale_exactly(self, shift):
        # b scaled by 2^-600 (its squares underflow, so b.b == 0) or 2^600
        # (they overflow): the solve is the unscaled one, scaled.
        sys = grid_system()
        x0 = np.random.default_rng(17).standard_normal(N * N)
        x, iters, res = cg_solve(sys, x0=x0, rel_tol=1e-12)
        scaled = replace(sys, rhs=np.ldexp(sys.rhs, shift))
        got = cg_solve(scaled, x0=np.ldexp(x0, shift), rel_tol=1e-12)
        assert np.array_equal(got[0], np.ldexp(x, shift))
        assert got[1] == iters
        assert got[2] == math.ldexp(res, shift)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="rel_tol"):
            cg_solve(grid_system(), rel_tol=0.0)

    def test_rejects_nonpositive_diagonal(self):
        def fill(slots):
            slots[4, 4, DIAG] = -1.0

        with pytest.raises(ValueError, match="not strictly positive"):
            cg_solve(with_slots(grid_system(), fill))


class TestAgainstDenseSolve:
    def test_1d_laplacian_dirichlet_by_large_diagonal(self):
        # each grid row a 1D Laplacian, its end nodes pinned by a 1e6 diagonal
        a = 2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
        a[0, 0] = a[-1, -1] = 1e6

        def fill(slots):
            slots[...] = 0.0
            slots[:, :, DIAG] = np.diag(a)
            slots[:, 1:, WEST] = -1.0
            slots[:, :-1, EAST] = -1.0

        sys = replace(with_slots(grid_system(), fill), rhs=np.ones(N * N))
        x_cg, _, _ = cg_solve(sys, rel_tol=1e-12)
        x_direct = np.linalg.solve(a, np.ones(N))
        assert np.allclose(x_cg.reshape(N, N), x_direct, atol=1e-9)

    def test_random_spd(self):
        sys = grid_system(seed=13)
        x_cg, _, _ = cg_solve(sys, rel_tol=1e-12)
        x_direct = direct(sys)
        assert np.abs(x_cg - x_direct).max() <= 1e-10 * np.abs(x_direct).max()

    def test_warm_start_converges_fast(self):
        sys = grid_system(seed=14)
        x_exact = direct(sys)
        _, iters_cold, _ = cg_solve(sys, rel_tol=1e-10)
        _, iters_warm, _ = cg_solve(sys, x0=x_exact + 1e-12, rel_tol=1e-10)
        assert iters_warm < iters_cold

    def test_start_meeting_the_tolerance_is_refined_once(self):
        # A start already within the tolerance takes one PCG iteration,
        # which does not raise the true residual.
        sys = grid_system(seed=16)
        a, b = sys.matrix(), sys.rhs
        delta = np.random.default_rng(16).standard_normal(N * N)
        tol = 1e-6
        delta *= 0.5 * tol * np.linalg.norm(b) / np.linalg.norm(a @ delta)
        x0 = direct(sys) + delta
        start_residual = true_residual(sys, x0)
        assert 0 < start_residual <= tol * np.linalg.norm(b)
        x, iters, res = cg_solve(sys, x0=x0, rel_tol=tol)
        assert iters == 1
        assert res == pytest.approx(true_residual(sys, x), rel=1e-6)
        assert res <= start_residual

    def test_start_with_zero_residual_returns_at_once(self):
        # b - A x0 is exactly 0: no iteration, and no p.Ap = 0 breakdown.
        sys = grid_system()
        x0 = np.ones(N * N)
        sys = replace(sys, rhs=bulk._matvec(sys)(x0))
        x, iters, res = cg_solve(sys, x0=x0, rel_tol=1e-12)
        assert np.array_equal(x, x0)
        assert iters == 0 and res == 0.0

    def test_residual_criterion(self):
        sys = grid_system(seed=15)
        bnorm = np.linalg.norm(sys.rhs)
        for tol in (1e-6, 1e-10, 1e-12):
            x, _, res = cg_solve(sys, rel_tol=tol)
            assert true_residual(sys, x) <= tol * bnorm * (1 + 1e-12)
            assert res <= tol * bnorm * (1 + 1e-12)


class TestNonConvergence:
    def test_carries_residual_history(self):
        with pytest.raises(CgNonConvergence) as exc:
            cg_solve(grid_system(seed=16), rel_tol=1e-14, max_iter=1)
        hist = exc.value.residual_history
        assert len(hist) == 2
        assert all(h >= 0 for h in hist)

    def test_round_trips_through_pickle(self):
        # as it must to leave a worker process as itself
        err = CgNonConvergence([1.0, 0.5], 3)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is CgNonConvergence
        assert str(back) == str(err)
        assert back.residual_history == [1.0, 0.5]


class TestFailFast:
    def test_non_finite_residual_raises_at_once(self):
        def fill(slots):
            slots[4, 4, EAST] = slots[4, 5, WEST] = np.nan

        with pytest.raises(CgBreakdown, match="non-finite residual norm at iteration 0"):
            cg_solve(with_slots(grid_system(), fill), x0=np.ones(N * N))

    def test_indefinite_matrix_raises_on_nonpositive_curvature(self):
        # positive diagonal, but couplings 100 times too strong: p.Ap < 0
        def fill(slots):
            slots[:, :, :DIAG] *= 100.0
            slots[:, :, DIAG + 1 :] *= 100.0

        with pytest.raises(CgBreakdown, match="at iteration 0: the matrix is not positive definite"):
            cg_solve(with_slots(grid_system(), fill))

    def test_nan_growth_rate_fails_in_first_solve(self):
        # g = nan poisons nu(r) on the Robin edge; without the check CG ran
        # all 10*n iterations before reporting non-convergence
        p = PhysParams(g=float("nan"))
        grid = build_grid(9, 9)
        n = grid.n_nodes
        r0 = np.full(len(grid.exposed_trace()), 0.2)
        st = FieldState(0.0, np.zeros(n), np.full(n, p.C0), r0, np.zeros_like(r0))
        with pytest.raises(CgBreakdown, match="iteration 0"):
            step(st, 1e-3, grid, p)

    def test_nan_robin_permeability_reaches_cg_breakdown(self):
        # a NaN in r gives a NaN nu(r) and diagonal entry, which passes the
        # positive-diagonal check, as NaN fails d <= 0, and CG stops on its
        # first residual
        grid = build_grid(9, 9)
        n = grid.n_nodes
        m = len(grid.exposed_trace())
        r = np.full(m, 0.5)
        r[3] = np.nan
        st = FieldState(0.0, np.full(n, 0.2), np.full(n, 0.5), r, np.zeros(m))
        sys = assemble_s_system(grid, st, st.c, r, 1e-3, PhysParams())
        assert np.isnan(sys.diagonal()).sum() == 1
        with pytest.raises(CgBreakdown, match="non-finite residual norm at iteration 0"):
            cg_solve(sys, x0=st.s)

    def test_nan_diagonal_does_not_hide_a_nonpositive_entry(self):
        def fill(slots):
            slots[0, 0, DIAG] = np.nan
            slots[4, 4, DIAG] = -1.0

        with pytest.raises(ValueError, match="not strictly positive"):
            cg_solve(with_slots(grid_system(), fill))
