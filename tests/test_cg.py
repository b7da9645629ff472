import math
import pickle

import numpy as np
import pytest

from sulphsim.bulk import (
    CgBreakdown,
    CgNonConvergence,
    FieldState,
    LinearSystem,
    assemble_s_system,
    cg_solve,
    step,
)
from sulphsim.grid import build_grid
from sulphsim.model import PhysParams


def csr_from_dense(a, b):
    nz_per_row = [np.nonzero(row)[0] for row in a]
    indptr = np.zeros(len(a) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(nz) for nz in nz_per_row])
    indices = np.concatenate(nz_per_row)
    data = np.concatenate([a[i, nz] for i, nz in enumerate(nz_per_row)])
    return LinearSystem(indptr, indices, data, np.asarray(b, dtype=float))


class TestBasics:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        sys = csr_from_dense(np.eye(3), b)
        x, iters, res = cg_solve(sys)
        assert np.allclose(x, b, atol=1e-12)
        assert iters <= 1

    def test_diagonal(self):
        d = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        sys = csr_from_dense(d, np.ones(5))
        x, _, _ = cg_solve(sys)
        assert np.allclose(x, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5], atol=1e-12)

    def test_zero_rhs_short_circuits(self):
        sys = csr_from_dense(np.eye(4), np.zeros(4))
        x, iters, res = cg_solve(sys, x0=np.ones(4))
        assert np.array_equal(x, np.zeros(4))
        assert iters == 0 and res == 0.0

    @pytest.mark.parametrize("shift", [-600, 600])
    def test_tiny_and_huge_rhs_scale_exactly(self, shift):
        # b scaled by 2^-600 (its squares underflow, so b.b == 0) or 2^600
        # (they overflow): the solve is the unscaled one, scaled.
        rng = np.random.default_rng(17)
        m = rng.standard_normal((20, 20))
        a = m @ m.T + 20 * np.eye(20)
        b = rng.standard_normal(20)
        x0 = rng.standard_normal(20)
        x, iters, res = cg_solve(csr_from_dense(a, b), x0=x0, rel_tol=1e-12)
        got = cg_solve(csr_from_dense(a, np.ldexp(b, shift)), x0=np.ldexp(x0, shift), rel_tol=1e-12)
        assert np.array_equal(got[0], np.ldexp(x, shift))
        assert got[1] == iters
        assert got[2] == math.ldexp(res, shift)

    def test_rejects_bad_tolerance(self):
        sys = csr_from_dense(np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            cg_solve(sys, rel_tol=0.0)

    def test_rejects_nonpositive_diagonal(self):
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ValueError):
            cg_solve(csr_from_dense(a, np.ones(2)))


class TestAgainstDenseSolve:
    def test_1d_laplacian_dirichlet_by_large_diagonal(self):
        n = 10
        a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        a[0, 0] = a[-1, -1] = 1e6
        b = np.ones(n)
        x_cg, _, _ = cg_solve(csr_from_dense(a, b), rel_tol=1e-12)
        x_direct = np.linalg.solve(a, b)
        assert np.allclose(x_cg, x_direct, atol=1e-9)

    def test_random_spd(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((30, 30))
        a = m @ m.T + 30 * np.eye(30)
        b = rng.standard_normal(30)
        x_cg, _, _ = cg_solve(csr_from_dense(a, b), rel_tol=1e-12)
        assert np.allclose(x_cg, np.linalg.solve(a, b), atol=1e-10)

    def test_warm_start_converges_fast(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((40, 40))
        a = m @ m.T + 40 * np.eye(40)
        b = rng.standard_normal(40)
        sys = csr_from_dense(a, b)
        x_exact = np.linalg.solve(a, b)
        _, iters_cold, _ = cg_solve(sys, rel_tol=1e-10)
        _, iters_warm, _ = cg_solve(sys, x0=x_exact + 1e-12, rel_tol=1e-10)
        assert iters_warm < iters_cold

    def test_start_meeting_the_tolerance_is_refined_once(self):
        # A start already within the tolerance takes one PCG iteration,
        # which does not raise the true residual.
        rng = np.random.default_rng(16)
        m = rng.standard_normal((40, 40))
        a = m @ m.T + 40 * np.eye(40)
        b = rng.standard_normal(40)
        sys = csr_from_dense(a, b)
        x_exact = np.linalg.solve(a, b)
        delta = rng.standard_normal(40)
        tol = 1e-6
        delta *= 0.5 * tol * np.linalg.norm(b) / np.linalg.norm(a @ delta)
        x0 = x_exact + delta
        start_residual = np.linalg.norm(b - a @ x0)
        assert 0 < start_residual <= tol * np.linalg.norm(b)
        x, iters, res = cg_solve(sys, x0=x0, rel_tol=tol)
        assert iters == 1
        assert res == pytest.approx(np.linalg.norm(b - a @ x), rel=1e-6)
        assert res <= start_residual

    def test_start_with_zero_residual_returns_at_once(self):
        # b - A x0 is exactly 0: no iteration, and no p.Ap = 0 breakdown.
        d = np.array([2.0, 4.0, 8.0])
        sys = csr_from_dense(np.diag(d), d)
        x, iters, res = cg_solve(sys, x0=np.ones(3), rel_tol=1e-12)
        assert np.array_equal(x, np.ones(3))
        assert iters == 0 and res == 0.0

    def test_residual_criterion(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((25, 25))
        a = m @ m.T + 25 * np.eye(25)
        b = rng.standard_normal(25)
        sys = csr_from_dense(a, b)
        for tol in (1e-6, 1e-10, 1e-12):
            x, _, res = cg_solve(sys, rel_tol=tol)
            assert np.linalg.norm(b - a @ x) <= tol * np.linalg.norm(b) * (1 + 1e-12)
            assert res <= tol * np.linalg.norm(b) * (1 + 1e-12)


class TestNonConvergence:
    def test_carries_residual_history(self):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((20, 20))
        a = m @ m.T + 1e-3 * np.eye(20)
        sys = csr_from_dense(a, rng.standard_normal(20))
        with pytest.raises(CgNonConvergence) as exc:
            cg_solve(sys, rel_tol=1e-14, max_iter=2)
        hist = exc.value.residual_history
        assert len(hist) >= 2
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
        a = np.array([[2.0, np.nan], [np.nan, 2.0]])
        with pytest.raises(CgBreakdown, match="non-finite residual norm at iteration 0"):
            cg_solve(csr_from_dense(a, np.ones(2)), x0=np.ones(2))

    def test_indefinite_matrix_raises_on_nonpositive_curvature(self):
        # positive diagonal, eigenvalues 3 and -1; r = p = (1, -1) has p.Ap < 0
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(CgBreakdown, match="not positive definite"):
            cg_solve(csr_from_dense(a, np.array([1.0, -1.0])))

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
        a = np.array([[np.nan, 0.0], [0.0, -1.0]])
        with pytest.raises(ValueError, match="not strictly positive"):
            cg_solve(LinearSystem(np.array([0, 1, 2]), np.array([0, 1]), np.diag(a), np.ones(2)))
