"""Preconditioner of the s-solve: fast diagonalisation vs Jacobi.

A grid system is preconditioned with the constant-coefficient model operator
applied through the cosine eigenbasis; a system built by hand, without a
grid, keeps Jacobi.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import sulphsim.bulk as bulk
import sulphsim.diagnostics as diagnostics
from sulphsim.bulk import FieldState, _preconditioner, assemble_s_system, cg_solve, step
from sulphsim.config import parse_config
from sulphsim.grid import Edge, EdgeTag, build_grid
from sulphsim.model import PhysParams
from sulphsim.runner import initial_state


def rough_system(nx, ny, dt=1e-2, seed=3):
    """Grid system with random smooth-ish coefficients and a Robin edge."""
    rng = np.random.default_rng(seed)
    p = PhysParams()
    grid = build_grid(nx, ny)
    trace = grid.exposed_trace()
    c = rng.uniform(0.2, 0.9, grid.n_nodes)
    s = rng.uniform(0.0, 1.0, grid.n_nodes)
    r = rng.uniform(0.0, 1.0, len(trace))
    st = FieldState(0.0, s, c, r, np.zeros_like(r))
    return assemble_s_system(grid, st, c, r, dt, p)


def weibull_state(n):
    cfg = parse_config(
        f"nx = {n}\nny = {n}\ndt = 0.01\nnu_law = parabolic\n"
        "r_init_mode = weibull\nweibull_r0 = 0.2\nseed = 5\nprofiles = x1=0\n"
    )
    return cfg.grid(), cfg.phys(), initial_state(cfg)


@pytest.fixture
def cg_iterations(monkeypatch):
    """Record (iterations, model_coefs) of every cg_solve call."""
    log = []

    def recording(sys, *args, **kwargs):
        out = cg_solve(sys, *args, **kwargs)
        log.append((out[1], sys.model_coefs))
        return out

    monkeypatch.setattr(bulk, "cg_solve", recording)
    monkeypatch.setattr(diagnostics, "cg_solve", recording)
    return log


class TestFastDiagonalisation:
    def test_symmetric_and_positive(self):
        sys = rough_system(33, 33)
        assert sys.model_coefs is not None
        apply = _preconditioner(sys)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(sys.n)
            v = rng.standard_normal(sys.n)
            uv, vu = u @ apply(v), v @ apply(u)
            assert abs(uv - vu) <= 1e-12 * max(abs(uv), abs(vu))
            assert u @ apply(u) > 0

    def test_constant_coefficients_converge_in_one_iteration(self):
        # No exposed edge and uniform c: the model operator is the matrix.
        p = PhysParams()
        grid = build_grid(33, 33, {e: EdgeTag.ISOLATED for e in Edge})
        n = grid.n_nodes
        c = np.full(n, 0.5)
        s_old = np.random.default_rng(8).uniform(0.0, 1.0, n)
        sys = assemble_s_system(grid, FieldState(0.0, s_old, c, np.zeros(0), np.zeros(0)), c, np.zeros(0), 1e-2, p)
        assert sys.model_coefs is not None
        x, iters, _ = cg_solve(sys, rel_tol=1e-12)
        assert iters == 1
        assert np.allclose(x, spla.spsolve(sys.matrix().tocsc(), sys.rhs), rtol=1e-11, atol=0)

    def test_non_square_grid(self):
        sys = rough_system(33, 17)
        assert sys.model_coefs is not None
        x, _, res = cg_solve(sys, rel_tol=1e-12)
        x_direct = spla.spsolve(sys.matrix().tocsc(), sys.rhs)
        assert np.abs(x - x_direct).max() <= 1e-10 * np.abs(x_direct).max()
        assert res <= 1e-12 * np.linalg.norm(sys.rhs)

    @pytest.mark.parametrize("n", [65, 129, 257])
    def test_weibull_iterations_flat_under_refinement(self, n, cg_iterations):
        grid, p, st = weibull_state(n)
        for _ in range(3):
            st, _ = step(st, 0.01, grid, p)
        assert len(cg_iterations) == 3
        assert all(m is not None for _, m in cg_iterations)
        assert max(i for i, _ in cg_iterations) <= 12

    def test_mms_spatial_solves_after_the_first_take_one_iteration(self, cg_iterations):
        # Jacobi took 2/3/3/5 iterations on these levels.  The first solve
        # starts from s^0 and takes 2; every later one starts from the
        # extrapolation of the last two steps and takes 1.
        mf = diagnostics.ManufacturedFields(PhysParams())
        dt = 1e-5
        for n in (17, 33, 65, 129):
            cg_iterations.clear()
            diagnostics.run_mms_level(mf, n, dt, 5 * dt)
            assert [i for i, _ in cg_iterations] == [2, 1, 1, 1, 1]
            assert all(m is not None for _, m in cg_iterations)


class TestJacobiBranch:
    def test_hand_built_system_is_jacobi(self):
        a = np.array([[4.0, -1.0], [-1.0, 3.0]])
        sys = bulk.LinearSystem(
            np.array([0, 2, 4]), np.array([0, 1, 0, 1]), a.ravel(), np.array([1.0, 2.0])
        )
        r = np.array([2.0, 6.0])
        assert np.array_equal(_preconditioner(sys)(r), r / np.diag(a))
