"""Preconditioner of the s-solve: fast diagonalisation.

Every system is preconditioned with the constant-coefficient model operator
of its grid, applied through the cosine eigenbasis.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import sulphsim.bulk as bulk
import sulphsim.diagnostics as diagnostics
from sulphsim.bulk import FieldState, _preconditioner, assemble_s_system, cg_solve, step
from sulphsim.config import parse_config
from sulphsim.grid import build_grid
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
    """Record the iterations of every cg_solve call."""
    log = []

    def recording(sys, *args, **kwargs):
        out = cg_solve(sys, *args, **kwargs)
        log.append(out[1])
        return out

    monkeypatch.setattr(bulk, "cg_solve", recording)
    monkeypatch.setattr(diagnostics, "cg_solve", recording)
    return log


class TestFastDiagonalisation:
    def test_symmetric_and_positive(self):
        sys = rough_system(33, 33)
        apply = _preconditioner(sys)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(sys.n)
            v = rng.standard_normal(sys.n)
            uv, vu = u @ apply(v), v @ apply(u)
            assert abs(uv - vu) <= 1e-12 * max(abs(uv), abs(vu))
            assert u @ apply(u) > 0

    def test_constant_coefficients_converge_in_one_iteration(self):
        # No exchange (nu0 = nul = 0) and uniform c: the model operator is the matrix.
        p = PhysParams(nu0=0.0, nul=0.0)
        grid = build_grid(33, 33)
        n = grid.n_nodes
        c = np.full(n, 0.5)
        s_old = np.random.default_rng(8).uniform(0.0, 1.0, n)
        r = np.zeros(33)
        sys = assemble_s_system(grid, FieldState(0.0, s_old, c, r, r), c, r, 1e-2, p)
        x, iters, _ = cg_solve(sys, rel_tol=1e-12)
        assert iters == 1
        assert np.allclose(x, spla.spsolve(sys.matrix().tocsc(), sys.rhs), rtol=1e-11, atol=0)

    def test_non_square_grid(self):
        sys = rough_system(33, 17)
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
        assert max(cg_iterations) <= 12

    def test_mms_spatial_solves_after_the_first_take_one_iteration(self, cg_iterations):
        # The first solve starts from s^0 and takes 2; every later one
        # starts from the extrapolation of the last two steps and takes 1.
        mf = diagnostics.ManufacturedFields(PhysParams())
        dt = 1e-5
        for n in (17, 33, 65, 129):
            cg_iterations.clear()
            diagnostics._mms_solution(mf, n, dt, 5 * dt)
            assert cg_iterations == [2, 1, 1, 1, 1]

