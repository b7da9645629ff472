"""Implicit-system assembly vs an independent brute-force dense assembler.

The oracle builds the same discrete equations node by node from the
ghost-elimination form of the stencil (reflection on isolated edges, flux
replacement on the exposed edge) and scales each row by its dual-cell
volume.  The production assembler works face by face, so agreement is a
genuine two-route check.
"""

import numpy as np
import pytest

from sulphsim.bulk import FieldState, RobinData, assemble_s_system
from sulphsim.grid import Edge, EdgeTag, Grid2D, build_grid
from sulphsim.model import PhysParams, permeability


def dense_oracle(grid, c_new, c_old, s_old, dt, p, source=None, robin=None):
    """Loop over nodes and stencil legs; returns (A, b) as dense arrays."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    n = nx * ny
    phi = p.A + p.B * np.asarray(c_new)
    phi_old = p.A + p.B * np.asarray(c_old)
    amat = np.zeros((n, n))
    b = np.zeros(n)
    exposed = grid.exposed_edge
    trace = grid.exposed_trace()
    tr_pos = {}
    if trace is not None:
        tr_pos = {int(idx): k for k, idx in enumerate(trace.indices)}

    def wx(i):
        return hx * (0.5 if i in (0, nx - 1) else 1.0)

    def wy(j):
        return hy * (0.5 if j in (0, ny - 1) else 1.0)

    for j in range(ny):
        for i in range(nx):
            row = j * nx + i
            vol = wx(i) * wy(j)
            amat[row, row] += vol * phi[row] * (1.0 / dt + p.lam * c_new[row])
            b[row] += vol * phi_old[row] * s_old[row] / dt
            if source is not None:
                b[row] += vol * source[row]
            # legs: (di, dj, h, robin edge this leg would cross)
            legs = [
                (-1, 0, hx, Edge.LEFT),
                (+1, 0, hx, Edge.RIGHT),
                (0, -1, hy, Edge.BOTTOM),
                (0, +1, hy, Edge.TOP),
            ]
            for di, dj, h, edge in legs:
                ii, jj = i + di, j + dj
                inside = 0 <= ii < nx and 0 <= jj < ny
                if inside:
                    col = jj * nx + ii
                else:
                    # ghost node: value and diffusivity mirror the opposite
                    # neighbor, so the outside leg duplicates the inside one
                    col = (j - dj) * nx + (i - di)
                t = 0.5 * (phi[row] + phi[col]) / h**2 * vol
                amat[row, row] += t
                amat[row, col] -= t
                if not inside and edge is exposed:
                    # the boundary-face flux phi*dn(s) is then replaced by
                    # -nu*(s - sbar) + flux, which shifts the mirrored ghost
                    assert robin is not None, "oracle needs explicit robin data"
                    k = tr_pos[row]
                    nu = robin.nu[k]
                    amat[row, row] += vol * (2.0 / h) * nu
                    b[row] += vol * (2.0 / h) * (nu * robin.sbar[k] + robin.flux[k])
    return amat, b


def make_state(grid, c_old, s_old):
    return FieldState(
        t=0.0,
        s=np.asarray(s_old, dtype=float),
        c=np.asarray(c_old, dtype=float),
        r=np.zeros(grid.ny if grid.exposed_edge else 0),
        xi=np.zeros(grid.ny if grid.exposed_edge else 0),
    )


def isolated_tags():
    return {e: EdgeTag.ISOLATED for e in Edge}


class TestAgainstDenseOracle:
    def test_spec_point_3x3(self):
        # 3x3 grid, dt=1, phi==1, lam=1, c==1, all edges isolated
        grid = build_grid(3, 3, isolated_tags())
        p = PhysParams(A=1.0, B=0.0, lam=1.0, C0=1.0)
        c = np.ones(9)
        s_old = np.linspace(0, 1, 9)
        sys = assemble_s_system(grid, make_state(grid, c, s_old), c, np.zeros(0), 1.0, p)
        amat, b = dense_oracle(grid, c, c, s_old, 1.0, p)
        assert np.allclose(sys.dense(), amat, atol=1e-13)
        assert np.allclose(sys.rhs, b, atol=1e-13)

    def test_variable_coefficients_with_robin(self):
        grid = build_grid(6, 5)
        p = PhysParams()
        rng = np.random.default_rng(8)
        c_new = rng.uniform(0.1, 0.9, grid.n_nodes)
        c_old = np.minimum(c_new + rng.uniform(0, 0.05, grid.n_nodes), p.C0)
        s_old = rng.uniform(0, 1, grid.n_nodes)
        trace = grid.exposed_trace()
        r = rng.uniform(0, 1.5, len(trace))
        robin = RobinData(
            nu=np.asarray(permeability(r, p), dtype=float),
            sbar=np.full(len(trace), p.sbar),
            flux=np.zeros(len(trace)),
        )
        dt = 1.0 / 5000.0
        sys = assemble_s_system(grid, make_state(grid, c_old, s_old), c_new, r, dt, p)
        amat, b = dense_oracle(grid, c_new, c_old, s_old, dt, p, robin=robin)
        scale = np.abs(amat).max()
        assert np.allclose(sys.dense(), amat, atol=1e-13 * scale)
        assert np.allclose(sys.rhs, b, atol=1e-13 * max(1.0, np.abs(b).max()))

    def test_with_source_and_flux_override(self):
        grid = build_grid(5, 7)
        p = PhysParams()
        rng = np.random.default_rng(21)
        c = rng.uniform(0.2, 0.8, grid.n_nodes)
        s_old = rng.uniform(0, 1, grid.n_nodes)
        src = rng.standard_normal(grid.n_nodes)
        trace = grid.exposed_trace()
        robin = RobinData(
            nu=rng.uniform(0, 2, len(trace)),
            sbar=rng.uniform(0, 1, len(trace)),
            flux=rng.standard_normal(len(trace)),
        )
        dt = 0.01
        sys = assemble_s_system(
            grid, make_state(grid, c, s_old), c, np.zeros(len(trace)), dt, p,
            source=src, robin_data=robin,
        )
        amat, b = dense_oracle(grid, c, c, s_old, dt, p, source=src, robin=robin)
        assert np.allclose(sys.dense(), amat, atol=1e-12)
        assert np.allclose(sys.rhs, b, atol=1e-12)


    def test_exposed_edge_follows_retagging(self):
        # patterns and traces are cached by grid value; a fresh grid of the
        # same size with another exposed edge must assemble that edge
        p = PhysParams()
        rng = np.random.default_rng(30)
        for edge in (Edge.LEFT, Edge.LEFT, Edge.TOP, Edge.RIGHT, Edge.BOTTOM, Edge.LEFT):
            grid = Grid2D(5, 4, edge)
            trace = grid.exposed_trace()
            c = rng.uniform(0.2, 0.8, grid.n_nodes)
            s_old = rng.uniform(0, 1, grid.n_nodes)
            robin = RobinData(
                nu=rng.uniform(0, 2, len(trace)),
                sbar=rng.uniform(0, 1, len(trace)),
                flux=rng.standard_normal(len(trace)),
            )
            sys = assemble_s_system(
                grid, make_state(grid, c, s_old), c, np.zeros(len(trace)), 0.01, p,
                robin_data=robin,
            )
            amat, b = dense_oracle(grid, c, c, s_old, 0.01, p, robin=robin)
            assert np.allclose(sys.dense(), amat, atol=1e-12)
            assert np.allclose(sys.rhs, b, atol=1e-12)


class TestStructure:
    def test_laplacian_annihilates_constants(self):
        # phi==1, lam=0, all-Neumann: A @ const = const/dt * volumes
        grid = build_grid(9, 9, isolated_tags())
        p = PhysParams(A=1.0, B=0.0, lam=1.0)
        c = np.zeros(grid.n_nodes)  # lam*c = 0 kills the reaction diagonal
        sys = assemble_s_system(grid, make_state(grid, c, c), c, np.zeros(0), 0.25, p)
        const = np.full(grid.n_nodes, 3.7)
        out = sys.matrix() @ const
        expected = grid.node_volumes() * 3.7 / 0.25
        assert np.allclose(out, expected, rtol=1e-13)

    def test_zero_permeability_equals_isolated(self):
        p = PhysParams(nu0=0.0, nul=0.0)
        g_exposed = build_grid(7, 7)
        g_isolated = build_grid(7, 7, isolated_tags())
        rng = np.random.default_rng(4)
        c = rng.uniform(0.1, 0.9, g_exposed.n_nodes)
        s_old = rng.uniform(0, 1, g_exposed.n_nodes)
        r = np.zeros(7)
        sys1 = assemble_s_system(g_exposed, make_state(g_exposed, c, s_old), c, r, 1e-3, p)
        sys2 = assemble_s_system(g_isolated, make_state(g_isolated, c, s_old), c, np.zeros(0), 1e-3, p)
        assert np.array_equal(sys1.data, sys2.data)
        assert np.array_equal(sys1.rhs, sys2.rhs)

    def test_symmetry(self):
        grid = build_grid(8, 6)
        p = PhysParams()
        rng = np.random.default_rng(10)
        c = rng.uniform(0.1, 0.9, grid.n_nodes)
        s_old = rng.uniform(0, 1, grid.n_nodes)
        r = rng.uniform(0, 2, 6)
        sys = assemble_s_system(grid, make_state(grid, c, s_old), c, r, 1e-3, p)
        a = sys.dense()
        assert np.array_equal(a, a.T)  # symmetric to the bit, by construction

    def test_diagonal_dominance_reported(self):
        grid = build_grid(9, 9)
        p = PhysParams()
        c = np.full(grid.n_nodes, 0.5)
        r = np.full(9, 0.3)
        sys = assemble_s_system(grid, make_state(grid, c, np.zeros(grid.n_nodes)), c, r, 1e-4, p)
        assert sys.dominance_margin > 0
        a = sys.dense()
        diag = np.diag(a)
        off = np.abs(a).sum(axis=1) - np.abs(diag)
        assert np.all(diag - off >= sys.dominance_margin - 1e-12)

    def test_rejects_non_finite(self):
        grid = build_grid(3, 3)
        p = PhysParams()
        c = np.full(9, 0.5)
        bad = c.copy()
        bad[4] = np.nan
        with pytest.raises(ValueError):
            assemble_s_system(grid, make_state(grid, c, c), bad, np.zeros(3), 1e-3, p)

    def test_rejects_negative_permeability(self):
        grid = build_grid(3, 3)
        p = PhysParams(nu0=0.5, nul=0.0, rl=1.0, R0=4.0)
        c = np.full(9, 0.5)
        r = np.full(3, 3.0)  # extrapolated nu < 0
        with pytest.raises(ValueError):
            assemble_s_system(grid, make_state(grid, c, c), c, r, 1e-3, p)
