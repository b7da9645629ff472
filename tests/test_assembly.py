"""Implicit-system assembly vs an independent brute-force dense assembler.

The oracle builds the same discrete equations node by node from the
ghost-elimination form of the stencil (reflection on isolated edges, flux
replacement on the exposed edge) and scales each row by its dual-cell
volume.  The production assembler works face by face, so agreement is a
genuine two-route check.
"""

import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sulphsim.bulk as bulk
from sulphsim.bulk import FieldState, assemble_s_system, cg_solve
from sulphsim.grid import Edge, Grid2D, build_grid
from sulphsim.model import PhysParams, permeability, porosity


def dense_oracle(grid, c_new, c_old, s_old, dt, p, source=None, robin=None):
    """Loop over nodes and stencil legs; returns (A, b) as dense arrays.

    robin = (nu, sbar, flux) holds the exchange data phi*dn(s) =
    -nu*(s - sbar) + flux per exposed-trace node.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    n = nx * ny
    phi = p.A + p.B * np.asarray(c_new)
    phi_old = p.A + p.B * np.asarray(c_old)
    amat = np.zeros((n, n))
    b = np.zeros(n)
    exposed = grid.exposed_edge
    tr_pos = {int(idx): k for k, idx in enumerate(grid.exposed_trace().indices)}

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
                    nu, sbar, flux = (a[k] for a in robin)
                    amat[row, row] += vol * (2.0 / h) * nu
                    b[row] += vol * (2.0 / h) * (nu * sbar + flux)
    return amat, b


def exchange_data(r, p, flux):
    """The oracle's robin data for the assembler's law: nu(r), p.sbar and flux."""
    return np.asarray(permeability(r, p), dtype=float), np.full(len(r), p.sbar), flux


def make_state(grid, c_old, s_old):
    m = len(grid.exposed_trace())
    return FieldState(
        t=0.0,
        s=np.asarray(s_old, dtype=float),
        c=np.asarray(c_old, dtype=float),
        r=np.zeros(m),
        xi=np.zeros(m),
    )


# No exchange through the exposed edge: the Robin law adds nothing, so the
# system is the all-Neumann one.
NO_EXCHANGE = {"nu0": 0.0, "nul": 0.0}


class TestAgainstDenseOracle:
    def test_spec_point_3x3(self):
        # 3x3 grid, dt=1, phi==1, lam=1, c==1, no exchange
        grid = build_grid(3, 3)
        p = PhysParams(A=1.0, B=0.0, lam=1.0, C0=1.0, **NO_EXCHANGE)
        c = np.ones(9)
        s_old = np.linspace(0, 1, 9)
        r = np.zeros(3)
        sys = assemble_s_system(grid, make_state(grid, c, s_old), c, r, 1.0, p)
        amat, b = dense_oracle(grid, c, c, s_old, 1.0, p, robin=exchange_data(r, p, np.zeros(3)))
        assert np.allclose(sys.matrix().toarray(), amat, atol=1e-13)
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
        robin = exchange_data(r, p, np.zeros(len(trace)))
        dt = 1.0 / 5000.0
        sys = assemble_s_system(grid, make_state(grid, c_old, s_old), c_new, r, dt, p)
        amat, b = dense_oracle(grid, c_new, c_old, s_old, dt, p, robin=robin)
        scale = np.abs(amat).max()
        assert np.allclose(sys.matrix().toarray(), amat, atol=1e-13 * scale)
        assert np.allclose(sys.rhs, b, atol=1e-13 * max(1.0, np.abs(b).max()))

    def test_with_source_and_flux_override(self):
        grid = build_grid(5, 7)
        p = PhysParams(sbar=0.63)
        rng = np.random.default_rng(21)
        c = rng.uniform(0.2, 0.8, grid.n_nodes)
        s_old = rng.uniform(0, 1, grid.n_nodes)
        src = rng.standard_normal(grid.n_nodes)
        trace = grid.exposed_trace()
        r = rng.uniform(0, 2, len(trace))
        flux = rng.standard_normal(len(trace))
        dt = 0.01
        sys = assemble_s_system(
            grid, make_state(grid, c, s_old), c, r, dt, p, source=src, boundary_flux=flux
        )
        amat, b = dense_oracle(grid, c, c, s_old, dt, p, source=src, robin=exchange_data(r, p, flux))
        assert np.allclose(sys.matrix().toarray(), amat, atol=1e-12)
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
            r = rng.uniform(0, 2, len(trace))
            flux = rng.standard_normal(len(trace))
            sys = assemble_s_system(
                grid, make_state(grid, c, s_old), c, r, 0.01, p, boundary_flux=flux
            )
            amat, b = dense_oracle(grid, c, c, s_old, 0.01, p, robin=exchange_data(r, p, flux))
            assert np.allclose(sys.matrix().toarray(), amat, atol=1e-12)
            assert np.allclose(sys.rhs, b, atol=1e-12)


class TestStructure:
    def test_laplacian_annihilates_constants(self):
        # phi==1, lam=0, all-Neumann: A @ const = const/dt * volumes
        grid = build_grid(9, 9)
        p = PhysParams(A=1.0, B=0.0, lam=1.0, **NO_EXCHANGE)
        c = np.zeros(grid.n_nodes)  # lam*c = 0 kills the reaction diagonal
        sys = assemble_s_system(grid, make_state(grid, c, c), c, np.zeros(9), 0.25, p)
        const = np.full(grid.n_nodes, 3.7)
        out = sys.matrix() @ const
        expected = grid.node_volumes() * 3.7 / 0.25
        assert np.allclose(out, expected, rtol=1e-13)

    def test_zero_permeability_equals_isolated(self):
        # with nu0 = nul = 0 no edge exchanges, so which one is exposed
        # changes no bit of the system
        p = PhysParams(**NO_EXCHANGE)
        rng = np.random.default_rng(4)
        c = rng.uniform(0.1, 0.9, 49)
        s_old = rng.uniform(0, 1, 49)
        r = rng.uniform(0, 2, 7)
        systems = []
        for edge in Edge:
            grid = Grid2D(7, 7, edge)
            systems.append(assemble_s_system(grid, make_state(grid, c, s_old), c, r, 1e-3, p))
        for sys in systems[1:]:
            assert np.array_equal(sys.data, systems[0].data)
            assert np.array_equal(sys.rhs, systems[0].rhs)

    def test_symmetry(self):
        grid = build_grid(8, 6)
        p = PhysParams()
        rng = np.random.default_rng(10)
        c = rng.uniform(0.1, 0.9, grid.n_nodes)
        s_old = rng.uniform(0, 1, grid.n_nodes)
        r = rng.uniform(0, 2, 6)
        sys = assemble_s_system(grid, make_state(grid, c, s_old), c, r, 1e-3, p)
        a = sys.matrix().toarray()
        assert np.array_equal(a, a.T)  # symmetric to the bit, by construction

    def test_diagonal_dominance_reported(self):
        # off-diagonal row sums equal the face sums, so the dominance margin
        # is the mass + reaction + Robin diagonal: positive for any dt
        grid = build_grid(9, 9)
        p = PhysParams()
        dt = 1e-4
        c = np.full(grid.n_nodes, 0.5)
        r = np.full(9, 0.3)
        sys = assemble_s_system(grid, make_state(grid, c, np.zeros(grid.n_nodes)), c, r, dt, p)
        base = grid.node_volumes() * porosity(c, p) * (1.0 / dt + p.lam * c)
        trace = grid.exposed_trace()
        base[trace.indices] += permeability(r, p) * trace.weights
        margin = base.min()
        assert margin > 0
        a = sys.matrix().toarray()
        diag = np.diag(a)
        off = np.abs(a).sum(axis=1) - np.abs(diag)
        assert np.all(diag - off >= margin - 1e-12)

    def test_rejects_non_finite(self):
        grid = build_grid(3, 3)
        p = PhysParams()
        c = np.full(9, 0.5)
        bad = c.copy()
        bad[4] = np.nan
        with pytest.raises(ValueError):
            assemble_s_system(grid, make_state(grid, c, c), bad, np.zeros(3), 1e-3, p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["c_new", "s_old", "c_old"])
    def test_non_finite_message_names_the_array(self, name, value):
        grid = build_grid(3, 3)
        arrays = {key: np.full(9, 0.5) for key in ("c_new", "s_old", "c_old")}
        arrays[name][4] = value
        state = make_state(grid, arrays["c_old"], arrays["s_old"])
        with pytest.raises(ValueError, match=f"^non-finite values in {name}$"):
            assemble_s_system(grid, state, arrays["c_new"], np.zeros(3), 1e-3, PhysParams())

    @pytest.mark.parametrize(
        "name, message",
        [
            ("c_new", "c_new has shape (8,), expected (12,) for the 4 x 3 grid"),
            ("s_old", "s_old has shape (8,), expected (12,) for the 4 x 3 grid"),
            ("c_old", "c_old has shape (8,), expected (12,) for the 4 x 3 grid"),
            ("r_new", "r_new has shape (2,), expected (3,) for the exposed trace"),
        ],
    )
    def test_shape_message_names_the_array(self, name, message):
        grid = build_grid(4, 3)
        arrays = {key: np.full(12, 0.5) for key in ("c_new", "s_old", "c_old")}
        arrays["r_new"] = np.zeros(3)
        arrays[name] = arrays[name][:-4] if name != "r_new" else np.zeros(2)
        state = make_state(grid, arrays["c_old"], arrays["s_old"])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            assemble_s_system(grid, state, arrays["c_new"], arrays["r_new"], 1e-3, PhysParams())

    def test_finite_values_of_any_size_pass_the_scan(self):
        # s_old*s_old would overflow; the scan must not take that for inf
        grid = build_grid(3, 3)
        c = np.full(9, 0.5)
        sys = assemble_s_system(grid, make_state(grid, c, np.full(9, 1e300)), c, np.zeros(3), 1e-3, PhysParams())
        assert np.all(np.isfinite(sys.rhs))

    def test_rejects_boundary_flux_of_wrong_shape(self):
        # a length-1 array or a scalar would otherwise broadcast over the whole trace
        grid = build_grid(5, 5)
        c = np.full(25, 0.5)
        for flux, shape in [
            (np.zeros(1), "(1,)"), (np.zeros(6), "(6,)"), (np.zeros((5, 1)), "(5, 1)"), (0.0, "()")
        ]:
            message = f"boundary_flux has shape {shape}, expected (5,) for the exposed trace"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                assemble_s_system(
                    grid, make_state(grid, c, c), c, np.zeros(5), 1e-3, PhysParams(),
                    boundary_flux=flux,
                )

    @pytest.mark.parametrize("shape", [(80,), (1,), (81, 1)])
    def test_rejects_source_of_wrong_shape(self, shape):
        # n - 1 failed inside numpy naming no field, (1,) broadcast over every
        # node, and (n, 1) failed as a non-broadcastable output operand
        grid = build_grid(9, 9)
        c = np.full(81, 0.5)
        message = f"source has shape {shape}, expected (81,) for the 9 x 9 grid"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            assemble_s_system(
                grid, make_state(grid, c, c), c, np.zeros(9), 1e-3, PhysParams(),
                source=np.ones(shape),
            )

    def test_rejects_negative_permeability(self):
        grid = build_grid(3, 3)
        p = PhysParams(nu0=0.5, nul=0.0, rl=1.0, R0=4.0)
        c = np.full(9, 0.5)
        r = np.full(3, 3.0)  # extrapolated nu < 0
        with pytest.raises(ValueError):
            assemble_s_system(grid, make_state(grid, c, c), c, r, 1e-3, p)


class TestFiveSlotRows:
    """Every row stores S, W, D, E, N; a missing neighbour is a 0 on the row's own column."""

    def system(self):
        grid = build_grid(6, 5)
        rng = np.random.default_rng(12)
        c = rng.uniform(0.1, 0.9, grid.n_nodes)
        s_old = rng.uniform(0, 1, grid.n_nodes)
        r = rng.uniform(0, 1, 5)
        return grid, assemble_s_system(grid, make_state(grid, c, s_old), c, r, 1e-3, PhysParams())

    def test_layout(self):
        grid, sys = self.system()
        nx = grid.nx
        assert np.array_equal(sys.indptr, 5 * np.arange(grid.n_nodes + 1))
        cols = sys.indices.reshape(grid.ny, nx, 5)
        vals = sys.data.reshape(grid.ny, nx, 5)
        for j in range(grid.ny):
            for i in range(nx):
                p = j * nx + i
                want = [p - nx if j > 0 else p, p - 1 if i > 0 else p, p,
                        p + 1 if i < nx - 1 else p, p + nx if j < grid.ny - 1 else p]
                assert list(cols[j, i]) == want
                for k, col in enumerate(want):
                    if k != 2 and col == p:  # a pad
                        assert vals[j, i, k] == 0.0 and not np.signbit(vals[j, i, k])
        assert np.array_equal(sys.diagonal(), np.diag(sys.matrix().toarray()))

    def test_products_equal_the_compressed_matrix_bit_for_bit(self):
        # the pads add +0.0 to a row's sum; the real entries come in the
        # same ascending-column order as in the matrix without them
        grid, sys = self.system()
        compressed = sp.csr_matrix(sys.matrix().toarray())
        assert compressed.nnz == sys.data.size - 2 * (grid.nx + grid.ny)
        matvec = bulk._matvec(sys)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(grid.n_nodes)
            assert matvec(x).tobytes() == (compressed @ x).tobytes()

    def test_matrix_is_canonical_and_owns_its_arrays(self):
        # the pads merge into the diagonal, so in-place canonicalisation
        # (spsolve calls sum_duplicates) has nothing to do and cannot
        # touch the pattern's shared, read-only arrays
        grid, sys = self.system()
        a = sys.matrix()
        assert a.has_canonical_format
        assert a.nnz == sys.data.size - 2 * (grid.nx + grid.ny)
        assert np.array_equal(a.diagonal(), sys.diagonal())
        assert not np.shares_memory(a.indices, sys.indices)
        assert not np.shares_memory(a.data, sys.data)
        x, _, _ = cg_solve(sys, rel_tol=1e-12)
        assert np.allclose(spla.spsolve(sys.matrix(), sys.rhs), x, rtol=1e-10, atol=0)

    def test_direct_kernel_matches_the_matrix_product(self):
        # cg_solve calls scipy's CSR kernel itself (a private module); pin it
        # to the public product, and check the sizes the kernel does not
        grid, sys = self.system()
        x = np.random.default_rng(5).standard_normal(grid.n_nodes)
        matvec = bulk._matvec(sys)
        assert matvec(x).tobytes() == (sys.matrix() @ x).tobytes()
        with pytest.raises(ValueError, match="vector of shape"):
            matvec(x[:-1])
        with pytest.raises(ValueError, match="vector of shape"):
            cg_solve(sys, x0=x[:-1])
        full = sys.data
        for bad in (full[:-5], full.astype(np.float32)):
            sys.data = bad
            with pytest.raises(ValueError, match="do not form a float64 CSR matrix"):
                bulk._matvec(sys)
        sys.data = full
        sys.rhs = sys.rhs[:-1]
        with pytest.raises(ValueError, match="do not form a float64 CSR matrix"):
            bulk._matvec(sys)
