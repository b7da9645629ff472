import math
import os

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from sulphsim import diagnostics
from sulphsim.bulk import (
    BalanceTerms,
    CgBreakdown,
    CgNonConvergence,
    FieldState,
    assemble_s_system,
    cg_solve,
    step,
)
from sulphsim.diagnostics import (
    ConvergenceRow,
    ConvergenceTable,
    InvariantReport,
    ManufacturedFields,
    audit_step,
    mms_convergence,
    run_mms_level,
)
from sulphsim.grid import Grid2D, build_grid
from sulphsim.model import ConstraintMode, PhysParams, permeability


def make_state(grid, s, c, r=None):
    nr = 0 if grid.exposed_trace() is None else len(grid.exposed_trace())
    r = np.zeros(nr) if r is None else r
    return FieldState(0.0, np.asarray(s, float), np.asarray(c, float), r, np.zeros_like(r))


def zero_terms():
    return BalanceTerms(0.0, 0.0, 0.0)


class TestAuditStep:
    def test_rest_state_clean(self):
        p = PhysParams(sbar=0.0)
        grid = build_grid(5, 5)
        st = make_state(grid, np.zeros(25), np.zeros(25))
        entry = audit_step(st, p, zero_terms(), grid)
        assert entry.flags == ()
        assert entry.balance_residual == 0.0

    def test_ceiling_flag_carries_magnitude(self):
        p = PhysParams()
        grid = build_grid(5, 5)
        s = np.zeros(25)
        s[12] = p.S0 + 0.1
        st = make_state(grid, s, np.full(25, 0.5))
        entry = audit_step(st, p, zero_terms(), grid)
        assert any("s_max" in f for f in entry.flags)
        assert entry.s_max - p.S0 == pytest.approx(0.1)

    def test_ceiling_not_flagged_without_hypotheses(self):
        p = PhysParams(B=2.0)  # violates the ceiling assumption, so no check
        grid = build_grid(5, 5)
        s = np.full(25, p.S0 + 0.5)
        st = make_state(grid, s, np.full(25, 0.1))
        entry = audit_step(st, p, zero_terms(), grid)
        assert not any("s_max" in f for f in entry.flags)

    def test_negative_s_flagged(self):
        p = PhysParams()
        grid = build_grid(5, 5)
        s = np.zeros(25)
        s[3] = -1e-8
        entry = audit_step(make_state(grid, s, np.zeros(25)), p, zero_terms(), grid)
        assert any("s_min" in f for f in entry.flags)

    def test_box_range_flagged(self):
        p = PhysParams(constraint_mode=ConstraintMode.BOX, R0=0.5)
        grid = build_grid(5, 5)
        r = np.full(5, 0.6)
        entry = audit_step(make_state(grid, np.zeros(25), np.zeros(25), r), p, zero_terms(), grid)
        assert any("r_max" in f for f in entry.flags)

    def test_balance_flag(self):
        p = PhysParams()
        grid = build_grid(5, 5)
        terms = BalanceTerms(1.0, 0.5, 1.0)  # residual 0.5 vs scale 1.0
        entry = audit_step(make_state(grid, np.zeros(25), np.zeros(25)), p, terms, grid)
        assert any("balance" in f for f in entry.flags)

    def test_never_mutates_state(self):
        p = PhysParams()
        grid = build_grid(5, 5)
        st = make_state(grid, np.linspace(0, 1, 25), np.linspace(0, 1, 25))
        before = (st.s.copy(), st.c.copy(), st.r.copy())
        audit_step(st, p, zero_terms(), grid)
        assert np.array_equal(st.s, before[0])
        assert np.array_equal(st.c, before[1])
        assert np.array_equal(st.r, before[2])

    def test_report_append_only_summary(self):
        p = PhysParams()
        grid = build_grid(5, 5)
        rep = InvariantReport()
        for k in range(3):
            rep.append(audit_step(make_state(grid, np.zeros(25), np.zeros(25)), p, zero_terms(), grid, step_index=k))
        assert len(rep.entries) == 3
        assert rep.summary()["steps"] == "3"


class TestManufacturedSource:
    def test_source_matches_numerical_derivatives(self):
        # independent check of the closed-form forcing against central
        # differences of phi(c*)s* in t and of the flux phi(c*)grad(s*) in x
        mf = ManufacturedFields(PhysParams())
        p = mf.p

        def s_at(x1, x2, t):
            return mf.s_exact(mf.node_factors(x1, x2), t)

        def c_at(x1, x2, t):
            return mf.c_field(mf.node_factors(x1, x2), t)

        def phi_s(x1, x2, t):
            return (p.A + p.B * c_at(x1, x2, t)) * s_at(x1, x2, t)

        def flux(x1, x2, t, comp):
            h = 1e-6
            phi = p.A + p.B * c_at(x1, x2, t)
            if comp == 0:
                ds = (s_at(x1 + h, x2, t) - s_at(x1 - h, x2, t)) / (2 * h)
            else:
                ds = (s_at(x1, x2 + h, t) - s_at(x1, x2 - h, t)) / (2 * h)
            return phi * ds

        rng = np.random.default_rng(4)
        for _ in range(20):
            x1, x2 = rng.uniform(0.1, 0.9, 2)
            t = rng.uniform(0.01, 0.2)
            ht, hx = 1e-6, 1e-4
            ddt = (phi_s(x1, x2, t + ht) - phi_s(x1, x2, t - ht)) / (2 * ht)
            div = (
                (flux(x1 + hx, x2, t, 0) - flux(x1 - hx, x2, t, 0)) / (2 * hx)
                + (flux(x1, x2 + hx, t, 1) - flux(x1, x2 - hx, t, 1)) / (2 * hx)
            )
            phi = p.A + p.B * c_at(x1, x2, t)
            reaction = p.lam * phi * c_at(x1, x2, t) * s_at(x1, x2, t)
            expected = ddt - div + reaction
            assert mf.source(mf.node_factors(x1, x2), t) == pytest.approx(expected, abs=2e-5)

    @pytest.mark.parametrize("p", [PhysParams(), PhysParams(lam=1e4)], ids=["default", "stiff"])
    def test_coefficient_form_matches_the_closed_forms(self, p):
        # s_exact, c_field and source evaluate polynomials in exp(-t) whose
        # coefficients node_factors computes; the closed forms they expand
        # are written out here
        mf = ManufacturedFields(p)
        rng = np.random.default_rng(8)
        x1, x2 = rng.uniform(0, 1, (2, 500))
        cos1, cos2 = np.cos(np.pi * x1), np.cos(np.pi * x2)
        sin1_sq = np.sin(np.pi * x1) ** 2
        nodes = mf.node_factors(x1, x2)
        for t in rng.uniform(0, 0.2, 20):
            s = math.exp(-t) * cos1 * cos2
            c = p.C0 * (0.5 + 0.25 * cos1 * math.exp(-t))
            phi = p.A + p.B * c
            c_t = -0.25 * p.C0 * cos1 * math.exp(-t)
            cross = 0.25 * p.B * p.C0 * np.pi**2 * math.exp(-2.0 * t) * sin1_sq * cos2
            f = p.B * c_t * s - phi * s + 2.0 * np.pi**2 * phi * s - cross + p.lam * phi * c * s
            for got, want in [
                (mf.s_exact(nodes, t), s), (mf.c_field(nodes, t), c), (mf.source(nodes, t), f)
            ]:
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_manufactured_solution_satisfies_robin_law(self):
        p = PhysParams()
        mf = ManufacturedFields(p)
        x2 = np.linspace(0, 1, 33)
        t = 0.07
        edge = mf.edge_factors(x2)
        r = mf.r_field(edge, t)
        nu = permeability(r, p)
        s_edge = mf.s_exact(mf.node_factors(0.0, x2), t)
        flux = mf.boundary_flux(edge, r, t)
        # phi*dn(s*) = 0 on the left edge, so -nu(r*)*(s*-sbar) + flux must
        # vanish, with a flux that exercises the exchange
        resid = -nu * (s_edge - p.sbar) + flux
        assert np.abs(resid).max() < 1e-14
        assert np.abs(flux).max() > 0.1


class ConstantFields(ManufacturedFields):
    """A constant s under constant c; overrides every field the level reads."""

    K = 0.37

    def s_exact(self, nodes, t):
        return self.K * np.ones_like(nodes.s1)

    def c_field(self, nodes, t):
        return 0.5 * self.p.C0 * np.ones_like(nodes[0])

    def source(self, nodes, t):
        c = self.c_field(nodes, t)
        phi = self.p.A + self.p.B * c
        return self.p.lam * phi * c * self.K

    def boundary_flux(self, edge, r, t):
        return permeability(r, self.p) * (self.K - self.p.sbar)


class TestMmsMachinery:
    def test_constant_solution_exact_to_solver_tolerance(self):
        p = PhysParams()
        mf = ConstantFields(p)
        for n in (9, 17):
            e2, em = run_mms_level(mf, n, dt=1e-3, t_end=1e-2)
            assert em < 1e-11

    @pytest.mark.parametrize("n", [17, 33])
    def test_warm_started_cg_matches_direct_solves(self, n, monkeypatch):
        # Each CG solve starts from the extrapolation of the last solutions
        # (bulk.history_start), up to seven of them, and is
        # refined by at least one iteration; the error norms after 300
        # steps must not move beyond 1e-12 from those
        # of the same level solved directly.
        mf = ManufacturedFields(PhysParams())
        dt = 1e-5
        warm = run_mms_level(mf, n, dt, 300 * dt)
        monkeypatch.setattr(
            diagnostics, "cg_solve", lambda sys, **_: (spsolve(sys.matrix(), sys.rhs), 0, 0.0)
        )
        direct = run_mms_level(mf, n, dt, 300 * dt)
        assert abs(warm[0] - direct[0]) <= 1e-12
        assert abs(warm[1] - direct[1]) <= 1e-12

    def test_solves_start_from_the_extrapolated_history(self, monkeypatch):
        # step k starts from the extrapolation of the last min(k, 7)
        # solutions, sum_j (-1)^j C(m, j+1) v_j, summed term by term
        starts, solutions = [], []

        def recording(sys, x0=None, **kwargs):
            starts.append(np.array(x0))
            out = cg_solve(sys, x0=x0, **kwargs)
            solutions.append(out[0])
            return out

        monkeypatch.setattr(diagnostics, "cg_solve", recording)
        mf = ManufacturedFields(PhysParams())
        dt = diagnostics.SPATIAL_DT
        s = diagnostics._mms_solution(mf, 17, dt, 9 * dt)
        grid = Grid2D(17, 17)
        s0 = mf.s_exact(mf.node_factors(grid.x1(), grid.x2()), 0.0)
        assert s is solutions[-1] and len(starts) == 9
        assert np.array_equal(starts[0], s0)
        assert np.array_equal(starts[1], 2.0 * solutions[0] - s0)
        history = [s0]
        for start, solution in zip(starts, solutions):
            values = history[::-1][:7]
            want = len(values) * values[0]
            for j in range(1, len(values)):
                want = want + (-1) ** j * math.comb(len(values), j + 1) * values[j]
            assert np.array_equal(start, want)
            history.append(solution)

    def test_extrapolated_error_matches_a_small_dt_run(self):
        # The spatial study's 17^2 level extrapolates dt = 5e-3, 2.5e-3 and
        # 1.25e-3 in time; 10^4 steps of dt = 1e-5 leave a time error of
        # about 0.1%.
        extrapolated = mms_convergence("spatial", 3).rows[0].err_l2
        small_dt = run_mms_level(ManufacturedFields(PhysParams()), 17, 1e-5, 0.1)[0]
        assert extrapolated == pytest.approx(small_dt, rel=1e-3)

    @pytest.mark.parametrize("n", [17, 33])
    def test_extrapolation_is_no_farther_from_a_fine_reference_than_the_old_pair(self, n):
        # Against the same extrapolation from dt = 6.25e-4, the study's field
        # from 20 + 40 + 80 steps is closer in the max norm than the
        # first-order pair 2*s(5e-4) - s(1e-3) from 100 + 200 steps (about
        # 6x at 17^2 and 2.4x at 33^2).
        mf = ManufacturedFields(PhysParams())
        t_end = diagnostics.MMS_T_END

        def extrapolated(dt):
            return diagnostics._extrapolate_in_time(
                *diagnostics._mms_job((mf, n, (dt, dt / 2, dt / 4)))
            )

        reference = extrapolated(6.25e-4)
        study = extrapolated(diagnostics.SPATIAL_DT)
        pair = 2.0 * diagnostics._mms_solution(mf, n, 5e-4, t_end)
        pair -= diagnostics._mms_solution(mf, n, 1e-3, t_end)
        assert np.abs(study - reference).max() <= np.abs(pair - reference).max()

    def test_bad_boundary_flux_is_rejected(self):
        class ShortFlux(ManufacturedFields):
            def boundary_flux(self, edge, r, t):
                return super().boundary_flux(edge, r, t)[:1]

        with pytest.raises(ValueError, match=r"^boundary_flux has shape \(1,\), expected \(9,\)"):
            run_mms_level(ShortFlux(PhysParams()), 9, 1e-3, 1e-2)

    def test_solves_use_the_prescribed_rugosity(self, monkeypatch):
        # each step's exchange coefficient is nu(r*) of the prescribed r at
        # the new time, through the same assembly as step()
        seen = []

        def recording(grid, state_old, c_new, r_new, dt, p, **kwargs):
            seen.append((state_old.t, r_new, kwargs["boundary_flux"]))
            return assemble_s_system(grid, state_old, c_new, r_new, dt, p, **kwargs)

        monkeypatch.setattr(diagnostics, "assemble_s_system", recording)
        mf = ManufacturedFields(PhysParams())
        dt = 1e-3
        diagnostics._mms_solution(mf, 9, dt, 3 * dt)
        edge = mf.edge_factors(Grid2D(9, 9).exposed_trace().coords)
        assert [t for t, _, _ in seen] == [0.0, dt, 2 * dt]
        for k, (_, r_new, flux) in enumerate(seen, start=1):
            assert np.array_equal(r_new, mf.r_field(edge, k * dt))
            assert np.array_equal(flux, mf.boundary_flux(edge, r_new, k * dt))
            assert r_new.min() > 0.0

    def test_factors_once_per_solution_and_each_steps_rugosity_in_its_flux(self, monkeypatch):
        # node_factors and edge_factors run once per solution, and each
        # step's boundary_flux reads the very r_new its assembly reads
        calls = {"node_factors": 0, "edge_factors": 0}
        flux_r, assembled_r = [], []

        class Counting(ManufacturedFields):
            def node_factors(self, x1, x2):
                calls["node_factors"] += 1
                return super().node_factors(x1, x2)

            def edge_factors(self, x2):
                calls["edge_factors"] += 1
                return super().edge_factors(x2)

            def boundary_flux(self, edge, r, t):
                flux_r.append(r)
                return super().boundary_flux(edge, r, t)

        def recording(grid, state_old, c_new, r_new, dt, p, **kwargs):
            assembled_r.append(r_new)
            return assemble_s_system(grid, state_old, c_new, r_new, dt, p, **kwargs)

        monkeypatch.setattr(diagnostics, "assemble_s_system", recording)
        dt = 1e-3
        diagnostics._mms_solution(Counting(PhysParams()), 9, dt, 4 * dt)
        assert calls == {"node_factors": 1, "edge_factors": 1}
        assert len(flux_r) == len(assembled_r) == 4
        assert all(a is b for a, b in zip(flux_r, assembled_r))
        assert not np.array_equal(assembled_r[0], assembled_r[1])

    def test_zero_overrides_reproduce_unforced_scheme_bit_exactly(self):
        p = PhysParams()
        grid = build_grid(9, 9)
        trace = grid.exposed_trace()
        rng = np.random.default_rng(6)
        c = rng.uniform(0.2, 0.8, grid.n_nodes)
        s_old = rng.uniform(0, 1, grid.n_nodes)
        r = rng.uniform(0, 1, len(trace))
        st = make_state(grid, s_old, c, r)
        plain = assemble_s_system(grid, st, c, r, 1e-3, p)
        hooked = assemble_s_system(
            grid, st, c, r, 1e-3, p,
            source=np.zeros(grid.n_nodes),
            boundary_flux=np.zeros(len(trace)),
        )
        assert np.array_equal(plain.data, hooked.data)
        assert np.array_equal(plain.rhs, hooked.rhs)

    def test_table_csv_format(self):
        table = ConvergenceTable(
            "spatial",
            [
                ConvergenceRow(0, 0.25, 1e-2, 2e-2, None, None),
                ConvergenceRow(1, 0.125, 2.5e-3, 5e-3, 2.0, 2.0),
            ],
        )
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "level,h_or_dt,err_L2,err_max,order_L2,order_max"
        assert lines[1].endswith(",,")
        assert "2" in lines[2].split(",")[4]

    def test_order_arithmetic_between_rows(self, monkeypatch):
        # mms_convergence's own order loop.  Each spatial level is off by h^2
        # in L2 and by h in max: by h at the corner node, whose dual cell
        # has area h^2/4, and elsewhere by the a with a^2 (1 - h^2/4) +
        # h^4/4 = h^4 (the domain has area 1); orders 2 and 1.  Each
        # temporal solution is off by dt everywhere, so successive
        # differences are dt/2 in both norms; order 1.
        def spatial(mf, n, dt, t_end):
            h = 1.0 / (n - 1)
            off = np.full(n * n, h * h * math.sqrt(3.0 / (4.0 - h * h)))
            off[0] = h
            return off_by(mf, n, t_end, off)

        def temporal(mf, n, dt, t_end):
            return off_by(mf, n, t_end, dt)

        for fake, study, err_l2, err_max, order_l2, order_max in (
            (spatial, "spatial", lambda h: h**2, lambda h: h, 2.0, 1.0),
            (temporal, "temporal", lambda dt: dt / 2, lambda dt: dt / 2, 1.0, 1.0),
        ):
            monkeypatch.setattr(diagnostics, "_mms_solution", fake)
            rows = mms_convergence(study, 4).rows
            assert len(rows) == 4
            assert rows[0].order_l2 is None and rows[0].order_max is None
            for row in rows:
                assert row.err_l2 == pytest.approx(err_l2(row.h_or_dt), rel=1e-9)
                assert row.err_max == pytest.approx(err_max(row.h_or_dt), rel=1e-9)
            for row in rows[1:]:
                assert row.order_l2 == pytest.approx(order_l2, abs=1e-9)
                assert row.order_max == pytest.approx(order_max, abs=1e-9)

    def test_rejects_bad_study(self):
        with pytest.raises(ValueError):
            mms_convergence("diagonal", 3)
        with pytest.raises(ValueError):
            mms_convergence("spatial", 2)


class TestMmsLevelArguments:
    @pytest.mark.parametrize(
        "dt, t_end, name",
        [
            (-0.01, 0.1, "dt"),
            (0.0, 0.1, "dt"),
            (math.nan, 0.1, "dt"),
            (math.inf, 0.1, "dt"),
            (0.01, -0.1, "t_end"),
            (0.01, math.nan, "t_end"),
            (0.01, math.inf, "t_end"),
        ],
    )
    def test_rejects_bad_step_or_end_time_by_name(self, dt, t_end, name):
        mf = ManufacturedFields(PhysParams())
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            run_mms_level(mf, 9, dt, t_end)

    def test_zero_end_time_takes_no_step(self):
        mf = ManufacturedFields(PhysParams())
        assert run_mms_level(mf, 9, 0.01, 0.0) == (0.0, 0.0)


def off_by(mf, n, t_end, value):
    """An s on the n x n grid whose error at t_end is value, a scalar or one per node.

    Exact to rounding, and so is the error of the spatial study's
    extrapolation (8*s(dt/4) - 6*s(dt/2) + s(dt))/3 when all three
    solutions are off by value.
    """
    grid = Grid2D(n, n)
    return mf.s_exact(mf.node_factors(grid.x1(), grid.x2()), t_end) + value


class TestMmsLevelsInWorkers:
    def test_table_byte_identical_for_one_and_two_workers(self, monkeypatch):
        # forked workers inherit the patched end time: 10, 20 and 40 steps per level
        monkeypatch.setattr(diagnostics, "MMS_T_END", 10 * diagnostics.SPATIAL_DT)
        csv = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("SULPHSIM_THREADS", workers)
            csv[workers] = mms_convergence("spatial", 3).to_csv()
        assert csv["2"] == csv["1"]
        assert len(csv["1"].strip().split("\n")) == 4

    def test_levels_run_in_worker_processes_in_plan_order(self, monkeypatch, tmp_path):
        # each solution leaves its worker's pid in a file named after it
        def report(mf, n, dt, t_end):
            (tmp_path / f"{n}-{dt}").write_text(str(os.getpid()))
            return off_by(mf, n, t_end, float(n))

        monkeypatch.setattr(diagnostics, "_mms_solution", report)
        monkeypatch.setenv("SULPHSIM_THREADS", "2")
        rows = mms_convergence("spatial", 4).rows
        assert [r.err_max for r in rows] == pytest.approx([17.0, 33.0, 65.0, 129.0], rel=1e-12)
        pids = {int(f.read_text()) for f in tmp_path.iterdir()}
        assert len(list(tmp_path.iterdir())) == 12
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2

    def test_costliest_level_starts_first(self, monkeypatch):
        started = []

        def record(mf, n, dt, t_end):
            started.append((n, dt))
            return off_by(mf, n, t_end, dt)

        monkeypatch.setattr(diagnostics, "_mms_solution", record)
        mms_convergence("spatial", 3)
        mms_convergence("temporal", 3)
        dt, n = diagnostics.SPATIAL_DT, diagnostics.TEMPORAL_GRID
        assert started == [
            (65, dt), (65, dt / 2), (65, dt / 4),
            (33, dt), (33, dt / 2), (33, dt / 4),
            (17, dt), (17, dt / 2), (17, dt / 4),
            (n, 0.05), (n, 0.025), (n, 0.0125), (n, 0.00625),
        ]

    @pytest.mark.parametrize(
        "error", [CgBreakdown("p.Ap <= 0 at iteration 3"), CgNonConvergence([1.0, 0.5], 3)]
    )
    def test_level_exception_reaches_caller_as_itself(self, monkeypatch, error):
        def fail(mf, n, dt, t_end):
            raise error

        monkeypatch.setattr(diagnostics, "_mms_solution", fail)
        monkeypatch.setenv("SULPHSIM_THREADS", "2")
        with pytest.raises(type(error)) as exc:
            mms_convergence("spatial", 3)
        assert type(exc.value) is type(error)
        assert str(exc.value) == str(error)
