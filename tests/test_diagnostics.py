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
    RobinData,
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
from sulphsim.grid import build_grid
from sulphsim.model import ConstraintMode, PhysParams


def make_state(grid, s, c, r=None):
    nr = 0 if grid.exposed_trace() is None else len(grid.exposed_trace())
    r = np.zeros(nr) if r is None else r
    return FieldState(0.0, np.asarray(s, float), np.asarray(c, float), r, np.zeros_like(r))


def zero_terms():
    return BalanceTerms(0.0, 0.0, 0.0, 0.0)


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
        terms = BalanceTerms(1.0, 0.5, 1.0, 0.0)  # residual 0.5 vs scale 1.0
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

        def phi_s(x1, x2, t):
            return (p.A + p.B * mf.c_field(x1, x2, t)) * mf.s_exact(x1, x2, t)

        def flux(x1, x2, t, comp):
            h = 1e-6
            phi = p.A + p.B * mf.c_field(x1, x2, t)
            if comp == 0:
                ds = (mf.s_exact(x1 + h, x2, t) - mf.s_exact(x1 - h, x2, t)) / (2 * h)
            else:
                ds = (mf.s_exact(x1, x2 + h, t) - mf.s_exact(x1, x2 - h, t)) / (2 * h)
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
            phi = p.A + p.B * mf.c_field(x1, x2, t)
            reaction = p.lam * phi * mf.c_field(x1, x2, t) * mf.s_exact(x1, x2, t)
            expected = ddt - div + reaction
            assert mf.source(x1, x2, t) == pytest.approx(expected, abs=2e-5)

    def test_fields_at_nodes_bit_identical(self):
        mf = ManufacturedFields(PhysParams())
        grid = build_grid(9, 5)
        x1, x2 = grid.x1(), grid.x2()
        bound = mf.at_nodes(x1, x2)
        assert bound == mf
        for t in (0.0, 0.03, 0.1):
            assert np.array_equal(bound.source(x1, x2, t), mf.source(x1, x2, t))
            assert np.array_equal(bound.c_field(x1, x2, t), mf.c_field(x1, x2, t))
        # other points are evaluated afresh
        y1 = x1 + 0.01
        assert np.array_equal(bound.source(y1, x2, 0.05), mf.source(y1, x2, 0.05))
        assert not np.array_equal(bound.source(y1, x2, 0.05), mf.source(x1, x2, 0.05))

    def test_fields_at_edge_nodes_bit_identical(self):
        mf = ManufacturedFields(PhysParams())
        grid = build_grid(9, 17)
        coords = grid.exposed_trace().coords
        bound = mf.at_nodes(grid.x1(), grid.x2(), coords)
        for t in (0.0, 0.03, 0.1):
            assert np.array_equal(bound.r_field(coords, t), mf.r_field(coords, t))
            got, want = bound.robin_override(coords, t), mf.robin_override(coords, t)
            for name in ("nu", "sbar", "flux"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        # other edge nodes are evaluated afresh
        other = coords * 0.5
        assert np.array_equal(bound.robin_override(other, 0.05).flux, mf.robin_override(other, 0.05).flux)

    def test_manufactured_solution_satisfies_robin_override(self):
        mf = ManufacturedFields(PhysParams())
        x2 = np.linspace(0, 1, 33)
        t = 0.07
        rd = mf.robin_override(x2, t)
        s_edge = mf.s_exact(0.0, x2, t)
        # phi*dn(s*) = 0 on the left edge, so -nu*(s*-sbar) + flux must vanish
        resid = -rd.nu * (s_edge - rd.sbar) + rd.flux
        assert np.abs(resid).max() < 1e-14


class ConstantFields(ManufacturedFields):
    """A constant s under constant c; overrides every field the level reads."""

    K = 0.37

    def s_exact(self, x1, x2, t):
        return self.K * np.ones_like(np.asarray(x1, dtype=float) + np.asarray(x2, dtype=float))

    def c_field(self, x1, x2, t):
        return 0.5 * self.p.C0 * np.ones_like(np.asarray(x1, dtype=float))

    def source(self, x1, x2, t):
        c = self.c_field(x1, x2, t)
        phi = self.p.A + self.p.B * c
        return self.p.lam * phi * c * self.K

    def robin_override(self, coords, t):
        nu = np.full(len(coords), 0.8)
        return RobinData(nu=nu, sbar=np.full(len(coords), self.K), flux=np.zeros(len(coords)))


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
        # (bulk.history_start), from step 3 on of second order, and is
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
        # s^0, then 2 s^1 - s^0, then 3 (s^n - s^(n-1)) + s^(n-2) from step 3 on
        starts, solutions = [], []

        def recording(sys, x0=None, **kwargs):
            starts.append(np.array(x0))
            out = cg_solve(sys, x0=x0, **kwargs)
            solutions.append(out[0])
            return out

        monkeypatch.setattr(diagnostics, "cg_solve", recording)
        mf = ManufacturedFields(PhysParams())
        dt = diagnostics.SPATIAL_DT
        s = diagnostics._mms_solution(mf, 17, dt, 5 * dt)
        grid = diagnostics._mms_grid(17)
        s0 = mf.s_exact(grid.x1(), grid.x2(), 0.0)
        s1, s2, s3, s4, s5 = solutions
        assert s is s5
        assert np.array_equal(starts[0], s0)
        assert np.array_equal(starts[1], 2.0 * s1 - s0)
        assert np.array_equal(starts[2], 3.0 * (s2 - s1) + s0)
        assert np.array_equal(starts[3], 3.0 * (s3 - s2) + s1)
        assert np.array_equal(starts[4], 3.0 * (s4 - s3) + s2)

    def test_extrapolated_error_matches_a_small_dt_run(self):
        # The spatial study's 17^2 level extrapolates dt = 1e-3 and 5e-4 in
        # time; 10^4 steps of dt = 1e-5 leave a time error of about 0.1%.
        extrapolated = mms_convergence("spatial", 3).rows[0].err_l2
        small_dt = run_mms_level(ManufacturedFields(PhysParams()), 17, 1e-5, 0.1)[0]
        assert extrapolated == pytest.approx(small_dt, rel=1e-3)

    def test_bad_overridden_robin_data_is_rejected(self):
        class ShortRobin(ManufacturedFields):
            def robin_override(self, coords, t):
                full = super().robin_override(coords, t)
                return RobinData(full.nu[:1], full.sbar, full.flux)

        with pytest.raises(ValueError, match=r"robin_data\.nu has shape \(1,\)"):
            run_mms_level(ShortRobin(PhysParams()), 9, 1e-3, 1e-2)

    def test_zero_overrides_reproduce_unforced_scheme_bit_exactly(self):
        from sulphsim.model import permeability

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
            robin_data=RobinData(
                nu=np.asarray(permeability(r, p), dtype=float),
                sbar=np.full(len(trace), p.sbar),
                flux=np.zeros(len(trace)),
            ),
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

    def test_order_arithmetic_between_rows(self):
        # synthetic errors with exact ratio 4 at mesh ratio 2 give order 2
        class Fake(ManufacturedFields):
            pass

        errs = {17: (4e-2, 8e-2), 33: (1e-2, 2e-2), 65: (2.5e-3, 5e-3)}
        rows = []
        prev = None
        for lvl, n in enumerate((17, 33, 65)):
            h = 1.0 / (n - 1)
            e2, em = errs[n]
            if prev is None:
                rows.append(ConvergenceRow(lvl, h, e2, em, None, None))
            else:
                ratio = prev[0] / h
                rows.append(
                    ConvergenceRow(
                        lvl, h, e2, em,
                        math.log(prev[1] / e2) / math.log(ratio),
                        math.log(prev[2] / em) / math.log(ratio),
                    )
                )
            prev = (h, e2, em)
        assert rows[1].order_l2 == pytest.approx(2.0)
        assert rows[2].order_max == pytest.approx(2.0)

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
    """An s on the n x n grid whose error at t_end is value at every node.

    Exact to rounding, and so is the error of the spatial study's
    extrapolation 2*s(dt/2) - s(dt) when both solutions are off by value.
    """
    grid = diagnostics._mms_grid(n)
    return mf.s_exact(grid.x1(), grid.x2(), t_end) + value


class TestMmsLevelsInWorkers:
    def test_table_byte_identical_for_one_and_two_workers(self, monkeypatch):
        # forked workers inherit the patched end time: 10 and 20 steps per level
        monkeypatch.setattr(diagnostics, "MMS_T_END", 10 * diagnostics.SPATIAL_DT)
        csv = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("SULPHSIM_THREADS", workers)
            csv[workers] = mms_convergence("spatial", 3).to_csv()
        assert csv["2"] == csv["1"]
        assert len(csv["1"].strip().split("\n")) == 4

    def test_levels_run_in_worker_processes_in_plan_order(self, monkeypatch, tmp_path):
        # each solution leaves its worker's pid in a file named after it
        def report(mf, n, dt, t_end, cg_rel_tol=1e-12):
            (tmp_path / f"{n}-{dt}").write_text(str(os.getpid()))
            return off_by(mf, n, t_end, float(n))

        monkeypatch.setattr(diagnostics, "_mms_solution", report)
        monkeypatch.setenv("SULPHSIM_THREADS", "2")
        rows = mms_convergence("spatial", 4).rows
        assert [r.err_max for r in rows] == pytest.approx([17.0, 33.0, 65.0, 129.0], rel=1e-12)
        pids = {int(f.read_text()) for f in tmp_path.iterdir()}
        assert len(list(tmp_path.iterdir())) == 8
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2

    def test_costliest_level_starts_first(self, monkeypatch):
        started = []

        def record(mf, n, dt, t_end, cg_rel_tol=1e-12):
            started.append((n, dt))
            return off_by(mf, n, t_end, dt)

        monkeypatch.setattr(diagnostics, "_mms_solution", record)
        mms_convergence("spatial", 3)
        mms_convergence("temporal", 3)
        dt, n = diagnostics.SPATIAL_DT, diagnostics.TEMPORAL_GRID
        assert started == [
            (65, dt), (65, dt / 2), (33, dt), (33, dt / 2), (17, dt), (17, dt / 2),
            (n, 0.05), (n, 0.025), (n, 0.0125), (n, 0.00625),
        ]

    @pytest.mark.parametrize(
        "error", [CgBreakdown("p.Ap <= 0 at iteration 3"), CgNonConvergence([1.0, 0.5], 3)]
    )
    def test_level_exception_reaches_caller_as_itself(self, monkeypatch, error):
        def fail(mf, n, dt, t_end, cg_rel_tol=1e-12):
            raise error

        monkeypatch.setattr(diagnostics, "_mms_solution", fail)
        monkeypatch.setenv("SULPHSIM_THREADS", "2")
        with pytest.raises(type(error)) as exc:
            mms_convergence("spatial", 3)
        assert type(exc.value) is type(error)
        assert str(exc.value) == str(error)
