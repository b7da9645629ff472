"""Coupled one-step integrator: rest states, symmetry, bounds, regression."""

import csv
import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

import sulphsim.bulk as bulk
import sulphsim.runner as runner
from sulphsim.bulk import FieldState, step
from sulphsim.config import parse_config
from sulphsim.grid import Edge, Grid2D, build_grid
from sulphsim.model import PhysParams
from sulphsim.rng import Xoshiro256pp
from sulphsim.surface import RugosityInit, init_rugosity


def initial_state(grid, p, r_init=None, seed=1):
    r0 = init_rugosity(grid.exposed_trace(), r_init or RugosityInit(), Xoshiro256pp(seed), p)
    n = grid.n_nodes
    return FieldState(0.0, np.zeros(n), np.full(n, p.C0), r0, np.zeros_like(r0))


class TestRestState:
    def test_zero_ambient_is_a_fixed_point(self):
        p = PhysParams(sbar=0.0)
        grid = build_grid(9, 9)
        st = initial_state(grid, p)
        for _ in range(5):
            new, _ = step(replace(st, history=()), 1.0 / 5000.0, grid, p)
            assert np.array_equal(new.s, st.s)
            assert np.array_equal(new.c, st.c)
            assert np.array_equal(new.r, st.r)
            st = new

    def test_zero_ambient_is_a_fixed_point_with_history(self):
        p = PhysParams(sbar=0.0)
        grid = build_grid(9, 9)
        st = initial_state(grid, p)
        for _ in range(5):
            new, _ = step(st, 1.0 / 5000.0, grid, p)
            assert np.array_equal(new.s, st.s)
            assert np.array_equal(new.c, st.c)
            assert np.array_equal(new.r, st.r)
            st = new


class TestUniformDecay:
    def test_sealed_domain_stays_spatially_uniform(self):
        # nu == 0: no flux anywhere, uniform reaction; the spatial operator
        # annihilates uniform fields
        p = PhysParams(nu0=0.0, nul=0.0)
        grid = build_grid(17, 17)
        st = initial_state(grid, p)
        st.s[:] = 0.7
        prev_level = 0.7
        for _ in range(20):
            st, _ = step(st, 1.0 / 5000.0, grid, p)
            assert st.s.max() - st.s.min() < 1e-12
            assert st.s.max() < prev_level  # reaction consumes s
            prev_level = st.s.max()


@pytest.fixture(scope="module")
def stepped():
    """Two steps of the reference configuration at dt = 1/5000 on 65x65.

    The second step is the first to freeze the extrapolation of s.
    """
    p = PhysParams()
    grid = build_grid(65, 65)
    st, _ = step(initial_state(grid, p), 1.0 / 5000.0, grid, p)
    st, terms = step(st, 1.0 / 5000.0, grid, p)
    return grid, p, st, terms


class TestReferenceStep:

    def test_boundary_adjacent_s_positive_interior_untouched(self, stepped):
        grid, p, st, _ = stepped
        trace = grid.exposed_trace()
        assert np.all(st.s[trace.indices] > 0)
        assert abs(st.s[grid.index(64, 32)]) < 1e-12  # far side still at rest

    def test_golden_values(self, stepped):
        # the scheme's own values, pinned: a change to a step's arithmetic
        # beyond the CG tolerance moves them
        grid, p, st, _ = stepped
        assert st.s[grid.index(0, 32)] == pytest.approx(0.1366027439347023, abs=1e-9)
        assert st.s[grid.index(1, 32)] == pytest.approx(0.058428220272861896, abs=1e-9)
        assert st.c[grid.index(0, 32)] == pytest.approx(0.9998191406947549, abs=1e-9)
        assert st.r[32] == pytest.approx(0.4000697600162162, abs=1e-9)


class TestInvariantsOverManySteps:
    def test_positivity_ceiling_monotonicity_balance(self):
        p = PhysParams()
        grid = build_grid(33, 33)
        st = initial_state(grid, p)
        for _ in range(100):
            prev_c = st.c
            st, terms = step(st, 1.0 / 5000.0, grid, p)
            assert st.s.min() >= -1e-12
            assert st.s.max() <= p.S0 + 1e-10
            assert np.all(st.c <= prev_c)
            assert np.all(st.c >= 0.0)
            resid = abs(
                terms.accumulation + terms.reaction - terms.boundary_exchange
            )
            scale = max(abs(terms.accumulation), terms.reaction, abs(terms.boundary_exchange))
            assert resid <= 1e-8 * scale

    def test_rugosity_never_decreases(self):
        p = PhysParams()
        grid = build_grid(17, 17)
        st = initial_state(grid, p)
        for _ in range(50):
            new, _ = step(st, 1.0 / 500.0, grid, p)
            assert np.all(new.r >= st.r)
            st = new


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        from sulphsim.surface import RugosityInitMode

        p = PhysParams()
        grid1 = build_grid(17, 17)
        grid2 = build_grid(17, 17)
        init = RugosityInit(mode=RugosityInitMode.WEIBULL, r0=0.2)
        a = initial_state(grid1, p, init, seed=9)
        b = initial_state(grid2, p, init, seed=9)
        for _ in range(10):
            a, _ = step(a, 1.0 / 1000.0, grid1, p)
            b, _ = step(b, 1.0 / 1000.0, grid2, p)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.r, b.r)


class TestNoExposedEdge:
    """No exchange is nu0 = nul = 0: no edge then lets SO2 in or out."""

    def test_runs_without_robin_or_rugosity(self):
        p = PhysParams(nu0=0.0, nul=0.0)
        n = 81
        s_new = []
        for edge in Edge:
            grid = Grid2D(9, 9, edge)
            st = FieldState(0.0, np.full(n, 0.4), np.full(n, p.C0), np.zeros(9), np.zeros(9))
            new, terms = step(st, 1e-3, grid, p)
            assert terms.boundary_exchange == 0.0
            assert new.s.max() < 0.4
            s_new.append(new.s)
        # with nothing exchanged, which edge is exposed changes no bit of s
        for s in s_new[1:]:
            assert np.array_equal(s, s_new[0])


def weibull_text(n, seed, n_steps):
    return (
        f"nx = {n}\nny = {n}\ndt = 0.01\nn_steps = {n_steps}\nnu_law = parabolic\n"
        f"r_init_mode = weibull\nweibull_r0 = 0.2\nseed = {seed}\nemit_vtk = false\n"
    )


def setup(text):
    """Config, grid, parameters and initial state of the run that text configures."""
    cfg = parse_config(text)
    return cfg, cfg.grid(), cfg.phys(), runner.initial_state(cfg)


def weibull_setup(n, seed, n_steps):
    """Config, grid, parameters and initial state of a parabolic Weibull run."""
    return setup(weibull_text(n, seed, n_steps))


def march(st, cfg, grid, p, warm):
    """cfg.n_steps steps, each with the history of the earlier ones when warm.

    Returns the final state and the CG iterations summed over the steps.
    """
    total = 0
    for _ in range(cfg.n_steps):
        st, terms = step(st if warm else replace(st, history=()), cfg.dt, grid, p)
        total += terms.cg_iterations
    return st, total


def assert_snapshot_holds(out_dir, k, state, grid):
    """run()'s step-k snapshot in out_dir is state, bit for bit.

    s and c are read from the VTK file and r from the r rows of
    profiles.csv at state.t; both are written at %.17g, which round-trips.
    """
    tokens = (out_dir / f"fields_step{k:06d}.vtk").read_text().split()
    # SCALARS name double 1 LOOKUP_TABLE default, then the values
    starts = {tokens[i + 1]: i + 6 for i, tok in enumerate(tokens) if tok == "SCALARS"}
    for name in ("s", "c"):
        values = [float(v) for v in tokens[starts[name] : starts[name] + grid.n_nodes]]
        assert np.array_equal(values, getattr(state, name)), name
    with open(out_dir / "profiles.csv", newline="") as fh:
        got = {
            (float(row["x1"]), float(row["x2"])): float(row["value"])
            for row in csv.DictReader(fh)
            if row["field"] == "r" and float(row["t"]) == state.t
        }
    nodes = grid.exposed_trace().indices
    assert got == dict(zip(zip(grid.x1()[nodes], grid.x2()[nodes]), state.r))


class TestWarmStart:
    """What a step's history holds, and where its CG starts from it."""

    def test_without_history_steps_are_unchanged(self):
        # sha256 of (s, c, r) after 20 steps without history, each freezing
        # max(s^n, 0) and starting CG from s^n
        cfg, grid, p, st = weibull_setup(17, seed=3, n_steps=20)
        for _ in range(cfg.n_steps):
            st, _ = step(replace(st, history=()), cfg.dt, grid, p)
        digest = hashlib.sha256(st.s.tobytes() + st.c.tobytes() + st.r.tobytes()).hexdigest()
        assert digest == "930ca96a86833561332b551a07d89743e3fccbf2f1b4acde20159ed7dc846718"

    def test_sweep_starts(self, monkeypatch):
        cg_solve = bulk.cg_solve
        starts = []

        def recording(sys, x0=None, **kwargs):
            starts.append(np.array(x0))
            return cg_solve(sys, x0=x0, **kwargs)

        monkeypatch.setattr(bulk, "cg_solve", recording)
        cfg, grid, p, st0 = weibull_setup(17, seed=3, n_steps=3)
        st1, _ = step(st0, cfg.dt, grid, p)
        st2, t2 = step(replace(st1, history=()), cfg.dt, grid, p)
        # the history holds the step's s^n, the array itself
        assert len(st2.history) == 1 and st2.history[0] is st1.s
        assert type(t2.cg_iterations) is int and type(t2.cg_residual) is float
        # one solve per step; without history it starts from s^n
        assert len(starts) == 2
        assert np.array_equal(starts[1], st1.s)
        # with it: 2 s^n - s^(n-1)
        st3, _ = step(st2, cfg.dt, grid, p)
        assert st3.history[0] is st2.s and st3.history[1] is st1.s
        assert np.array_equal(starts[2], 2.0 * st2.s - st1.s)
        # with two earlier steps: 3 s^n - 3 s^(n-1) + s^(n-2)
        step(st3, cfg.dt, grid, p)
        assert np.array_equal(starts[3], 3.0 * st3.s - 3.0 * st2.s + st1.s)

    def test_history_keeps_the_last_steps_as_arrays(self):
        cfg, grid, p, st = weibull_setup(17, seed=3, n_steps=20)
        states = [st]
        for _ in range(cfg.n_steps):
            states.append(step(states[-1], cfg.dt, grid, p)[0])
        history = states[-1].history
        assert len(history) == bulk.HISTORY_DEPTH - 1
        assert all(type(v) is np.ndarray for v in history)
        # newest first: entry j is the s of the state j + 2 steps back
        for j, v in enumerate(history):
            assert v is states[-2 - j].s

    def test_run_matches_direct_solves(self, monkeypatch):
        cfg, grid, p, st = weibull_setup(33, seed=7, n_steps=60)
        got, _ = march(st, cfg, grid, p, warm=True)
        monkeypatch.setattr(
            bulk, "cg_solve", lambda sys, **kw: (spsolve(sys.matrix().tocsc(), sys.rhs), 0, 0.0)
        )
        want, _ = march(st, cfg, grid, p, warm=True)
        for name in ("s", "c", "r"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max(), name

    def test_run_gives_each_step_the_last_steps_history(self, tmp_path):
        # a plain step() loop runs the run's scheme, bit for bit
        text = weibull_text(17, 3, 15) + f"emit_vtk = true\nout_dir = {tmp_path}\n"
        cfg, grid, p, st = setup(text)
        # the run's start is the rule written out in this module's own helper
        rule = initial_state(grid, p, cfg.rugosity_init(), cfg.seed)
        for name in ("s", "c", "r", "xi"):
            assert np.array_equal(getattr(st, name), getattr(rule, name)), name
        assert cfg.snapshot_steps[-1] == cfg.n_steps
        assert runner.run(cfg).status == 0
        for _ in range(cfg.n_steps):
            st, _ = step(st, cfg.dt, grid, p)
        assert_snapshot_holds(tmp_path, cfg.n_steps, st, grid)

    def test_per_sweep_iterations_fall(self):
        # 65^2, seed 29, 40 steps: the CG iterations summed over the run,
        # cold and warm-started.  Cold steps also freeze s^n rather than its
        # extrapolation, so the two runs differ in more than the starts.
        cfg, grid, p, st = weibull_setup(65, seed=29, n_steps=40)
        _, cold = march(st, cfg, grid, p, warm=False)
        _, warm = march(st, cfg, grid, p, warm=True)
        assert cold == 254
        assert warm == 168

    def test_deep_history_keeps_the_iteration_count_down(self, tmp_path):
        # the pinned 33^2 Weibull run with its default single sweep: 201 CG
        # iterations from seven-value starts, 277 from three-value ones
        result = runner.run(parse_config(weibull_text(33, seed=7, n_steps=60) + f"out_dir = {tmp_path}\n"))
        assert result.metrics.cg_solves == 60
        assert result.metrics.cg_iterations_total <= 240


# the config each run of TestInitialState appends its out_dir to
START_CASES = {
    "weibull": weibull_text(17, seed=3, n_steps=1),
    # weibull_r0 = 0.2 draws above R0 = 0.21 on some of the top edge's nodes
    "box_clipped": (
        "nx = 17\nny = 33\nexposed_edge = top\nconstraint_mode = box\nR0 = 0.21\n"
        "r_init_mode = weibull\nweibull_r0 = 0.2\nseed = 5\nn_steps = 1\n"
    ),
    "no_exchange": "nx = 9\nny = 9\nexposed_edge = right\nnu0 = 0\nnul = 0\nn_steps = 1\n",
}


class TestInitialState:
    @pytest.mark.parametrize("case", START_CASES)
    def test_run_starts_from_it(self, tmp_path, case):
        text = START_CASES[case] + f"emit_vtk = true\nsnapshot_steps = 0\nout_dir = {tmp_path}\n"
        cfg, grid, p, st = setup(text)
        assert runner.run(cfg).status == 0
        assert_snapshot_holds(tmp_path, 0, st, grid)
        if case == "box_clipped":
            assert 0 < np.count_nonzero(st.r == p.R0) < len(st.r)
        if case == "no_exchange":
            assert len(st.r) == len(st.xi) == grid.ny
        assert st.t == 0.0 and st.history == ()
        assert np.array_equal(st.s, np.zeros(grid.n_nodes))
        assert np.array_equal(st.c, np.full(grid.n_nodes, p.C0))
        assert np.array_equal(st.xi, np.zeros_like(st.r))

    def test_is_exported(self):
        import sulphsim

        assert sulphsim.initial_state is runner.initial_state


class TestHistoryStart:
    """history_start extrapolates m values by their interpolating polynomial."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_exact_for_polynomials_of_degree_m_minus_1(self, m):
        # P(t) = sum_k a_k (t/m)^k, so no term dwarfs the others on [-(m-1), 1]
        a = np.random.default_rng(m).standard_normal((m, 50))

        def poly(t):
            return sum(a_k * (t / m) ** k for k, a_k in enumerate(a))

        got = bulk.history_start([poly(-j) for j in range(m)])
        want = poly(1.0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_two_values_are_the_linear_extrapolation_bit_for_bit(self):
        v0, v1 = np.random.default_rng(2).standard_normal((2, 50))
        assert np.array_equal(bulk.history_start((v0, v1)), 2.0 * v0 - v1)


class TestShapeErrors:
    """step() names a field whose shape does not fit the grid or its trace."""

    @pytest.mark.parametrize(
        "name, message",
        [
            ("s", "s_old has shape (288,), expected (289,) for the 17 x 17 grid"),
            ("c", "c_old has shape (288,), expected (289,) for the 17 x 17 grid"),
            ("r", "r_old has shape (16,), expected (17,) for the exposed trace"),
        ],
    )
    def test_message_names_the_field(self, name, message):
        cfg, grid, p, st = weibull_setup(17, seed=3, n_steps=1)
        setattr(st, name, getattr(st, name)[:-1])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            step(st, cfg.dt, grid, p)

    def test_message_names_the_history_record(self):
        cfg, grid, p, st = weibull_setup(17, seed=3, n_steps=1)
        st, _ = step(st, cfg.dt, grid, p)
        st = replace(st, history=st.history + (st.s[:-1],))
        message = "history[1] has shape (288,), expected (289,) for the 17 x 17 grid"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            step(st, cfg.dt, grid, p)


class TestPredictedSweep:
    """A step freezes the linear extrapolation of s once a history exists."""

    def test_one_sweep_freezes_the_extrapolation(self, monkeypatch):
        c_update_exact = bulk.c_update_exact
        frozen = []

        def recording(c_n, s_frozen, dt, p):
            frozen.append(np.array(s_frozen))
            return c_update_exact(c_n, s_frozen, dt, p)

        monkeypatch.setattr(bulk, "c_update_exact", recording)
        cfg, grid, p, st = weibull_setup(17, seed=3, n_steps=6)
        idx = grid.exposed_trace().indices
        s_n, all_terms = [], []
        for _ in range(cfg.n_steps):
            s_n.append(st.s)
            st, terms = step(st, cfg.dt, grid, p)
            all_terms.append(terms)
        want = [np.maximum(s_n[0], 0.0)]
        want += [np.maximum(2.0 * s - s_prev, 0.0) for s, s_prev in zip(s_n[1:], s_n)]
        assert len(frozen) == cfg.n_steps
        for calls, terms, w in zip(frozen, all_terms, want):
            assert np.array_equal(calls, w)
            assert np.array_equal(terms.s_trace, w[idx])

    def test_negative_extrapolation_is_clipped(self):
        cfg, grid, p, st = weibull_setup(17, seed=3, n_steps=1)
        st.s[:] = 0.3
        s_prev = np.linspace(0.0, 1.0, grid.n_nodes)  # 2*0.3 - s_prev < 0 above 0.6
        # the history of a step from s_prev to st.s
        _, terms = step(replace(st, history=(s_prev,)), cfg.dt, grid, p)
        want = np.maximum(2.0 * st.s - s_prev, 0.0)[grid.exposed_trace().indices]
        assert (want == 0.0).any() and (want > 0.0).any()
        assert np.array_equal(terms.s_trace, want)
