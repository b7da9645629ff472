import math

import numpy as np
import pytest

from sulphsim.grid import build_grid
from sulphsim.model import ConstraintMode, PhysParams
from sulphsim.rng import Xoshiro256pp
from sulphsim.surface import (
    RugosityInit,
    RugosityInitMode,
    init_rugosity,
    step_r,
    weibull_sample,
)


class TestWeibullSample:
    def test_small_u_limit(self):
        # u -> 0+ drives the draw to 0+
        assert weibull_sample(1e-130, r0=0.2, m=10.0) < 1e-12
        assert weibull_sample(1e-130, r0=0.2, m=10.0) > 0.0

    def test_unit_quantile(self):
        # at u = 1 - e^{-1} the inner log is exactly 1
        u = 1.0 - math.exp(-1.0)
        assert weibull_sample(u, r0=0.7, m=10.0) == pytest.approx(0.7, abs=1e-12)

    def test_median(self):
        # (ln 2)^(1/10), frozen from extended-precision evaluation
        got = weibull_sample(0.5, r0=1.0, m=10.0)
        assert got == pytest.approx(0.9640122354677897, abs=1e-14)

    def test_strictly_increasing_in_u(self):
        us = np.linspace(0.01, 0.99, 200)
        vals = [weibull_sample(u, 0.3, 4.0) for u in us]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_u(self):
        for u in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                weibull_sample(u, 0.2, 10.0)

    def test_empirical_cdf_matches_law(self):
        # Kolmogorov-Smirnov distance against F(x) = 1 - exp(-(x/r0)^m)
        rng = Xoshiro256pp(123)
        r0, m, n = 0.2, 10.0, 100_000
        draws = np.sort([weibull_sample(rng.uniform(), r0, m) for _ in range(n)])
        cdf = 1.0 - np.exp(-((draws / r0) ** m))
        ks = max(
            np.abs(cdf - np.arange(1, n + 1) / n).max(),
            np.abs(cdf - np.arange(0, n) / n).max(),
        )
        assert ks <= 0.02


class TestInitRugosity:
    def grid(self, ny=5):
        return build_grid(5, ny)

    def test_constant_zero(self):
        g = self.grid()
        r = init_rugosity(
            g.exposed_trace(),
            RugosityInit(mode=RugosityInitMode.CONSTANT, value=0.0),
            Xoshiro256pp(1), PhysParams(),
        )
        assert np.all(r == 0.0)

    def test_piecewise_reference_split(self):
        # x2 nodes 0, .25, .5, .75, 1 with r0=0.2: low half 0.1, high half 0.4
        g = self.grid()
        r = init_rugosity(
            g.exposed_trace(), RugosityInit(r0=0.2), Xoshiro256pp(1), PhysParams()
        )
        assert np.allclose(r, [0.1, 0.1, 0.4, 0.4, 0.4])

    def test_unknown_mode_rejected(self):
        # a word that names no mode must not fall through to Weibull draws
        g = self.grid()
        init = RugosityInit(mode="bad")
        assert init.validate() == [
            "key 'mode': expected one of constant, piecewise, weibull, got 'bad'"
        ]
        with pytest.raises(ValueError, match="mode"):
            init_rugosity(g.exposed_trace(), init, Xoshiro256pp(1), PhysParams())

    def test_weibull_same_seed_bit_identical(self):
        g = self.grid(ny=33)
        init = RugosityInit(mode=RugosityInitMode.WEIBULL, r0=0.2)
        p = PhysParams()
        r1 = init_rugosity(g.exposed_trace(), init, Xoshiro256pp(42), p)
        r2 = init_rugosity(g.exposed_trace(), init, Xoshiro256pp(42), p)
        r3 = init_rugosity(g.exposed_trace(), init, Xoshiro256pp(43), p)
        assert np.array_equal(r1, r2)
        assert not np.array_equal(r1, r3)

    def test_box_mode_clamps_into_range(self):
        g = self.grid(ny=17)
        p = PhysParams(constraint_mode=ConstraintMode.BOX, R0=0.19, weibull_r0=0.2)
        r = init_rugosity(
            g.exposed_trace(),
            RugosityInit(mode=RugosityInitMode.WEIBULL),
            Xoshiro256pp(7), p,
        )
        assert np.all((r >= 0.0) & (r <= p.R0))
        assert np.any(r == p.R0)  # the clamp actually engaged

    def test_modes_given_by_name_act_like_members(self):
        # "constant" must not fall through to the Weibull branch, nor "box" to free mode
        g = self.grid()
        r = init_rugosity(
            g.exposed_trace(),
            RugosityInit(mode="constant", value=0.3),
            Xoshiro256pp(1), PhysParams(constraint_mode="box", R0=0.25),
        )
        assert np.all(r == 0.25)

    def test_validates_factors(self):
        g = self.grid()
        with pytest.raises(ValueError):
            init_rugosity(
                g.exposed_trace(),
                RugosityInit(lo_factor=-1.0),
                Xoshiro256pp(1), PhysParams(),
            )


class TestStepR:
    def test_no_reactants_no_motion(self):
        p = PhysParams()
        r = np.array([0.1, 0.5, 1.0])
        r1, xi = step_r(r, np.zeros(3), np.ones(3), 1e-3, p)
        assert np.array_equal(r1, r)
        r2, _ = step_r(r, np.ones(3), np.zeros(3), 1e-3, p)
        assert np.array_equal(r2, r)

    def test_single_step_arithmetic_free_mode(self):
        # r=0, phi(c)=1, c=s=1, g=30, dt=1e-3: r1 = 0.03, xi = 0
        p = PhysParams(A=1.0, B=0.0, g=30.0)
        r1, xi = step_r(np.zeros(1), np.ones(1), np.ones(1), 1e-3, p)
        assert r1[0] == pytest.approx(0.03, rel=1e-14)
        assert xi[0] == 0.0

    def test_box_clamp_and_multiplier(self):
        p = PhysParams(A=1.0, B=0.0, g=30.0, R0=0.02, constraint_mode=ConstraintMode.BOX)
        r1, xi = step_r(np.zeros(1), np.ones(1), np.ones(1), 1e-3, p)
        assert r1[0] == pytest.approx(0.02, abs=1e-15)
        assert xi[0] == pytest.approx((0.03 - 0.02) / 1e-3, rel=1e-12)

    def test_monotone_growth_under_reference_settings(self):
        rng = np.random.default_rng(5)
        p = PhysParams()
        r = rng.uniform(0, 1, 20)
        for _ in range(50):
            c = rng.uniform(0, 1, 20)
            s = rng.uniform(0, 1, 20)
            r_next, xi = step_r(r, c, s, 1.0 / 5000.0, p)
            assert np.all(r_next >= r)
            assert np.all(xi == 0.0)
            r = r_next

    def test_pointwise_residual_identity(self):
        # (r_new - r_n)/dt + G(r_n, c, s) = 0 in free mode
        from sulphsim.model import rugosity_reaction

        rng = np.random.default_rng(9)
        p = PhysParams()
        r = rng.uniform(0, 2, 50)
        c = rng.uniform(0, 1, 50)
        s = rng.uniform(0, 1, 50)
        dt = 0.1
        r_new, _ = step_r(r, c, s, dt, p)
        resid = (r_new - r) / dt + rugosity_reaction(r, c, s, p)
        assert np.abs(resid).max() < 1e-14

    def test_rejects_negative_rugosity(self):
        with pytest.raises(ValueError):
            step_r(np.array([-0.1]), np.zeros(1), np.zeros(1), 1e-3, PhysParams())
