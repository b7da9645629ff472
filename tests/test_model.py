import dataclasses

import numpy as np
import pytest

from sulphsim.bulk import FieldState, assemble_s_system, c_update_exact, step
from sulphsim.grid import build_grid
from sulphsim.model import (
    ConstraintMode,
    NuLaw,
    PhysParams,
    permeability,
    porosity,
    project_box,
    rugosity_reaction,
)
from sulphsim.surface import step_r


def params(**kw):
    return PhysParams(**kw)


class TestPorosity:
    def test_zero_calcite_gives_offset(self):
        p = params(A=0.37, B=-0.2)
        assert porosity(0.0, p) == 0.37

    def test_arithmetic(self):
        p = params(A=0.1, B=-0.05)
        assert porosity(1.0, p) == pytest.approx(0.05, abs=1e-15)

    def test_constant_when_slope_zero(self):
        p = params(A=1.0, B=0.0)
        assert porosity(0.7, p) == 1.0

    def test_rejects_out_of_range(self):
        p = params()
        with pytest.raises(ValueError):
            porosity(-1e-6, p)
        with pytest.raises(ValueError):
            porosity(p.C0 + 1e-6, p)

    def test_empty_array_gives_empty_porosity(self):
        phi = porosity(np.zeros(0), params())
        assert phi.shape == (0,)

    def test_nan_entry_passes_the_range_check(self):
        # NaN fails both comparisons, so it is not "out of range"
        p = params()
        phi = porosity(np.array([0.5, np.nan]), p)
        assert phi[0] == p.A + p.B * 0.5 and np.isnan(phi[1])

    def test_nan_entry_does_not_hide_an_out_of_range_one(self):
        p = params()
        for bad in (-1e-6, p.C0 + 1e-6):
            with pytest.raises(ValueError, match="outside"):
                porosity(np.array([np.nan, bad, 0.5]), p)

    def test_tolerates_roundoff_overshoot(self):
        p = params()
        porosity(p.C0 + 0.9e-12, p)
        porosity(-0.9e-12, p)

    def test_affine_combination(self):
        # porosity(a*c1 + (1-a)*c2) == a*porosity(c1) + (1-a)*porosity(c2)
        rng = np.random.default_rng(7)
        p = params(A=0.3, B=0.4, C0=1.0)
        for _ in range(200):
            c1, c2, a = rng.uniform(0, 1, 3)
            lhs = porosity(a * c1 + (1 - a) * c2, p)
            rhs = a * porosity(c1, p) + (1 - a) * porosity(c2, p)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_bounded_by_report(self):
        # porosity stays between its values at c = 0 and c = C0
        p = params(A=0.1, B=-0.05)
        c = np.linspace(0, p.C0, 500)
        phi = porosity(c, p)
        ends = (p.A, p.A + p.B * p.C0)
        assert np.all(phi >= min(ends) - 1e-15)
        assert np.all(phi <= max(ends) + 1e-15)


class TestConstitutiveReport:
    """Bounds of the constitutive laws at their end points."""

    def test_extremes(self):
        for B, lo, hi in ((-0.05, 0.05, 0.1), (0.5, 0.1, 0.6)):
            phi = porosity(np.array([0.0, 1.0]), params(A=0.1, B=B, C0=1.0))
            assert phi.min() == pytest.approx(lo)
            assert phi.max() == pytest.approx(hi)

    def test_nu_endpoints_both_laws(self):
        for law in NuLaw:
            p = params(nu_law=law, nu0=0.3, nul=0.9, rl=2.0)
            assert permeability(0.0, p) == p.nu0 == 0.3
            assert permeability(p.rl, p) == pytest.approx(p.nul)


class TestPermeability:
    def test_flat_surface_minimum(self):
        for law in NuLaw:
            p = params(nu_law=law)
            assert permeability(0.0, p) == p.nu0

    def test_agree_at_rl(self):
        for law in NuLaw:
            p = params(nu_law=law, rl=1.7)
            assert permeability(p.rl, p) == pytest.approx(p.nul, rel=1e-14)

    def test_midpoint(self):
        p_lin = params(nu_law=NuLaw.LINEAR, nu0=0.1, nul=1.0, rl=1.0)
        p_par = params(nu_law=NuLaw.PARABOLIC, nu0=0.1, nul=1.0, rl=1.0)
        assert permeability(0.5, p_lin) == pytest.approx((0.1 + 1.0) / 2)
        assert permeability(0.5, p_par) == pytest.approx(0.1 + 0.9 / 4)

    def test_nondecreasing_on_range(self):
        r = np.linspace(0.0, 1.0, 1000)
        for law in NuLaw:
            p = params(nu_law=law, nu0=0.2, nul=1.4, rl=1.0)
            nu = permeability(r, p)
            assert np.all(np.diff(nu) >= 0)

    def test_extrapolates_beyond_rl(self):
        p = params(nu_law=NuLaw.PARABOLIC, nu0=0.0, nul=1.0, rl=1.0)
        assert permeability(2.0, p) == pytest.approx(4.0)

    def test_unknown_law_rejected(self):
        # a word that names no law must not fall through to the parabolic one
        p = params(nu_law="foo")
        assert p.validate() == ["key 'nu_law': expected one of linear, parabolic, got 'foo'"]
        with pytest.raises(ValueError, match="nu_law"):
            permeability(0.5, p)

    def test_unknown_constraint_mode_reported(self):
        assert params(constraint_mode="x").validate() == [
            "key 'constraint_mode': expected one of free, box, got 'x'"
        ]


class TestRugosityReaction:
    def test_vanishes_without_reactants(self):
        p = params(A=1.0, B=0.0, g=30.0)
        assert rugosity_reaction(0.7, 0.0, 1.0, p) == 0.0
        assert rugosity_reaction(0.7, 1.0, 0.0, p) == 0.0

    def test_flat_surface_value(self):
        p = params(A=1.0, B=0.0, g=30.0)
        assert rugosity_reaction(0.0, 1.0, 1.0, p) == pytest.approx(-30.0)

    def test_bracket_grows_with_rugosity(self):
        p = params(A=1.0, B=0.0, g=30.0)
        assert rugosity_reaction(1.0, 1.0, 1.0, p) == pytest.approx(-45.0)

    def test_nonpositive_and_monotone_in_r(self):
        rng = np.random.default_rng(11)
        p = params(A=0.1, B=-0.05, g=30.0)
        for _ in range(100):
            c, s = rng.uniform(0, 1, 2)
            r = np.sort(rng.uniform(0, 5, 20))
            g = rugosity_reaction(r, c, s, p)
            assert np.all(g <= 0)
            assert np.all(np.diff(np.abs(g)) >= -1e-15)


class TestProjectBox:
    def test_interior_point_passes_through(self):
        p = params(R0=1.0, constraint_mode=ConstraintMode.BOX)
        r, xi = project_box(0.3, dt=0.1, p=p)
        assert r == 0.3 and xi == 0.0

    def test_lower_clamp(self):
        p = params(R0=1.0)
        r, xi = project_box(-0.5, dt=0.1, p=p)
        assert r == 0.0 and xi == pytest.approx(-5.0)

    def test_upper_clamp(self):
        p = params(R0=1.0)
        r, xi = project_box(1.2, dt=0.1, p=p)
        assert r == 1.0 and xi == pytest.approx(2.0)

    def test_feasible_iff_multiplier_zero(self):
        rng = np.random.default_rng(5)
        p = params(R0=2.0)
        trial = rng.uniform(-1.0, 3.0, 500)
        r, xi = project_box(trial, dt=0.01, p=p)
        assert np.all((r >= 0.0) & (r <= p.R0))
        inside = (trial >= 0.0) & (trial <= p.R0)
        assert np.all((xi == 0.0) == inside)


class TestPhysParamsValidation:
    def test_default_config_valid(self):
        assert params().validate() == []

    def test_a1_violation_named(self):
        bad = params(A=0.1, B=-0.2, C0=1.0)  # A + B*C0 = -0.1
        msgs = bad.validate()
        assert any("(A1)" in m for m in msgs)

    def test_a9_violation_named_only_when_enforced(self):
        bad = params(B=2.0, S0=1.0)
        assert any("(A9)" in m for m in bad.validate(enforce_global_bound=True))
        assert not any("B <= 1/S0" in m for m in bad.validate(enforce_global_bound=False))

    @pytest.mark.parametrize("mode", ["free", "box"])
    @pytest.mark.parametrize("law", ["linear", "parabolic"])
    def test_permeability_that_can_turn_negative_rejected(self, law, mode):
        # nu is monotone in r >= 0 and r never decreases, so nu(r) >= 0 for
        # every r a run reaches iff nul >= nu0 (free) or nu(R0) >= 0 (box)
        p = params(nu_law=law, constraint_mode=mode, nu0=0.1, nul=0.0, R0=2.0)
        if mode == "free":
            rule = "nu(r) >= 0: free mode leaves r uncapped, so requires nul >= nu0"
            want = f"{rule} (nu0=0.1, nul=0.0)"
            admissible = dataclasses.replace(p, nul=0.1)
        else:
            nu_cap = float(permeability(2.0, p))
            assert nu_cap < 0
            rule = "nu(r) >= 0: box mode requires nu(R0) >= 0"
            want = f"{rule} (nu(R0)={nu_cap}, R0=2.0, nu0=0.1, nul=0.0, rl=1.0)"
            admissible = dataclasses.replace(p, R0=1.0)  # nu(R0) = 0 exactly
        assert p.validate() == [want]
        assert admissible.validate() == []

    def test_ceiling_guarantee_detection(self):
        assert params().ceiling_guaranteed()
        assert not params(B=2.0).ceiling_guaranteed()
        assert not params(sbar=1.5, S0=1.0).ceiling_guaranteed()


def _takes_dt(name):
    """The function name called with every argument but dt fixed, on a 5 x 5 grid."""
    p = PhysParams()
    grid = build_grid(5, 5)
    state = FieldState(0.0, np.full(25, 0.5), np.full(25, p.C0), np.full(5, 0.2), np.zeros(5))
    edge = grid.exposed_trace().indices
    return {
        "c_update_exact": lambda dt: c_update_exact(state.c, state.s, dt, p),
        "step": lambda dt: step(state, dt, grid, p),
        "step_r": lambda dt: step_r(state.r, state.c[edge], state.s[edge], dt, p),
        "project_box": lambda dt: project_box(state.r, dt, p),
        "assemble_s_system": lambda dt: assemble_s_system(grid, state, state.c, state.r, dt, p),
    }[name]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name", ["c_update_exact", "step", "step_r", "project_box", "assemble_s_system"]
)
def test_bad_dt_rejected_by_name(name, dt):
    # a NaN dt passes a dt <= 0 test; an inf one used to fail later, as a
    # non-finite field, after a RuntimeWarning
    with pytest.raises(ValueError, match=r"^dt must be finite and > 0 \(dt="):
        _takes_dt(name)(dt)
