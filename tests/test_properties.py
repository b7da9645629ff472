"""Property tests of the coupled step over the admissible parameter region.

On 9^2 grids, with lam up to 1e4, dt up to 0.05, both permeability laws
and both rugosity constraint modes: 15 steps with the warm-started CG
solves agree with the same 15 steps solved directly, and every step audits
clean.  Each discrete guarantee is also checked directly, at the audit's
tolerances: 0 <= s <= S0 when the ceiling hypotheses hold, c
nonincreasing and inside [0, C0], r >= 0 and, in box mode, r <= R0, and
the step's balance closed to BALANCE_REL_TOL relative.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

import sulphsim.bulk as bulk
from sulphsim.bulk import step
from sulphsim.config import parse_config
from sulphsim.diagnostics import BALANCE_REL_TOL, C_TOL, R_TOL, S_TOL, audit_step
from sulphsim.model import ConstraintMode
from sulphsim.runner import initial_state

N_STEPS = 15


@st.composite
def admissible_configs(draw):
    """Config text inside the region: (A1) and (A9) hold at the defaults."""
    lam = draw(st.floats(1.0, 1e4))
    dt = draw(st.floats(1e-4, 0.05))
    nu_law = draw(st.sampled_from(["linear", "parabolic"]))
    mode = draw(st.sampled_from(["free", "box"]))
    # R0 near the initial rugosity (Weibull scale 0.2) makes the box projection act
    r_max = draw(st.floats(0.1, 0.3) | st.floats(0.3, 4.0))
    nu0 = draw(st.floats(0.0, 1.0))
    nul = draw(st.floats(0.0, 2.0))
    g = draw(st.floats(0.0, 100.0))
    seed = draw(st.integers(1, 2**31))
    return (
        f"nx = 9\nny = 9\ndt = {dt!r}\nn_steps = {N_STEPS}\nlam = {lam!r}\n"
        f"nu_law = {nu_law}\nconstraint_mode = {mode}\nR0 = {r_max!r}\n"
        f"nu0 = {nu0!r}\nnul = {nul!r}\ng = {g!r}\n"
        f"r_init_mode = weibull\nweibull_r0 = 0.2\nseed = {seed}\n"
    )


def broken_guarantees(old, new, terms, p):
    """The discrete guarantees that the step from old to new broke."""
    broken = []
    if new.s.min() < -S_TOL:
        broken.append("s below 0")
    if p.ceiling_guaranteed() and new.s.max() > p.S0 + S_TOL:
        broken.append("s above S0")
    if (new.c > old.c).any():
        broken.append("c rose")
    if new.c.min() < -C_TOL or new.c.max() > p.C0 + C_TOL:
        broken.append("c outside [0, C0]")
    if len(new.r) and new.r.min() < -R_TOL:
        broken.append("r below 0")
    if p.constraint_mode is ConstraintMode.BOX and len(new.r) and new.r.max() > p.R0 + R_TOL:
        broken.append("r above R0")
    summands = (terms.accumulation, terms.reaction, terms.boundary_exchange)
    residual = abs(terms.accumulation + terms.reaction - terms.boundary_exchange)
    if residual > BALANCE_REL_TOL * max(abs(t) for t in summands):
        broken.append("balance open")
    return broken


def march(cfg):
    """The run's steps, audited as it goes.

    Returns the final state and every audit flag, plus a flag for each
    guarantee a step broke (see broken_guarantees).
    """
    grid, p = cfg.grid(), cfg.phys()
    state = initial_state(cfg)
    flags = []
    for k in range(1, cfg.n_steps + 1):
        new, terms = step(state, cfg.dt, grid, p)
        flags += audit_step(new, p, terms, grid, step_index=k).flags
        flags += [f"step {k}: {b}" for b in broken_guarantees(state, new, terms, p)]
        state = new
    return state, flags


def direct_solve(sys, **_):
    return spsolve(sys.matrix().tocsc(), sys.rhs), 0, 0.0


# An exchange of 1e-163 makes s and the right-hand side so small that the
# squares in cg_solve's norms underflow; it once returned s = 0.
TINY_EXCHANGE = (
    "nx = 9\nny = 9\ndt = 0.03125\nn_steps = 15\nlam = 1.0\nnu_law = linear\n"
    "constraint_mode = free\nR0 = 0.25\nnu0 = 1.1659365132728999e-163\nnul = 0.0\ng = 0.0\n"
    "r_init_mode = weibull\nweibull_r0 = 0.2\nseed = 1\n"
)

# The stiff corner of the region, where the predicted freeze of a single
# sweep extrapolates the fastest-changing s.
STIFF_CORNER = (
    "nx = 9\nny = 9\ndt = 0.05\nn_steps = 15\nlam = 10000.0\nnu_law = parabolic\n"
    "constraint_mode = box\nR0 = 0.25\nnu0 = 1.0\nnul = 2.0\ng = 100.0\n"
    "r_init_mode = weibull\nweibull_r0 = 0.2\nseed = 1\n"
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(admissible_configs())
@example(TINY_EXCHANGE)
@example(STIFF_CORNER)
def test_warm_started_steps_match_direct_solves_and_audit_clean(text):
    cfg = parse_config(text)
    got, flags = march(cfg)
    assert flags == []
    with mock.patch.object(bulk, "cg_solve", direct_solve):
        want, _ = march(cfg)
    for name in ("s", "c", "r"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), name
