"""Outputs pinned byte for byte against files written by an earlier version.

The determinism tests compare two runs of the same code; these compare the
current code with recorded outputs, so a change that claims to keep the
floating-point arithmetic of the s-solve is checked across versions.  A
change that means to alter the arithmetic regenerates the files with

    PYTHONPATH=src python tests/test_pinned_bytes.py [mms|weibull|weibullp1]

(the named sets alone, or all of them when no set is named) and says why
in its description.  The weibull set runs two plain Picard sweeps per step
and the weibullp1 set the default single predicted sweep, so each scheme
is pinned on its own.
"""

import os
import sys
import tempfile
from pathlib import Path

import pytest

import sulphsim.diagnostics as diagnostics
from sulphsim.config import parse_config
from sulphsim.runner import run

DATA = Path(__file__).parent / "data"
MMS_T_END = 0.005  # 5 steps per level at the spatial study's dt, 10 at dt/2
WEIBULL_CONFIG = (
    "nx = 33\nny = 33\ndt = 0.01\nn_steps = 60\nnu_law = parabolic\n"
    "r_init_mode = weibull\nweibull_r0 = 0.2\nseed = 7\nemit_vtk = false\n"
    "picard_iters = 2\n"
)
# set name -> (prefix of its files in DATA, config text)
WEIBULL_SETS = {
    "weibull": ("weibull33", WEIBULL_CONFIG),
    "weibullp1": ("weibull33p1", WEIBULL_CONFIG.replace("picard_iters = 2", "picard_iters = 1")),
}
WEIBULL_FILES = ("profiles.csv", "invariants.csv")


def mms_spatial_csv() -> str:
    """The 3-level spatial MMS table, integrated to MMS_T_END (set by the caller)."""
    return diagnostics.mms_convergence("spatial", 3).to_csv()


def weibull_run(text: str, out_dir: Path) -> None:
    result = run(parse_config(text + f"out_dir = {out_dir}\n"))
    assert result.status == 0, result.error


def test_mms_spatial_table_matches_pinned_bytes(monkeypatch):
    monkeypatch.setenv("SULPHSIM_THREADS", "1")
    monkeypatch.setattr(diagnostics, "MMS_T_END", MMS_T_END)
    assert mms_spatial_csv() == (DATA / "mms_spatial_t0005.csv").read_text()


def check_weibull_set(set_name, name, tmp_path_factory):
    prefix, text = WEIBULL_SETS[set_name]
    out = tmp_path_factory.getbasetemp() / f"pinned_{set_name}"
    if not out.exists():  # one run serves every file of its set
        weibull_run(text, out)
    assert (out / name).read_bytes() == (DATA / f"{prefix}_{name}").read_bytes()


@pytest.mark.parametrize("name", WEIBULL_FILES)
def test_weibull_run_matches_pinned_bytes(name, tmp_path_factory):
    check_weibull_set("weibull", name, tmp_path_factory)


@pytest.mark.parametrize("name", WEIBULL_FILES)
def test_weibull_predicted_sweep_run_matches_pinned_bytes(name, tmp_path_factory):
    check_weibull_set("weibullp1", name, tmp_path_factory)


def regenerate_mms() -> None:
    diagnostics.MMS_T_END = MMS_T_END
    (DATA / "mms_spatial_t0005.csv").write_text(mms_spatial_csv())


def regenerate_weibull(set_name: str) -> None:
    prefix, text = WEIBULL_SETS[set_name]
    with tempfile.TemporaryDirectory() as tmp:
        weibull_run(text, Path(tmp))
        for name in WEIBULL_FILES:
            (DATA / f"{prefix}_{name}").write_bytes((Path(tmp) / name).read_bytes())


if __name__ == "__main__":
    names = sys.argv[1:] or ["mms", *WEIBULL_SETS]
    unknown = [n for n in names if n != "mms" and n not in WEIBULL_SETS]
    if unknown:
        sets = "|".join(["mms", *WEIBULL_SETS])
        sys.exit(f"usage: {sys.argv[0]} [{sets}]  (unknown set: {', '.join(unknown)})")
    os.environ["SULPHSIM_THREADS"] = "1"
    for name in names:
        if name == "mms":
            regenerate_mms()
        else:
            regenerate_weibull(name)
