"""Outputs pinned byte for byte against files written by an earlier version.

The determinism tests compare two runs of the same code; these compare the
current code with recorded outputs, so a change that claims to keep the
floating-point arithmetic of the s-solve is checked across versions.  A
change that means to alter the arithmetic regenerates the files with

    PYTHONPATH=src python tests/test_pinned_bytes.py [mms|weibull]

(the named set alone, or both when no set is named) and says why in its
description.
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
)
WEIBULL_FILES = ("profiles.csv", "invariants.csv")


def mms_spatial_csv() -> str:
    """The 3-level spatial MMS table, integrated to MMS_T_END (set by the caller)."""
    return diagnostics.mms_convergence("spatial", 3).to_csv()


def weibull_run(out_dir: Path) -> None:
    result = run(parse_config(WEIBULL_CONFIG + f"out_dir = {out_dir}\n"))
    assert result.status == 0, result.error


def test_mms_spatial_table_matches_pinned_bytes(monkeypatch):
    monkeypatch.setenv("SULPHSIM_THREADS", "1")
    monkeypatch.setattr(diagnostics, "MMS_T_END", MMS_T_END)
    assert mms_spatial_csv() == (DATA / "mms_spatial_t0005.csv").read_text()


@pytest.mark.parametrize("name", WEIBULL_FILES)
def test_weibull_run_matches_pinned_bytes(name, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "pinned_weibull"
    if not out.exists():  # one run serves every file
        weibull_run(out)
    assert (out / name).read_bytes() == (DATA / f"weibull33_{name}").read_bytes()


def regenerate_mms() -> None:
    diagnostics.MMS_T_END = MMS_T_END
    (DATA / "mms_spatial_t0005.csv").write_text(mms_spatial_csv())


def regenerate_weibull() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        weibull_run(Path(tmp))
        for name in WEIBULL_FILES:
            (DATA / f"weibull33_{name}").write_bytes((Path(tmp) / name).read_bytes())


if __name__ == "__main__":
    REGENERATE = {"mms": regenerate_mms, "weibull": regenerate_weibull}
    names = sys.argv[1:] or list(REGENERATE)
    unknown = [n for n in names if n not in REGENERATE]
    if unknown:
        sys.exit(f"usage: {sys.argv[0]} [mms|weibull]  (unknown set: {', '.join(unknown)})")
    os.environ["SULPHSIM_THREADS"] = "1"
    for name in names:
        REGENERATE[name]()
