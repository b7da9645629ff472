"""Outputs pinned byte for byte against files written by an earlier version.

The determinism tests compare two runs of the same code; these compare the
current code with recorded outputs, so a change that claims to keep the
floating-point arithmetic of the s-solve is checked across versions.  A
change that means to alter the arithmetic regenerates the files with

    PYTHONPATH=src python tests/test_pinned_bytes.py [mms|weibullp1|digests]

(the named sets alone, or all of them when no set is named) and says why
in its description.  The weibullp1 set pins the profiles and invariants
of a 33^2 Weibull run, one predicted sweep per step.  The digests set
pins every artifact of the runs in DIGEST_RUNS, VTK snapshots included,
as sha256 digests; the manifest is hashed without its out_dir line.
Every one of these runs is at most 65^2: from 129^2 up the
preconditioner's GEMMs are threaded by the BLAS, and the bytes depend on
its thread count.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

import sulphsim.diagnostics as diagnostics
from sulphsim.config import parse_config
from sulphsim.runner import run

DATA = Path(__file__).parent / "data"
# 4 steps per level at the spatial study's dt, 8 at dt/2 and 16 at dt/4, so
# each level's finest solution runs past HISTORY_DEPTH steps
MMS_T_END = 0.02
MMS_PIN = DATA / "mms_spatial_t002.csv"
WEIBULL_CONFIG = (
    "nx = 33\nny = 33\ndt = 0.01\nn_steps = 60\nnu_law = parabolic\n"
    "r_init_mode = weibull\nweibull_r0 = 0.2\nseed = 7\nemit_vtk = false\n"
)
# prefix of the weibullp1 set's files in DATA
WEIBULL_PREFIX = "weibull33p1"
WEIBULL_FILES = ("profiles.csv", "invariants.csv")
# run name -> config text; each run's artifacts are pinned in DIGESTS
DIGEST_RUNS = {
    # the paper's reference run: every default, 500 steps
    "reference": "n_steps = 500\n",
    "weibull65": (
        "nx = 65\nny = 65\ndt = 0.01\nn_steps = 200\nnu_law = parabolic\n"
        "r_init_mode = weibull\nweibull_r0 = 0.2\nseed = 27\n"
    ),
    # the box projection is active at the top edge from the first steps
    "box_top": (
        "nx = 17\nny = 33\nexposed_edge = top\nconstraint_mode = box\nR0 = 0.25\n"
        "r_init_mode = weibull\nweibull_r0 = 0.2\nseed = 5\ndt = 0.01\nn_steps = 100\n"
    ),
}
DIGESTS = DATA / "run_digests.json"


def mms_spatial_csv() -> str:
    """The 3-level spatial MMS table, integrated to MMS_T_END (set by the caller)."""
    return diagnostics.mms_convergence("spatial", 3).to_csv()


def run_text(text: str, out_dir: Path) -> None:
    result = run(parse_config(text + f"out_dir = {out_dir}\n"))
    assert result.status == 0, result.error


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in out_dir, the manifest's out_dir line left out."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.ini":
            lines = data.splitlines(keepends=True)
            data = b"".join(line for line in lines if not line.startswith(b"out_dir = "))
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def test_mms_spatial_table_matches_pinned_bytes(monkeypatch):
    monkeypatch.setenv("SULPHSIM_THREADS", "1")
    monkeypatch.setattr(diagnostics, "MMS_T_END", MMS_T_END)
    assert mms_spatial_csv() == MMS_PIN.read_text()


@pytest.mark.parametrize("name", WEIBULL_FILES)
def test_weibull_predicted_sweep_run_matches_pinned_bytes(name, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "pinned_weibullp1"
    if not out.exists():  # one run serves every file of the set
        run_text(WEIBULL_CONFIG, out)
    assert (out / name).read_bytes() == (DATA / f"{WEIBULL_PREFIX}_{name}").read_bytes()


@pytest.mark.parametrize("run_name", list(DIGEST_RUNS))
def test_run_artifacts_match_pinned_digests(run_name, tmp_path):
    run_text(DIGEST_RUNS[run_name], tmp_path)
    assert artifact_digests(tmp_path) == json.loads(DIGESTS.read_text())[run_name]


def regenerate_mms() -> None:
    diagnostics.MMS_T_END = MMS_T_END
    MMS_PIN.write_text(mms_spatial_csv())


def regenerate_weibull() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run_text(WEIBULL_CONFIG, Path(tmp))
        for name in WEIBULL_FILES:
            (DATA / f"{WEIBULL_PREFIX}_{name}").write_bytes((Path(tmp) / name).read_bytes())


def regenerate_digests() -> None:
    pinned = {}
    for run_name, text in DIGEST_RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            run_text(text, Path(tmp))
            pinned[run_name] = artifact_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")


if __name__ == "__main__":
    sets = ["mms", "weibullp1", "digests"]
    names = sys.argv[1:] or sets
    unknown = [n for n in names if n not in sets]
    if unknown:
        sets = "|".join(sets)
        sys.exit(f"usage: {sys.argv[0]} [{sets}]  (unknown set: {', '.join(unknown)})")
    os.environ["SULPHSIM_THREADS"] = "1"
    for name in names:
        if name == "mms":
            regenerate_mms()
        elif name == "digests":
            regenerate_digests()
        else:
            regenerate_weibull()
