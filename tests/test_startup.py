"""What importing sulphsim loads and sets up, checked in fresh interpreters.

The test process itself imports scipy.sparse (other test modules do), so
each check that depends on the import runs in a child process.
"""

import importlib.machinery
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import sulphsim
from sulphsim import bulk

SRC = str(Path(sulphsim.__file__).parents[1])

RUN_17 = """
import sys
import sulphsim

cfg = sulphsim.parse_config(f"nx = 17\\nny = 17\\nn_steps = 5\\nout_dir = {sys.argv[1]}\\n")
assert sulphsim.run(cfg).status == 0
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy"))))

# a later import of scipy.sparse binds the kernel module already loaded
kernel = sys.modules["scipy.sparse._sparsetools"]
from scipy.sparse import _compressed
assert _compressed._sparsetools is kernel
"""

# The kernel module is in sys.modules before scipy.sparse is imported, and
# an import that finds a submodule there binds no attribute to its package.
MATRIX_THEN_ATTRIBUTE = """
import sys
import numpy as np
from sulphsim.bulk import LinearSystem

LinearSystem(np.array([0, 1]), np.array([0]), np.array([2.0]), np.array([1.0])).matrix()
import scipy.sparse
assert scipy.sparse._sparsetools is sys.modules["scipy.sparse._sparsetools"]
"""

# Mean minor page faults per step over 20 steps of a 129^2 Weibull run,
# after 20 steps that fill the state's history.
FAULTS_129 = """
import resource
from sulphsim import initial_state, parse_config, step

cfg = parse_config(
    "nx = 129\\nny = 129\\ndt = 0.01\\nn_steps = 40\\nnu_law = parabolic\\n"
    "r_init_mode = weibull\\nweibull_r0 = 0.2\\nseed = 3\\n"
)
grid, p, st = cfg.grid(), cfg.phys(), initial_state(cfg)
for _ in range(20):
    st, _ = step(st, cfg.dt, grid, p)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    st, _ = step(st, cfg.dt, grid, p)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def run_fresh(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_a_run_never_imports_scipy_sparse(tmp_path):
    # only the CSR kernel's extension is loaded, under scipy's own name
    loaded = run_fresh(RUN_17, str(tmp_path / "run")).split()
    assert "scipy.sparse._sparsetools" in loaded
    assert "scipy.sparse" not in loaded


def test_matrix_binds_the_kernel_module_as_a_scipy_sparse_attribute():
    run_fresh(MATRIX_THEN_ATTRIBUTE)


def test_missing_kernel_file_names_the_path_searched(tmp_path):
    stem = os.path.join(str(tmp_path), "sparse", "_sparsetools")
    with pytest.raises(ImportError, match="CSR kernel not found") as info:
        bulk._load_sparsetools(str(tmp_path))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        assert stem + suffix in str(info.value)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_step_loop_does_not_fault_its_heap_back_in():
    # under glibc's default thresholds the heap is trimmed of each step's
    # freed temporaries, which the next step faults back in: 250-370
    # faults per step
    assert float(run_fresh(FAULTS_129)) < 5
