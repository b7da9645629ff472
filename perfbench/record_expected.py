"""Record the sweep check values into expected.json.

For every seed of the pool, run one sweep_weibull config (the exact config
the benchmark sweeps) and store its first_step_half_c0.  Run it from the
repository root, only when the program's results are meant to change:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import sulphsim  # noqa: E402
from workloads import EXPECTED_PATH, weibull_config  # noqa: E402

POOL = range(1, 49)


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_work", "record")
    values = {}
    try:
        for seed in POOL:
            result = sulphsim.run(sulphsim.parse_config(weibull_config(seed, work)))
            if result.status != 0 or result.metrics.first_step_half_c0 is None:
                print(f"seed {seed}: run failed ({result.error})", file=sys.stderr)
                return 1
            values[str(seed)] = result.metrics.first_step_half_c0
            print(f"seed {seed}: first_step_half_c0 = {values[str(seed)]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"first_step_half_c0": values}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
