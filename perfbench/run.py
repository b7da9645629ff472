"""sulphsim benchmark: one workload, timed from outside through the public API.

    python3 perfbench/run.py --workload reference|mms_spatial|sweep_weibull \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
Each op is one closed-loop public call (``sulphsim.run``,
``diagnostics.mms_convergence`` or ``sulphsim.sweep``) made from this
process, and repeated while one more op would end within ``--seconds``
(the first op always runs).  An op fails when
its output check fails (see workloads.py) or its artifacts differ from the
run's first op, so every run with two ops or more compares same-seed
artifacts byte for byte; a traced run always makes two.

``--trace 0`` prints the end-to-end metrics: wall time per call (the
median; its quartiles are printed too), time steps per second, set-up time
(median of several fresh processes) and peak RSS.  ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics of the traced
ones, per call, plus the tracing overhead.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, prepare, tree_digest, working_set  # noqa: E402

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

# Per-call metrics taken from the tracer's per-function aggregates.
FUNC_METRICS = {
    "bulk.cg_solve": ("calls", "self_s"),
    "bulk.assemble_s_system": ("calls", "self_s"),
    "bulk.step": ("self_s",),
    "bulk.c_update_exact": ("self_s",),
    "surface.step_r": ("self_s",),
    "surface.init_rugosity": ("self_s",),
    "diagnostics.audit_step": ("self_s",),
    "diagnostics.run_mms_level": ("self_s",),
    "output.write_vtk": ("calls", "self_s"),
    "output.write_profiles_csv": ("calls", "self_s"),
    "output.write_invariants_csv": ("calls", "self_s"),
    "output.write_manifest": ("calls", "self_s"),
    "runner.run": ("calls", "self_s"),
    "runner.sweep": ("calls",),
    "config.parse_config": ("self_s",),
    "grid.build_grid": ("self_s",),
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(sulphsim, threads: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        indices = sorted(os.listdir(base))
    except OSError:
        indices = []
    for idx in indices:
        if idx.startswith("index") and _read(f"{base}/{idx}/type") in ("Unified", "Data"):
            caches[f"L{_read(f'{base}/{idx}/level')}"] = _read(f"{base}/{idx}/size")
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        head = _read(os.path.join(ROOT, ".git", head[5:]))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sulphsim": sulphsim.__version__,
        "git_commit": head,
        "SULPHSIM_THREADS": threads,
    }


def setup_samples(workload: str, seed: int, out_dir: str) -> list[float]:
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, probe, "--workload", workload, "--seed", str(seed),
             "--out", out_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def layer_metrics(tracer: Tracer, n_ops: int, threads: int, overhead_s: float) -> dict:
    """Per-call averages of the traced ops, named as in BENCHMARK.json."""
    m = {}
    for key, kinds in FUNC_METRICS.items():
        for kind in kinds:
            total = tracer.calls[key] if kind == "calls" else tracer.self_s[key]
            m[f"{key}.{kind}"] = (total / n_ops, "count" if kind == "calls" else "s")
    cg_calls = tracer.calls["bulk.cg_solve"]
    iters = tracer.counters["bulk.cg_solve.iters_total"]
    m["bulk.cg_solve.iters_total"] = (iters / n_ops, "count")
    m["bulk.cg_solve.iters_mean"] = (iters / cg_calls if cg_calls else 0.0, "count")
    m["bulk.cg_solve.iters_max"] = (tracer.counters["bulk.cg_solve.iters_max"], "count")
    m["bulk.cg_solve.us_per_iter"] = (
        1e6 * tracer.self_s["bulk.cg_solve"] / iters if iters else 0.0, "us")
    m["bulk.cg_solve.bytes_computed"] = (tracer.counters["bulk.cg_solve.bytes_computed"] / n_ops, "B")
    asm_calls = tracer.calls["bulk.assemble_s_system"]
    m["bulk.assemble_s_system.us_per_call"] = (
        1e6 * tracer.self_s["bulk.assemble_s_system"] / asm_calls if asm_calls else 0.0, "us")
    m["output.bytes_written"] = (tracer.counters["output.bytes_written"] / n_ops, "B")
    sweep_s = tracer.incl_s["runner.sweep"]
    busy = tracer.incl_s["runner.run"] if sweep_s else 0.0
    m["runner.sweep.parallel_efficiency"] = (busy / (sweep_s * threads) if sweep_s else 0.0, "ratio")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self_s(layer) / n_ops, "s")
        m[f"trace.spans.{layer}"] = (tracer.layer_spans(layer) / n_ops, "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def run_op(sulphsim, wl, seed: int, op_dir: str, tracer: Tracer | None):
    """One public call, timed; returns (wall_s, steps, problems, digest)."""
    shutil.rmtree(op_dir, ignore_errors=True)
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            prep = prepare(sulphsim, wl, seed, op_dir)
            t0 = time.perf_counter()
            result = wl.call(sulphsim, prep, op_dir)
            wall = time.perf_counter() - t0
        return wall, wl.steps(prep), wl.check(prep, result), tree_digest(op_dir)
    except Exception:  # a failed op is counted, and the run goes on
        return float("nan"), 0, ["raised:\n" + traceback.format_exc()], None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "sulphsim", "__init__.py")):
        print(f"error: no sulphsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sulphsim

    if os.path.dirname(os.path.abspath(sulphsim.__file__)) != os.path.join(SRC, "sulphsim"):
        print(f"error: imported sulphsim from {sulphsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    os.environ["SULPHSIM_THREADS"] = str(threads)
    work = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{os.getpid()}")
    op_dir = os.path.join(work, "op")  # same path every op, so artifacts compare byte for byte
    print("env " + json.dumps(environment(sulphsim, threads)))
    print("working_set " + json.dumps([working_set(n) for n in wl.grid_sides]))

    tracer = Tracer(sulphsim)
    walls = {False: [], True: []}
    steps = failed = k = 0
    first_digest = None
    try:
        setup = [] if args.trace else setup_samples(wl.name, args.seed, op_dir)
        start = time.perf_counter()
        # An op (with --trace 1, a pair of an untraced and a traced op) starts
        # only if one as long as the last would end within --seconds, so a run
        # measures close to --seconds without overrunning it by a whole op.
        unit = args.trace + 1
        last_unit_s = 0.0
        while k % unit or k == 0 or time.perf_counter() - start + last_unit_s <= args.seconds:
            traced = bool(args.trace and k % 2)
            t_op = time.perf_counter()
            wall, op_steps, problems, digest = run_op(
                sulphsim, wl, args.seed, op_dir, tracer if traced else None)
            last_unit_s = (0.0 if k % unit == 0 else last_unit_s) + time.perf_counter() - t_op
            if digest is not None:
                walls[traced].append(wall)
                steps += 0 if traced else op_steps
                first_digest = first_digest or digest
                if digest != first_digest:
                    problems.append(f"artifacts differ from the run's first op ({digest[:12]} != {first_digest[:12]})")
            print(f"op {k} {'traced' if traced else 'plain'} wall_s={wall:.4f} "
                  + ("ok" if not problems else "FAILED: " + "; ".join(problems)), flush=True)
            failed += bool(problems)
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            os.rmdir(os.path.dirname(work))

    plain = walls[False]
    if not plain:
        metrics = {}
    elif args.trace:
        overhead = statistics.median(walls[True]) - statistics.median(plain) if walls[True] else 0.0
        metrics = layer_metrics(tracer, max(1, len(walls[True])), threads, overhead)
    else:
        q1, med, q3 = quartiles(plain)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_s": (med, "s"),
            "steps_per_s": (steps / sum(plain), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        print(f"wall_s samples={len(plain)} q1={q1:.4f} median={med:.4f} q3={q3:.4f}; "
              f"setup_s samples={len(setup)} " + " ".join(f"{s:.4f}" for s in setup))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and bool(plain),
        "attempted": k,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
