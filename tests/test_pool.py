"""pool.map_jobs: no pool inside a pool, one BLAS thread per job, no worker left behind.

Also: a function that does not pickle still runs in the forked workers, and
a worker that dies is an error that says how.
"""

import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sulphsim
from sulphsim import pool
from sulphsim.pool import blas_threads, map_jobs


def _where(job):
    return os.getpid()


def _nested(job):
    return os.getpid(), map_jobs(_where, [0, 1])


def test_worker_runs_its_own_jobs_serially(monkeypatch):
    # a pool in every worker would oversubscribe the cores
    monkeypatch.setenv("SULPHSIM_THREADS", "2")
    results = map_jobs(_nested, [0, 1])
    for worker, inner in results:
        assert worker != os.getpid()
        assert inner == [worker, worker]


UNPICKLABLE = """
import os
from sulphsim.pool import map_jobs

def main():
    def local(x):
        return x + 1, os.getpid()
    for fn in (lambda x: (x + 1, os.getpid()), local):
        results = map_jobs(fn, [1, 2, 3, 4])
        print([value for value, _ in results], os.getpid() in {pid for _, pid in results})

main()
"""


def test_unpicklable_function_runs_in_the_workers():
    # Workers are forked, so fn is never pickled: a lambda and a local
    # function return their results from the workers, none from the
    # calling process, with SULPHSIM_THREADS = 2.  In a child process
    # with a timeout, so that a pool that waits for ever fails this test
    # instead of hanging the suite.
    env = dict(os.environ, SULPHSIM_THREADS="2", PYTHONPATH=str(Path(sulphsim.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", UNPICKLABLE],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any workers it forked
        proc.communicate()
        pytest.fail("map_jobs hung on a function that does not pickle")
    assert proc.returncode == 0, err
    assert out.splitlines() == ["[2, 3, 4, 5] False", "[2, 3, 4, 5] False"]


@pytest.fixture(autouse=True)
def fail_instead_of_hanging():
    # a pool that waits for ever fails its test instead of hanging the suite
    def expire(signum, frame):
        raise TimeoutError("map_jobs did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setenv("SULPHSIM_THREADS", "2")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _identity(job):
    return job


def _raise(job):
    raise ValueError(f"job {job} failed")


def _raise_at_3(job):
    if job == 3:
        raise ValueError("job 3 failed")
    return job


def _exit_3_at_1(job):
    if job == 1:
        os._exit(3)
    return job


def _kill_self_at_1(job):
    if job == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return job


def _exit_0_at_1(job):
    if job == 1:
        os._exit(0)
    return job


def _interrupt_parent(job):
    if job == 0:
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(60)


def _blas_count(job):
    return os.getpid(), blas_threads()[0]()


def _nested_blas_count(job):
    return os.getpid(), blas_threads()[0](), map_jobs(_blas_count, [0, 1])


@pytest.mark.parametrize(
    "fn, message",
    [
        (_exit_3_at_1, r"a map_jobs worker exited with status 3 before its jobs were done"),
        (
            _kill_self_at_1,
            r"a map_jobs worker was killed by signal 9 \(SIGKILL\) before its jobs were done",
        ),
        (_exit_0_at_1, r"map_jobs' workers exited without 1 of 4 results"),
    ],
)
def test_worker_death_is_an_error_that_says_how(two_workers, fn, message):
    with pytest.raises(RuntimeError, match=rf"^{message}$"):
        map_jobs(fn, [0, 1, 2, 3])
    assert_no_child_left()


def test_no_child_left_after_success_or_a_job_exception(two_workers):
    assert map_jobs(_identity, [0, 1, 2]) == [0, 1, 2]
    assert_no_child_left()
    with pytest.raises(ValueError, match=r"^job \d failed$"):
        map_jobs(_raise, [0, 1, 2])
    assert_no_child_left()


def test_a_worker_claims_no_job_after_one_raises(two_workers, tmp_path):
    # so a call whose every job fails ends after a job per worker
    def fail(job):
        (tmp_path / str(job)).touch()
        raise ValueError(f"job {job} failed")

    with pytest.raises(ValueError, match=r"^job \d+ failed$"):
        map_jobs(fail, list(range(100)))
    assert len(list(tmp_path.iterdir())) <= 2
    assert_no_child_left()


def test_no_child_left_after_keyboard_interrupt(two_workers):
    with pytest.raises(KeyboardInterrupt):
        map_jobs(_interrupt_parent, [0, 1])
    assert_no_child_left()


def test_more_jobs_than_one_pipe_buffer_holds(two_workers):
    # 20,000 index records are 80 kB, more than a 64 kB pipe buffer would
    # hold: the feed file takes them all before the first fork
    jobs = list(range(20_000))
    assert map_jobs(_identity, jobs) == jobs
    assert_no_child_left()


def test_results_larger_than_a_pipe_buffer_come_back_whole(two_workers, tmp_path):
    # each pickled result is over 200 kB, more than a 64 kB pipe buffer
    # holds.  Jobs 0 and 1 each wait until both have started, so each of
    # the two workers returns at least one of them.
    def job(j):
        (tmp_path / str(j)).touch()
        while j < 2 and not ((tmp_path / "0").exists() and (tmp_path / "1").exists()):
            time.sleep(0.001)
        return os.getpid(), bytes([j]) * 200_000

    results = map_jobs(job, [0, 1, 2, 3])
    assert [value for _, value in results] == [bytes([j]) * 200_000 for j in range(4)]
    assert len({pid for pid, _ in results}) == 2
    assert_no_child_left()


@pytest.mark.parametrize(
    "fn, error",
    [
        (_identity, None),
        (_raise, ValueError),
        (_raise_at_3, ValueError),
        (_exit_3_at_1, RuntimeError),
        (_interrupt_parent, KeyboardInterrupt),
    ],
    ids=["success", "job_exception", "exception_at_3", "worker_death", "keyboard_interrupt"],
)
def test_no_descriptor_outlives_the_call(two_workers, fn, error):
    # the feed file and every worker's result file are closed however the
    # call ends; job 3's exception surfaces whichever worker ran it
    before = set(os.listdir("/proc/self/fd"))
    if error is None:
        assert map_jobs(fn, [0, 1, 2, 3]) == [0, 1, 2, 3]
    else:
        with pytest.raises(error):
            map_jobs(fn, [0, 1, 2, 3])
    assert set(os.listdir("/proc/self/fd")) == before
    assert_no_child_left()


def test_blas_setter_is_found():
    # a renamed symbol must fail here, not silently drop the pin
    assert blas_threads() is not None


def test_jobs_compute_with_one_blas_thread(two_workers, monkeypatch, tmp_path):
    get, put = blas_threads()
    log = tmp_path / "calls"  # a worker's calls would land here too
    log.touch()

    def recording_put(n):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {n}\n")
        put(n)

    monkeypatch.setattr(pool, "_blas", (get, recording_put))
    before = get()
    put(2)
    try:
        results = map_jobs(_nested_blas_count, [0, 1])
        for worker, threads, inner in results:
            assert worker != os.getpid()
            assert threads == 1
            assert inner == [(worker, 1), (worker, 1)]
        assert get() == 2
        monkeypatch.setenv("SULPHSIM_THREADS", "1")
        assert map_jobs(_blas_count, [0]) == [(os.getpid(), 1)]
        assert get() == 2
    finally:
        put(before)
    # only this process sets the count: once before the fork or the serial
    # jobs, once after; a worker, even in its nested map_jobs, never does
    me = os.getpid()
    assert log.read_text().splitlines() == [f"{me} 1", f"{me} 2", f"{me} 1", f"{me} 2"]


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.parametrize("then_serial", [False, True], ids=["pooled", "pooled_then_serial"])
def test_calling_process_is_idle_after_the_join(two_workers, monkeypatch, then_serial):
    # restoring the count restarts OpenBLAS's pool, which the fork stopped;
    # its threads would spin for about 0.13 s of CPU after every call, and
    # after a serial call in a process that has forked before
    get, put = blas_threads()
    before = get()
    put(2)
    try:
        assert map_jobs(_identity, [0, 1]) == [0, 1]
        if then_serial:
            monkeypatch.setenv("SULPHSIM_THREADS", "1")
            assert map_jobs(_identity, [0, 1]) == [0, 1]
        assert get() == 2
        start = _cpu_s()
        time.sleep(0.3)
        assert _cpu_s() - start < 0.03
    finally:
        put(before)


SWEEP_129 = """
import sulphsim

configs = [
    sulphsim.parse_config(
        "nx = 129\\nny = 129\\ndt = 0.01\\nn_steps = 5\\nnu_law = parabolic\\n"
        f"r_init_mode = weibull\\nweibull_r0 = 0.2\\nseed = {seed}\\nemit_vtk = false\\n"
        f"out_dir = run{seed}\\n"
    )
    for seed in (1, 2)
]
assert all(r.status == 0 for r in sulphsim.sweep(configs, "summary.csv"))
"""


def test_sweep_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path):
    # From 129^2 up a threaded GEMM rounds by its thread count; every job
    # computes with one thread, whatever the process's own count and the
    # number of workers.
    written = {}
    for blas, workers in (("1", "1"), ("2", "1"), ("1", "2"), ("2", "2")):
        out = tmp_path / f"blas{blas}-workers{workers}"
        out.mkdir()
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=blas,
            SULPHSIM_THREADS=workers,
            PYTHONPATH=str(Path(sulphsim.__file__).parents[1]),
        )
        subprocess.run([sys.executable, "-c", SWEEP_129], cwd=out, env=env, check=True, timeout=120)
        written[blas, workers] = {
            str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()
        }
    first = written["1", "1"]
    assert {"summary.csv", "run1/profiles.csv", "run2/invariants.csv"} <= set(first)
    for case, files in written.items():
        assert files == first, case
