"""pool.map_jobs: no pool inside a pool; a function that cannot reach the workers fails at once."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import sulphsim
from sulphsim.pool import map_jobs


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
from sulphsim.pool import map_jobs

def main():
    def local(x):
        return x + 1
    for fn in (lambda x: x + 1, local):
        try:
            map_jobs(fn, [1, 2, 3])
        except TypeError as exc:
            print(exc)

main()
"""


def test_unpicklable_function_raises_instead_of_hanging():
    # In a child process with a timeout, so that a pool that waits for ever
    # fails this test instead of hanging the suite.
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
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("map_jobs runs main.<locals>.<lambda> in worker processes")
    assert lines[1].startswith("map_jobs runs main.<locals>.local in worker processes")
