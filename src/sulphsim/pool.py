"""Worker processes for independent jobs: sweep configurations and MMS levels.

SULPHSIM_THREADS (default 1) is the number of worker processes.  Processes,
not threads: a run's many small numpy calls hold the GIL, so threads cannot
overlap them.  This module is not a timed layer of the benchmark's tracer,
so time spent waiting on workers counts as the caller's own.
"""

from __future__ import annotations

import os

from .config import ConfigError


def worker_count() -> int:
    """The SULPHSIM_THREADS integer, default 1; anything else is a ConfigError."""
    value = os.environ.get("SULPHSIM_THREADS", "1")
    problem = ConfigError(f"SULPHSIM_THREADS must be an integer >= 1 (got {value!r})")
    try:
        workers = int(value)
    except ValueError:
        raise problem from None
    if workers < 1:
        raise problem
    return workers


def map_jobs(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], run in up to SULPHSIM_THREADS worker processes.

    Results come back in job order.  Jobs start in that order, so a caller
    that knows their costs lists the costliest first.  With one worker, or
    inside a worker process, the jobs run one after another in the calling
    process: a pool in every worker would oversubscribe the cores.  fn must
    be a module-level function, and jobs, results and the exceptions fn
    raises must pickle; an fn that does not pickle is a TypeError before
    any worker starts (the pool would wait on it for ever).  The first
    exception reaches the caller as itself, and jobs not yet started are
    cancelled.
    """
    workers = min(worker_count(), len(jobs))
    if workers > 1:
        # fork whatever the platform's default, so workers start from the
        # parent's module state instead of a fresh import.  Imported here,
        # so that importing sulphsim does not pay for multiprocessing.
        import multiprocessing
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        if multiprocessing.parent_process() is None:
            try:
                pickle.dumps(fn)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                name = getattr(fn, "__qualname__", repr(fn))
                raise TypeError(
                    f"map_jobs runs {name} in worker processes, but it does not pickle "
                    f"({exc}); pass a module-level function"
                ) from exc
            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork")
            )
            try:
                return list(pool.map(fn, jobs))
            finally:
                pool.shutdown(cancel_futures=True)
    return [fn(job) for job in jobs]
