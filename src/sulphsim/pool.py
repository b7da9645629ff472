"""Worker processes for independent jobs: sweep configurations and MMS solutions.

SULPHSIM_THREADS (default 1) is the number of worker processes.  Processes,
not threads: a run's many small numpy calls hold the GIL, so threads cannot
overlap them.  map_jobs writes every job index to an unlinked temporary
file, each index a 4-byte record, and then forks its workers from the
calling process; they share the file's offset, so each read claims the
next index.  Each worker writes its pickled results to an unlinked
temporary file of its own, which the caller reads once it has joined that
worker.

Every job computes with one OpenBLAS thread, in a worker or in the calling
process.  Two workers that each thread their GEMMs oversubscribe the cores
(from 129^2 up, a 2-config sweep ran 10x slower on 2 workers than on one),
and the rounding of a threaded GEMM depends on the thread count, so one
thread everywhere also keeps the results independent of the worker count
and the core count.  The count is set in the calling process before the
fork and restored after the join; workers inherit it, and never set it
themselves.  A fork stops OpenBLAS's thread pool, and the restore starts
it again, with threads that spin on a core for about 0.13 s before they
sleep; so after every restore, pooled or serial, the pool is stopped
again, as a fork leaves it, to start on the process's next threaded
product.  This module is not a timed layer of the benchmark's tracer, so
time spent waiting on workers counts as the caller's own.
"""

from __future__ import annotations

import os

from .config import ConfigError

# bytes per job index in the feed file.  The workers share its offset, and a read
# of a regular file moves it atomically (POSIX; Linux since 3.14): one read, one job
_RECORD = 4

_in_worker = False  # set in forked workers: their jobs run serially
_blas = None  # (get, set) OpenBLAS thread-count functions, found on first use
_blas_stop = None  # OpenBLAS's thread-pool shutdown, found with them, if exported


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


def blas_threads():
    """(get, set) for numpy's OpenBLAS thread count, or None if not found.

    The functions are looked up through the handle of numpy's core extension,
    which links the BLAS that numpy's matrix products call.  Their names
    depend on the wheel: scipy_openblas_*_num_threads64_ in numpy 2.x,
    openblas_*_num_threads64_ in the 1.2x wheels, openblas_*_num_threads in
    32-bit-integer builds.  The pool shutdown that OpenBLAS runs before a
    fork, blas_thread_shutdown_, is looked up with them.
    """
    global _blas, _blas_stop
    if _blas is None:
        import ctypes
        import sys

        core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
            "numpy.core._multiarray_umath"
        )
        _blas = ()
        lib = ctypes.CDLL(core.__file__) if core is not None else None
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                put.restype = None
                _blas = (get, put)
                _blas_stop = getattr(lib, "blas_thread_shutdown_", None)
                break
    return _blas or None


def map_jobs(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], run in up to SULPHSIM_THREADS worker processes.

    Results come back in job order.  Jobs start in that order, so a caller
    that knows their costs lists the costliest first.  With one worker, or
    inside a worker process, the jobs run one after another in the calling
    process: a pool in every worker would oversubscribe the cores.  Every
    job runs with one OpenBLAS thread (see the module docstring).  The
    count is process-wide, so the call assumes that no other thread of the
    process runs BLAS meanwhile, which also makes stopping the pool safe.

    Workers are forked, so fn and the jobs reach them without pickling: a
    lambda or a local function serves as well as a module-level one.
    Results and the exceptions fn raises must pickle.  The caller joins the
    workers in the order it forked them.  The first exception found that
    way reaches the caller as itself, and a worker that died is a
    RuntimeError that names its exit status or signal; a worker stops
    claiming jobs after one raises.  Either way, and on KeyboardInterrupt,
    the workers still running are killed, and no worker outlives the call.
    """
    if _in_worker:
        return [fn(job) for job in jobs]
    workers = min(worker_count(), len(jobs))
    blas = blas_threads()
    threads = blas[0]() if blas is not None else 1
    if threads != 1:
        blas[1](1)
    try:
        if workers > 1:
            return _fork_join(fn, jobs, workers)
        return [fn(job) for job in jobs]
    finally:
        if threads != 1:
            blas[1](threads)
            if _blas_stop is not None:
                _blas_stop()  # leave the pool as a fork leaves it (see above)


def _fork_join(fn, jobs: list, workers: int) -> list:
    """map_jobs' pool: write every job index, fork the workers, join them in fork order.

    A worker's result file never fills, so no worker waits on the caller;
    the caller reads each file once it has joined that file's worker.
    """
    import pickle
    import signal
    import struct
    import tempfile

    _flush()
    files = []  # each worker's result file, in fork order
    pids = []  # the workers not yet reaped, in fork order
    try:
        with tempfile.TemporaryFile() as feed:
            feed.write(struct.pack(f"<{len(jobs)}I", *range(len(jobs))))
            feed.flush()
            feed.seek(0)
            for _ in range(workers):
                files.append(tempfile.TemporaryFile())
                # SIGINT waits until the child runs as a worker and the parent
                # holds its pid, so that an interrupt cannot orphan either
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    pid = os.fork()
                    if pid == 0:
                        _work(fn, jobs, feed.fileno(), files[-1].fileno(), mask)
                    pids.append(pid)
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        results = [None] * len(jobs)
        received = 0
        for out in files:
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            if status != 0:  # a killed worker's file can end in a partial pickle
                raise RuntimeError(
                    f"a map_jobs worker {_describe(status)} before its jobs were done"
                )
            end = out.seek(0, os.SEEK_END)  # the worker's writes moved the shared offset
            out.seek(0)
            while out.tell() < end:
                index, ok, value = pickle.load(out)
                if not ok:
                    raise value
                results[index] = value
                received += 1
        if received < len(jobs):  # a worker exited with status 0 inside a job
            raise RuntimeError(
                f"map_jobs' workers exited without {len(jobs) - received} of {len(jobs)} results"
            )
        return results
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except ProcessLookupError:  # reaped just before an interrupt
                pass
        for out in files:
            out.close()


def _describe(status: int) -> str:
    """How a worker ended, from its wait status."""
    import signal

    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"was killed by signal {-code} ({signal.Signals(-code).name})"
    return f"exited with status {code}"


def _flush() -> None:
    """Flush stdout and stderr, so that no buffered text is written twice or lost."""
    import sys

    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # missing, broken or closed
            pass


def _work(fn, jobs: list, feed: int, out: int, mask) -> None:
    """A forked worker: run the job of each index it claims from feed, then exit.

    It restores the signal mask, and writes each pickled (index, ok, value)
    to out unbuffered: os._exit drops a file object's buffer.  After a job
    raises, it claims no more.  It never returns.
    """
    import pickle
    import signal
    import struct

    global _in_worker
    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _in_worker = True
        ok = True
        # one unbuffered read per record: a buffered reader would claim many
        while ok and len(record := os.read(feed, _RECORD)) == _RECORD:
            (index,) = struct.unpack("<I", record)
            try:
                message = pickle.dumps((index, True, fn(jobs[index])))
            except Exception as exc:
                ok = False
                try:
                    message = pickle.dumps((index, False, exc))
                except Exception:
                    message = pickle.dumps((index, False, RuntimeError(repr(exc))))
            view = memoryview(message)
            while view:
                view = view[os.write(out, view) :]
        status = 0
    finally:
        _flush()
        os._exit(status)
