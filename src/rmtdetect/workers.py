"""Forked one-shot worker processes: run(fn, items) calls fn on every item,
split into count() contiguous chunks (chunks), and fn's effect comes back
through shared_array stacks or through files opened before the call. The
sweep, the Monte Carlo calibration (les.map_spectra) and the indicator CSV
writer use it. This module imports nothing from the package.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import threading
from typing import Any, Callable, List, Sequence

import numpy as np


def shared_array(rows: int, cols: int, dtype) -> np.ndarray:
    """A zeroed rows x cols array in anonymous shared memory: a worker forked
    after it is made writes into the caller's copy."""
    size = max(rows * cols * np.dtype(dtype).itemsize, 1)
    return np.frombuffer(mmap.mmap(-1, size), dtype=dtype, count=rows * cols).reshape(rows, cols)


def _blas_threads(cpus: int) -> int:
    """BLAS threads per process, as OpenBLAS reads them when it loads: the
    first positive OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, else one per
    usable CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return min(n, cpus)
    return cpus


def count() -> int:
    """Processes run may use: usable CPUs over BLAS threads per process.

    Worker processes only pay where BLAS leaves CPUs idle: with BLAS on
    every CPU, two forked workers ran 2.6x slower than one process. The
    count is 1 where fork is unavailable, and while another Python thread
    runs, because a child forked while a thread holds a lock inherits the
    lock held and can deadlock on it.
    """
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, cpus // _blas_threads(cpus))


def chunks(items: list) -> List[list]:
    """items cut into min(len(items), count()) contiguous chunks, at least
    one, whose lengths differ by at most one."""
    k = max(1, min(len(items), count()))
    bounds = [len(items) * j // k for j in range(k + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _run_chunk(fn: Callable[[Any], None], chunk: Sequence, conn, parent: int) -> None:
    """Body of a worker process: fn over its chunk, then one message on conn,
    None once every call has returned, or the exception one raised."""
    try:
        for x in chunk:
            if os.getppid() != parent:
                return  # orphaned: nobody is left to read the message
            fn(x)
        conn.send(None)
    except Exception as e:  # handed to the parent, which raises it
        conn.send(e)
    finally:
        conn.close()


def run(fn: Callable[[Any], None], items: Sequence) -> None:
    """fn(x) for every x in items, for its effect only, split over forked
    one-shot worker processes.

    items is cut into count() contiguous chunks (chunks). The first runs in
    this process; each other chunk runs in a child forked from it, which
    inherits fn and its chunk, sends back through a one-way pipe only
    whether fn raised, and exits, so fn's effect must reach this process
    through shared memory (shared_array, as les.map_spectra's stacks) or
    through a file the caller opened before the call
    (detect.write_indicator_csv's temporary files), which fn flushes
    itself: a child exits without flushing its file buffers. Every child is
    joined before run returns, and terminated first when the call fails. fn
    must not depend on state the other items change: the effect does not
    depend on the number of workers. An error raised by fn reaches the
    caller with its type and message; the earliest chunk's error wins, as
    in the plain loop. fn must not update a counter in memory (les's clamp
    count): a child's update stays in the child.
    """
    parts = chunks(list(items))
    if len(parts) == 1:
        for x in parts[0]:
            fn(x)
        return
    ctx = multiprocessing.get_context("fork")
    parent = os.getpid()
    workers = []
    done = False
    try:
        for chunk in parts[1:]:
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_chunk, args=(fn, chunk, writer, parent))
            proc.start()
            writer.close()
            workers.append((proc, reader))
        for x in parts[0]:
            fn(x)
        for proc, reader in workers:
            try:
                error = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"workers: worker process {proc.pid} exited with code {proc.exitcode} "
                    "before reporting"
                ) from None
            if error is not None:
                raise error
        done = True
    finally:
        for proc, reader in workers:
            reader.close()
            if not done:
                proc.terminate()
            proc.join()
