"""The one process pool behind ``--workers``."""

import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

__all__ = ["spawn_map"]

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def spawn_map(fn, args, jobs, workers):
    """``[fn(*args, job) for job in jobs]``, with ``workers`` processes.

    With ``workers > 1`` the same list is computed in a spawn-context
    process pool. The jobs are cut into ``workers`` runs in job order,
    and each run goes to a worker in one message with ``fn`` and
    ``args``. Workers start with one BLAS thread each: ``BLAS_VARS`` are
    "1" in ``os.environ``, which they inherit, while the pool lives. A
    failing job raises the exception of the first one in job order. No
    pool starts when there are no jobs, and ``workers < 1`` raises
    ``ValueError``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or not jobs:
        return [fn(*args, job) for job in jobs]
    saved = {k: os.environ.pop(k) for k in BLAS_VARS if k in os.environ}
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            share = math.ceil(len(jobs) / workers)
            return list(pool.map(functools.partial(fn, *args), jobs, chunksize=share))
    finally:
        for k in BLAS_VARS:
            os.environ.pop(k, None)
        os.environ.update(saved)
