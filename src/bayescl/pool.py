"""The one process pool behind ``--workers``."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

__all__ = ["spawn_map"]

_task = None  # (fn, args) inside a worker process


def _init_worker(fn, args):
    global _task
    _task = (fn, args)


def _call(job):
    fn, args = _task
    return fn(*args, job)


def spawn_map(fn, args, jobs, workers):
    """``[fn(*args, job) for job in jobs]``, with ``workers`` processes.

    With ``workers > 1`` the same list is computed in a spawn-context
    process pool: ``fn`` and ``args`` are sent to each worker once, and
    each job on its own. No pool starts when there are no jobs, and
    ``workers < 1`` raises ``ValueError``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or not jobs:
        return [fn(*args, job) for job in jobs]
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_init_worker,
        initargs=(fn, args),
    ) as pool:
        return list(pool.map(_call, jobs))
