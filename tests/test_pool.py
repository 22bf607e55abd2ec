import operator
import os

import pytest

from bayescl import pool


def test_workers_give_the_same_list_in_order():
    jobs = [5, 3, 8, 1, 13, 2, 21]
    serial = pool.spawn_map(operator.sub, (100,), jobs, 1)
    assert serial == [95, 97, 92, 99, 87, 98, 79]
    # shares of 4+3 and 3+3+1 jobs, then fewer jobs than workers
    for workers in (2, 3):
        assert pool.spawn_map(operator.sub, (100,), jobs, workers) == serial
    assert pool.spawn_map(operator.sub, (100,), jobs[:2], 3) == serial[:2]


def test_a_pool_raises_the_first_failing_jobs_exception():
    with pytest.raises(ZeroDivisionError):
        pool.spawn_map(operator.truediv, (6,), [1, 0, 2], 2)
    # both shares fail; the job first in order names its error
    with pytest.raises(TypeError, match="'str'"):
        pool.spawn_map(operator.truediv, (6,), [1, "a", 0], 2)


def test_each_worker_gets_its_share_in_one_message(monkeypatch):
    chunksizes = []

    class Recorder:
        def __init__(self, workers, mp_context):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            chunksizes.append(chunksize)
            return map(fn, jobs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", Recorder)
    assert pool.spawn_map(operator.sub, (100,), [5, 3, 8, 1, 13, 2, 21], 3)[-1] == 79
    assert chunksizes == [3]  # shares of 3, 3 and 1 jobs


def test_no_jobs_start_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
    assert pool.spawn_map(operator.sub, (100,), [], 2) == []


@pytest.mark.parametrize("workers", [0, -3])
def test_fewer_than_one_worker_rejected(workers):
    with pytest.raises(ValueError, match=rf"workers must be >= 1, got {workers}$"):
        pool.spawn_map(operator.sub, (100,), [1, 2], workers)
    with pytest.raises(ValueError, match="workers"):
        pool.spawn_map(operator.sub, (100,), [], workers)


def test_workers_start_with_one_blas_thread_and_the_environment_is_restored(monkeypatch):
    # one variable set to another count, the rest unset, as a user may have them
    first, *rest = pool.BLAS_VARS
    monkeypatch.setenv(first, "4")
    for name in rest:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    assert pool.spawn_map(os.getenv, (), list(pool.BLAS_VARS), 2) == ["1"] * len(pool.BLAS_VARS)
    assert dict(os.environ) == before
