import operator

import pytest

from bayescl import pool


def test_workers_give_the_same_list_in_order():
    jobs = [5, 3, 8, 1, 13, 2, 21]
    serial = pool.spawn_map(operator.sub, (100,), jobs, 1)
    assert serial == [95, 97, 92, 99, 87, 98, 79]
    assert pool.spawn_map(operator.sub, (100,), jobs, 2) == serial


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
