import concurrent.futures
import operator

import pytest

from feedbeam import CapacityError, util
from feedbeam.util import CHUNK_COUNT_LIMIT, chunk_sizes, map_chunks


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        _RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "cpus, workers, n_tasks, pool",
    [
        (2, 64, 10, 2),   # capped at the CPU count
        (8, 3, 10, 3),    # the requested count when it is smaller
        (8, 64, 5, 5),    # never more processes than tasks
        (1, 64, 10, None),  # one CPU: serial, no pool at all
        (None, 4, 10, None),  # unknown CPU count counts as one
        (8, 1, 10, None),
    ],
)
def test_map_chunks_caps_pool_size(monkeypatch, cpus, workers, n_tasks, pool):
    monkeypatch.setattr(util.os, "cpu_count", lambda: cpus)
    # map_chunks imports the pool class from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.sizes = []
    tasks = [(i, 10 * i) for i in range(n_tasks)]
    assert map_chunks(operator.add, tasks, workers) == [11 * i for i in range(n_tasks)]
    assert _RecordingPool.sizes == ([] if pool is None else [pool])


def test_chunk_sizes_refuses_more_chunks_than_the_limit():
    assert chunk_sizes(7, 3) == [3, 3, 1]
    assert chunk_sizes(3 * CHUNK_COUNT_LIMIT, 3) == [3] * CHUNK_COUNT_LIMIT
    with pytest.raises(CapacityError, match=f"take over {CHUNK_COUNT_LIMIT} chunks of 3"):
        chunk_sizes(3 * CHUNK_COUNT_LIMIT + 1, 3)
