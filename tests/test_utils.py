import concurrent.futures
import os

import pytest

from f4cantor import utils


@pytest.mark.parametrize("jobs, items, cpus, workers", [
    (64, 3, 8, 3),
    (64, 100, 2, 2),
    (4, 100, 8, 4),
    (2, 10, 1, None),
    (8, 1, 8, None),
    (1, 10, 8, None),
], ids=["items", "cpus", "jobs", "one-cpu-inline", "one-item-inline", "one-job-inline"])
def test_pool_is_capped_by_items_and_cpus(monkeypatch, jobs, items, cpus, workers):
    # a stand-in pool that records its size and maps inline: nothing starts
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, xs):
            return map(fn, xs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(utils, "usable_cpus", lambda: cpus)
    xs = list(range(-items, 0))
    assert utils.parallel_map(abs, xs, jobs) == [abs(x) for x in xs]
    assert sizes == ([] if workers is None else [workers])


def test_usable_cpus_is_a_positive_count():
    assert 1 <= utils.usable_cpus() <= (os.cpu_count() or 1)
