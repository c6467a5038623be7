"""Sizing of the sweep's worker pool.  A fake executor stands in for the
process pool, so these tests start no process."""
from supercong import harness
from supercong.harness import SweepConfig, run_sweep


class FakePool:
    created = []

    def __init__(self, max_workers):
        FakePool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def sweep(monkeypatch, cpus, **config):
    FakePool.created = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    return run_sweep(SweepConfig(**config))


def test_one_point_runs_serially_whatever_jobs_asks(monkeypatch):
    report = sweep(monkeypatch, 64, glob="VH-4K1", primes=(5,), jobs=10000)
    assert FakePool.created == []
    assert len(report.results) == 1 and report.results[0].passed
    # the report echoes the jobs requested
    assert report.config.echo()["jobs"] == 10000


def test_pool_is_capped_by_cpus_and_tasks(monkeypatch):
    sweep(monkeypatch, 3, glob="VH-4K1", primes=(5, 7, 11, 13, 17), jobs=10000)
    assert FakePool.created == [3]
    sweep(monkeypatch, 64, glob="VH-4K1", primes=(5, 7), jobs=10000)
    assert FakePool.created == [2]
    sweep(monkeypatch, 64, glob="VH-4K1", primes=(5, 7, 11), jobs=2)
    assert FakePool.created == [2]
    sweep(monkeypatch, None, glob="VH-4K1", primes=(5, 7), jobs=4)
    assert FakePool.created == []
