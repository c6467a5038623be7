"""Sizing and scheduling of the sweep's worker pool.  A fake executor stands
in for the process pool, so these tests start no process."""
from functools import lru_cache

from supercong import congruences, harness
from supercong.harness import SweepConfig, _ser_record, run_sweep


class FakePool:
    """Runs the mapped calls in this process, chunk by chunk, and empties the
    certificate-sum cache before each chunk, as if every chunk went to a fresh
    worker.  Records the worker count asked for and the units handed over."""
    created = []
    units = []

    def __init__(self, max_workers):
        FakePool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        calls = list(zip(*iterables))
        FakePool.units = [call[0] for call in calls]
        out = []
        for i in range(0, len(calls), chunksize):
            congruences._sums.cache_clear()
            out.extend(fn(*call) for call in calls[i:i + chunksize])
        return out


def sweep(monkeypatch, cpus, **config):
    FakePool.created, FakePool.units = [], []
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
    # the three GUO64 row lemmas at one (p, r) are one unit: one worker
    sweep(monkeypatch, 64, glob="LEM-3.[235]", primes=(5,), r_max=1, jobs=4)
    assert FakePool.created == []


LEMMAS = dict(status="lemma", primes=(5, 7), r_max=2)


def unit_of(case_id, p, r, delta=None):
    """The unit handed to the pool that holds the point."""
    (unit,) = [u for u in FakePool.units if (case_id, p, r, delta) in u]
    return unit


def test_points_sharing_a_kernel_arrive_in_one_unit(monkeypatch):
    sweep(monkeypatch, 2, jobs=2, **LEMMAS)
    rows = (("LEM-3.2", "LEM-3.3", "LEM-3.5"),      # GUO64
            ("LEM-4.2", "LEM-4.3", "LEM-4.4"),      # theta
            ("LEM-5.2", "LEM-5.3", "LEM-5.4"))      # Z20N3
    for p in (5, 7):
        for r in (1, 2):
            for cases in rows:
                assert sorted(unit_of(cases[0], p, r)) == \
                    [(c, p, r, None) for c in cases]
            assert sorted(unit_of("LEM-2.1", p, r, 1)) == \
                [("LEM-2.1", p, r, 1), ("LEM-2.1", p, r, 2)]
            # a case whose kernel no other case reads is a unit of its own
            assert unit_of("LEM-2.2", p, r) == [("LEM-2.2", p, r, None)]
    # MAO-I2 and its identity read the same cached series sum
    sweep(monkeypatch, 2, glob="MAO-I2*", primes=(5, 7), jobs=2)
    assert sorted(unit_of("MAO-I2", 7, 1)) == \
        [("MAO-I2", 7, 1, None), ("MAO-I2-IDENT", 7, 1, None)]


def test_units_arrive_largest_first(monkeypatch):
    sweep(monkeypatch, 2, jobs=2, **LEMMAS)
    sizes = [unit[0][1] ** unit[0][2] for unit in FakePool.units]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] == 49 and sizes[-1] == 5
    # every planned point is handed over once
    tasks = [task for unit in FakePool.units for task in unit]
    assert sorted(tasks) == sorted(harness._plan(SweepConfig(**LEMMAS)))


def test_serial_sweep_walks_the_pool_units(monkeypatch):
    sweep(monkeypatch, 2, jobs=2, **LEMMAS)
    walked, run_unit = [], harness._run_unit

    def recorded(unit, *args):
        walked.append(unit)
        return run_unit(unit, *args)
    monkeypatch.setattr(harness, "_run_unit", recorded)
    run_sweep(SweepConfig(jobs=1, **LEMMAS))
    assert walked == FakePool.units


def timing_free(report):
    return [{k: v for k, v in _ser_record(res).items() if k != "elapsed_ms"}
            for res in report.results]


def test_pooled_records_equal_serial_records(monkeypatch):
    pooled = sweep(monkeypatch, 2, jobs=2, **LEMMAS)
    assert FakePool.created == [2]
    serial = run_sweep(SweepConfig(jobs=1, **LEMMAS))
    assert timing_free(pooled) == timing_free(serial)
    assert pooled.errors == serial.errors == []


def counting(monkeypatch, name):
    """Replace congruences.<name> by a fresh cache over a counting copy of
    the kernel; returns the count of computations per argument tuple."""
    kernel, counts = getattr(congruences, name).__wrapped__, {}

    def counted(*args):
        counts[args] = counts.get(args, 0) + 1
        return kernel(*args)
    monkeypatch.setattr(congruences, name, lru_cache(maxsize=None)(counted))
    return counts


def test_each_kernel_is_computed_once_per_sweep(monkeypatch):
    sums = counting(monkeypatch, "_sums")
    sweep(monkeypatch, 2, jobs=2, **LEMMAS)
    assert set(congruences._SUMS) == {"GUO64", "theta", "Z20N3", "GZ10N2",
                                      "GZ10N2-half", "LEM-2.1"}
    assert set(sums) == {(name, p, r) for name in congruences._SUMS
                         for p in (5, 7) for r in (1, 2)}
    assert set(sums.values()) == {1}
