"""Sizing and scheduling of the sweep's worker pool.  A fake executor stands
in for the process pool (harness._pool), so these tests start no process."""
from collections import Counter

import pytest

from supercong import congruences, harness
from supercong.congruences import SERIES, get_case
from supercong.exactnum import residue
from supercong.harness import SweepConfig, _ser_record, run_sweep


class FakePool:
    """Runs the mapped calls in this process, chunk by chunk, and empties the
    kernels' caches and the running pass before each chunk (fresh_kernels),
    as if every chunk went to a fresh worker.  Records the worker count asked
    for and the units handed over."""
    created = []
    units = []
    fresh = None

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
            FakePool.fresh()
            out.extend(fn(*call) for call in calls[i:i + chunksize])
        return out


@pytest.fixture(autouse=True)
def fresh_workers(fresh_kernels):
    FakePool.fresh = fresh_kernels


def sweep(monkeypatch, cpus, **config):
    FakePool.created, FakePool.units = [], []
    monkeypatch.setattr(harness, "_pool", FakePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    return run_sweep(SweepConfig(**config))


def test_one_point_runs_serially_whatever_jobs_asks(monkeypatch):
    report = sweep(monkeypatch, 64, glob="VH-4K1", primes=(5,), jobs=10000)
    assert FakePool.created == []
    assert len(report.results) == 1 and report.results[0].passed
    # the report echoes the jobs requested
    assert report.config.echo()["jobs"] == 10000


def test_pool_is_capped_by_cpus_and_tasks(monkeypatch):
    # BIN-3.4 reads no shared sum, so each of its points is a unit of its own
    bin34 = dict(glob="BIN-3.4", r_max=1)
    sweep(monkeypatch, 3, primes=(5, 7, 11, 13, 17), jobs=10000, **bin34)
    assert FakePool.created == [3]
    sweep(monkeypatch, 64, primes=(5, 7), jobs=10000, **bin34)
    assert FakePool.created == [2]
    sweep(monkeypatch, 64, primes=(5, 7, 11), jobs=2, **bin34)
    assert FakePool.created == [2]
    sweep(monkeypatch, None, primes=(5, 7), jobs=4, **bin34)
    assert FakePool.created == []
    # every point reading one series spec is one unit: one worker
    sweep(monkeypatch, 64, glob="VH-4K1", primes=(5, 7, 11, 13, 17), jobs=10000)
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
    # MAO-I2 and its identity read the same series spec: at every prime they
    # are one unit, in ascending cap (p - 1) / 2
    assert harness._units(SweepConfig(glob="MAO-I2*")) == \
        [[(case, p, 1, None) for p in SweepConfig().resolved_primes()
          for case in ("MAO-I2", "MAO-I2-IDENT")]]


def cap(task):
    case_id, p, r, delta = task
    return get_case(case_id).upper(p, r, delta or 1)


def test_each_series_spec_is_one_unit_in_ascending_cap():
    units = harness._units(SweepConfig())
    readers = {}
    for unit in units:
        specs = {get_case(task[0]).kernel for task in unit} & set(SERIES)
        if specs:
            (name,) = specs
            assert name not in readers
            readers[name] = unit
            assert all(get_case(task[0]).kernel == name for task in unit)
            assert [cap(task) for task in unit] == sorted(cap(task) for task in unit)
    assert set(readers) == set(SERIES)
    # 13 primes; GUO-64 at r = 1 and 2
    assert Counter(task[0] for task in readers["guo64"]) == \
        {"GUO-64": 26, "SUN-64-P4": 13, "VH-4K1": 13}


@pytest.mark.parametrize("status", ["lemma", "fact-family"])
def test_units_reading_no_series_spec_are_one_per_p_r_kernel(status):
    # the grouping of sweeps with no series spec: one unit per (p, r, kernel),
    # largest p^r first, ties in the plan's order; a unit whose points have
    # a cap in ascending cap: LEM-2.1's delta = 2 window before delta = 1
    config = SweepConfig(status=status)
    units = {}
    for task in harness._plan(config):
        case_id, p, r, _ = task
        units.setdefault((p, r, get_case(case_id).kernel or case_id), []).append(task)
    for (p, r, kernel), unit in units.items():
        if kernel == "LEM-2.1":
            assert unit == [("LEM-2.1", p, r, 1), ("LEM-2.1", p, r, 2)]
            unit.reverse()
    assert harness._units(config) == \
        sorted(units.values(), key=lambda unit: -unit[0][1] ** unit[0][2])


THEOREMS = dict(status="theorem", primes=(5, 7, 11), r_max=2)


def test_units_arrive_largest_first(monkeypatch):
    # a theorem sweep ends with MAO-I2's unit, whose largest p^r is 11
    for config, largest, smallest in ((LEMMAS, 49, 5), (THEOREMS, 121, 11)):
        sweep(monkeypatch, 2, jobs=2, **config)
        sizes = [max(p ** r for _, p, r, _ in unit) for unit in FakePool.units]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == largest and sizes[-1] == smallest
        # every planned point is handed over once
        tasks = [task for unit in FakePool.units for task in unit]
        assert sorted(tasks) == sorted(harness._plan(SweepConfig(**config)))


def test_serial_sweep_walks_the_pool_units(monkeypatch):
    walked, run_unit = [], harness._run_unit

    def recorded(unit, *args):
        walked.append(unit)
        return run_unit(unit, *args)
    monkeypatch.setattr(harness, "_run_unit", recorded)
    for config in (LEMMAS, THEOREMS):
        sweep(monkeypatch, 2, jobs=2, **config)
        walked.clear()
        run_sweep(SweepConfig(jobs=1, **config))
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


def test_pooled_theorem_records_equal_serial_records(monkeypatch):
    pooled = sweep(monkeypatch, 2, jobs=2, **THEOREMS)
    assert FakePool.created == [2]
    serial = run_sweep(SweepConfig(jobs=1, **THEOREMS))
    assert timing_free(pooled) == timing_free(serial)
    assert pooled.errors == serial.errors == []


ROWS = {"GUO64", "theta", "Z20N3", "GZ10N2", "GZ10N2-half"}   # the _SUMS rows


def opened_per_jobs(monkeypatch, fresh_kernels):
    """The passes each (kernel, (p, r)) opens (_open) in a lemma sweep,
    pooled (jobs = 2) and then serial (jobs = 1), by jobs."""
    fresh, opened = congruences._open, {}

    def counted(name, at=()):
        opened[jobs][name, at] += 1
        return fresh(name, at)
    monkeypatch.setattr(congruences, "_open", counted)
    for jobs in (2, 1):
        opened[jobs] = Counter()
        fresh_kernels()
        assert sweep(monkeypatch, 2, jobs=jobs, **LEMMAS).errors == []
    return opened


def test_each_kernel_is_computed_once_per_sweep(monkeypatch, fresh_kernels):
    # the points reading one row at a (p, r), its slices, run in one unit in
    # ascending upper (harness._units), so each row (kernel, (p, r)) opens
    # one pass, pooled or serial; LEM-2.1, the sixth _SUMS entry, is read by
    # its windows (test_lem21_pass_opens_once_per_p_r)
    assert set(congruences._SUMS) == ROWS | {"LEM-2.1"}
    for jobs, opened in opened_per_jobs(monkeypatch, fresh_kernels).items():
        assert {key: n for key, n in opened.items() if key[0] in ROWS} == \
            {(name, (p, r)): 1 for name in ROWS for p in (5, 7) for r in (1, 2)}, jobs


def test_lem21_pass_opens_once_per_p_r(monkeypatch, fresh_kernels):
    # a lemma sweep reads LEM-2.1's delta = 2 window, then delta = 1 from the
    # same running pass: one pass per (p, r), pooled or serial, and after the
    # serial sweep one pass held
    for jobs, opened in opened_per_jobs(monkeypatch, fresh_kernels).items():
        assert {key: n for key, n in opened.items() if key[0] == "LEM-2.1"} == \
            {("LEM-2.1", (p, r)): 1 for p in (5, 7) for r in (1, 2)}, jobs
    assert len(congruences._running) == 1


def test_only_the_certificate_pass_in_use_is_kept(monkeypatch, fresh_kernels):
    # every point reading one row (kernel, (p, r)) runs in one unit, so
    # keeping the running pass alone builds none twice: of the 44 reads of a
    # row in a serial sweep, 20 open a pass and 24 read on a kept one, and
    # one pass is alive when the sweep ends
    cached, reads = congruences._series_exact, Counter()

    def counted(name, upper, at, first=None):
        if name in ROWS:
            reads[(name, at) in congruences._running] += 1
        return cached(name, upper, at, first)
    monkeypatch.setattr(congruences, "_series_exact", counted)
    assert run_sweep(SweepConfig(**LEMMAS)).errors == []
    assert (reads[True], reads[False]) == (24, 20)
    assert len(congruences._running) == 1


def test_each_series_pass_starts_once_per_sweep(monkeypatch, fresh_kernels):
    # a sweep reads each spec at many caps; each spec is derived once, its
    # running pass starts once and steps each term up to its longest cap
    # once, and the residue kernel reads the pass's step pairs, so on both
    # no step is evaluated twice.  The theorem, known and informational
    # sweeps read all ten specs between them; the known sweep's h1 unit
    # holds H-HALF, WOLST-H1, BIN-3.5 and BIN-3.7.  On residue the same
    # sweeps give the exact sums' residues, and no series point opens a pass
    fresh, derive = congruences._open, congruences._derive
    starts, derived, steps = Counter(), Counter(), Counter()

    def counted(name, *args):
        starts[name] += 1
        return fresh(name, *args)

    def counted_derive(name, *args):
        derived[name] += 1
        seed, step = derive(name, *args)

        def counted_step(k):
            steps[name] += 1
            return step(k)
        return seed, counted_step
    monkeypatch.setattr(congruences, "_open", counted)
    monkeypatch.setattr(congruences, "_derive", counted_derive)
    read = set()
    for config in (THEOREMS, dict(status="known", primes=(5, 7, 11)),
                   dict(status="informational", primes=(5, 7, 11), r_max=2)):
        starts.clear(), derived.clear(), steps.clear()
        fresh_kernels()
        report = sweep(monkeypatch, 2, jobs=2, **config)
        assert report.errors == []
        longest = {}
        for task in harness._plan(SweepConfig(**config)):
            name = get_case(task[0]).kernel
            if name in SERIES:
                longest[name] = max(longest.get(name, 0), cap(task))
        if config is THEOREMS:
            assert FakePool.created == [2]
            assert longest == {"glr": 120, "guo64": 120, "gz10n2": 120, "z120n2": 120,
                               "z20n3-signed": 120, "mao": 5}
        if config.get("status") == "known":        # BIN-3.5's H_(11^2 - 1)
            assert longest["h1"] == 120
        assert starts == derived == {name: 1 for name in longest}, config
        # step(k) is the ratio of term k + 1 to term k: one per term after the first
        assert steps == {name: n - SERIES[name].start for name, n in longest.items()}
        read |= set(longest)

        starts.clear()
        fresh_kernels()
        residues = sweep(monkeypatch, 2, jobs=2, backend="residue", **config)
        # BIN-3.5 and BIN-3.7 reduce H_(p^r - 1) and H_((p - 1)/2), read exactly
        assert starts == ({"h1": 1} if config.get("status") == "known" else {}), config
        exact = {(res.case_id, res.params): res for res in report.results}
        for res in residues.results:
            ref = exact.pop((res.case_id, res.params))
            p, m = res.params.p, res.claimed_exponent
            assert (res.lhs, res.passed) == (residue(ref.lhs, p, m), ref.passed), res
        assert [get_case(res.case_id).kind for res in exact.values()] == \
            ["identity"] * len(residues.errors)
    assert read == set(SERIES)
