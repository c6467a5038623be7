import json
import sys
from fractions import Fraction as F

import pytest

from supercong import harness
from supercong.exactnum import INFINITE
from supercong.harness import (RECORD_FIELDS, BaselineDiff, ConfigInvalid,
                               SweepConfig, compare_baseline, parse_config,
                               read_report, run_sweep, write_report, _plan)

BAD_CONFIGS = [
    dict(primes=(5,), pmax=11),
    dict(pmax=4),
    dict(primes=()),
    dict(primes=(9,)),
    dict(primes=(2,)),
    dict(primes=(3, 5)),                 # p = 3 needs the override
    dict(r_max=0),
    dict(deltas=()),
    dict(deltas=(3,)),
    dict(deltas=(1, 1)),
    dict(backend="fast"),
    dict(status="bogus"),
    dict(report_format="xml"),
    dict(jobs=0),
]


def test_config_validation():
    for kw in BAD_CONFIGS:
        with pytest.raises(ConfigInvalid):
            SweepConfig(**kw)
        with pytest.raises(ConfigInvalid):
            SweepConfig()._replace(**kw)
    cfg = SweepConfig(primes=(3, 5), include_p3=True)
    assert cfg.resolved_primes() == [3, 5]


def test_resolved_primes():
    assert SweepConfig().resolved_primes() == \
        [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert SweepConfig(pmax=11).resolved_primes() == [5, 7, 11]
    assert SweepConfig(primes=(7, 5, 5)).resolved_primes() == [5, 7]


def test_config_echo():
    echo = SweepConfig(pmax=7, glob="GUO-*").echo()
    assert echo["primes"] == [5, 7]
    assert echo["glob"] == "GUO-*"
    assert set(echo) == {"primes", "r_max", "deltas", "glob", "status",
                         "backend", "include_p3", "strict_conjectures",
                         "report_format", "jobs"}


def test_parse_config_good(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# sweep grid\n"
        "\n"
        "primes = 5, 7\n"
        "r_max = 1\n"
        "glob = GUO-*\n"
        "deltas = 2\n"
        "backend = exact\n"
        "include_p3 = false\n"
        "report_path = out.jsonl\n")
    cfg = parse_config(path)
    assert cfg.primes == (5, 7)
    assert cfg.r_max == 1
    assert cfg.glob == "GUO-*"
    assert cfg.deltas == (2,)
    assert cfg.backend == "exact"
    assert cfg.include_p3 is False
    assert cfg.report_path == "out.jsonl"
    assert cfg.jobs == 1


def test_parse_config_errors(tmp_path):
    def bad(text, match):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigInvalid, match=match):
            parse_config(path)

    bad("primes = 5\nnope = 1\n", "line 2: unknown key")
    bad("r_max = 1\nr_max = 2\n", "line 2: duplicate key")
    bad("include_p3 = yes\n", "line 1: bad value")
    bad("pmax = eleven\n", "line 1: bad value")
    bad("just a line\n", "line 1: expected key = value")
    bad("pmax = 4\n", "pmax must be >= 5")
    with pytest.raises(ConfigInvalid, match="cannot read config"):
        parse_config(tmp_path / "missing.cfg")


def test_plan_semantics():
    def plan(**kw):
        return _plan(SweepConfig(**kw))

    assert plan(primes=(5, 7), glob="GUO-64") == [
        ("GUO-64", 5, 1, None), ("GUO-64", 5, 2, None),
        ("GUO-64", 7, 1, None), ("GUO-64", 7, 2, None)]
    # no exponent in the statement: r stays 1 regardless of r_max
    assert plan(primes=(5, 7), glob="VH-4K1") == [
        ("VH-4K1", 5, 1, None), ("VH-4K1", 7, 1, None)]
    assert len(plan(primes=(5, 7), glob="GZ-10N2")) == 8
    assert len(plan(primes=(5, 7), glob="GZ-10N2", deltas=(2,))) == 4
    assert plan(primes=(3, 5), include_p3=True, r_max=1, glob="VH-4K1") == [
        ("VH-4K1", 3, 1, None), ("VH-4K1", 5, 1, None)]
    # p = 3 points are dropped without the override even when p = 5 runs
    assert plan(pmax=5, r_max=1, glob="VH-4K1") == [("VH-4K1", 5, 1, None)]


def test_run_sweep_small():
    report = run_sweep(SweepConfig(primes=(5, 7), r_max=1, glob="*64*"))
    keys = [(r.case_id, r.params.p) for r in report.results]
    assert keys == [("GUO-64", 5), ("GUO-64", 7),
                    ("SUN-64-P4", 5), ("SUN-64-P4", 7)]
    assert report.summary() == {"pass": 4, "fail": 0, "informational": 0,
                                "error": 0}
    assert not report.failed
    assert report.wall_s > 0
    assert all(r.backend == "both" for r in report.results)


def test_results_sorted():
    report = run_sweep(SweepConfig(primes=(7, 5), r_max=2, glob="GZ-10N2"))
    keys = [(r.case_id, r.params.p, r.params.r, r.params.delta)
            for r in report.results]
    assert keys == sorted(keys)
    assert len(keys) == 8


def test_strict_conjectures_bucket():
    cfg = SweepConfig(primes=(5,), r_max=1, deltas=(2,), glob="CONJ-10N2")
    plain = run_sweep(cfg)
    assert plain.summary() == {"pass": 0, "fail": 0, "informational": 1,
                               "error": 0}
    strict = run_sweep(cfg._replace(strict_conjectures=True))
    assert strict.summary() == {"pass": 1, "fail": 0, "informational": 0,
                                "error": 0}
    # only conjectures are promoted; informational-status cases stay demoted
    raw = run_sweep(SweepConfig(primes=(5,), r_max=1, glob="Z-20N3-RAW",
                                strict_conjectures=True))
    assert raw.summary()["informational"] == 1
    assert not raw.failed


def test_report_round_trip(tmp_path):
    report = run_sweep(SweepConfig(primes=(5,), r_max=1, glob="MAO-*"))
    jl = write_report(report, tmp_path / "run.jsonl")
    meta, records = read_report(jl)
    assert meta["tool"] == "supercong"
    assert meta["summary"] == report.summary()
    assert meta["config"]["primes"] == [5]
    assert [r["case_id"] for r in records] == ["MAO-I2", "MAO-I2-IDENT"]

    sum_rec, ident_rec = records
    assert F(sum_rec["lhs"]) == F(75, 64)
    assert F(sum_rec["rhs"]) == 1300
    assert sum_rec["observed_valuation"] == 4
    assert sum_rec["pass"] is True
    assert ident_rec["observed_valuation"] == "inf"
    assert ident_rec["claimed_exponent"] is None
    assert ident_rec["delta"] is None

    # the meta object is the first non-blank line, not physical line 1
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n \n" + jl.read_text())
    assert read_report(padded) == (meta, records)

    # field order is fixed so reports diff cleanly
    lines = jl.read_text().splitlines()
    pairs = json.loads(lines[1], object_pairs_hook=list)
    assert [k for k, _ in pairs] == list(RECORD_FIELDS)

    as_csv = harness.SweepReport(report.config._replace(report_format="csv"), report.results,
                                 report.errors, report.wall_s)
    cv = write_report(as_csv, tmp_path / "run.csv")
    meta_csv, csv_records = read_report(cv)
    assert meta_csv is None
    assert csv_records == records
    assert cv.read_text().splitlines()[0] == ",".join(RECORD_FIELDS)
    # None is an empty field, and pass is written in lower case
    ident_row = dict(zip(RECORD_FIELDS, cv.read_text().splitlines()[2].split(",")))
    assert ident_row["case_id"] == "MAO-I2-IDENT"
    assert (ident_row["delta"], ident_row["claimed_exponent"]) == ("", "")
    assert (ident_row["observed_valuation"], ident_row["pass"]) == ("inf", "true")


def test_read_report_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(ConfigInvalid, match="empty report"):
        read_report(empty)
    broken = tmp_path / "broken.jsonl"
    broken.write_text('{"tool": "supercong"}\n{oops\n')
    with pytest.raises(ConfigInvalid, match="line 2"):
        read_report(broken)
    short = tmp_path / "short.jsonl"
    short.write_text('{"tool": "supercong"}\n{"case_id": "GUO-64"}\n')
    with pytest.raises(ConfigInvalid, match="malformed record"):
        read_report(short)
    badcsv = tmp_path / "bad.csv"
    badcsv.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigInvalid, match="bad csv header"):
        read_report(badcsv)
    with pytest.raises(ConfigInvalid, match="cannot read report"):
        read_report(tmp_path / "missing.jsonl")


def test_compare_baseline(tmp_path):
    report = run_sweep(SweepConfig(primes=(5, 7), r_max=1, glob="WOLST-*"))
    path = write_report(report, tmp_path / "base.jsonl")
    diff = compare_baseline(report, path)
    assert isinstance(diff, BaselineDiff)
    assert diff.clean and not diff.new_keys and not diff.missing_keys

    base = read_report(path)[1]

    flipped = [dict(r) for r in base]
    flipped[0]["pass"] = False
    diff = compare_baseline(report, flipped)
    assert not diff.clean
    assert diff.changes[0]["field"] == "pass"
    assert diff.changes[0]["key"] == ("WOLST-BIN", 5, 1, None)

    # improvements are flagged too, in both directions
    better = [dict(r) for r in base]
    better[0]["observed_valuation"] += 2
    assert not compare_baseline(report, better).clean
    assert not compare_baseline(better, base).clean

    shorter = [dict(r) for r in base][1:]
    diff = compare_baseline(report, shorter)
    assert diff.new_keys == [("WOLST-BIN", 5, 1, None)]
    assert diff.clean
    diff = compare_baseline(shorter, base)
    assert diff.missing_keys == [("WOLST-BIN", 5, 1, None)]
    assert diff.clean

    with pytest.raises(ConfigInvalid, match="malformed record"):
        compare_baseline(report, [{"case_id": "WOLST-BIN"}])


def test_parallel_matches_serial(monkeypatch):
    # MAO-* alone is one unit (one series spec); the WOLST-* points add four
    # more, so jobs=2 starts a real pool of two workers
    started, pool = [], harness._pool

    def recorded(workers):
        started.append(workers)
        return pool(workers)
    monkeypatch.setattr(harness, "_pool", recorded)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    cfg = SweepConfig(primes=(5, 7), r_max=1, glob="[MW]*")
    serial = run_sweep(cfg)
    assert started == []
    parallel = run_sweep(cfg._replace(jobs=2))
    assert started == [2]
    strip = lambda rs: [r._replace(elapsed_ms=0.0) for r in rs]
    assert strip(serial.results) == strip(parallel.results)
    ident = [r for r in parallel.results if r.case_id == "MAO-I2-IDENT"]
    # the infinite valuation must survive the worker process boundary
    assert all(r.observed_valuation == INFINITE for r in ident)


def test_per_point_error_isolation(monkeypatch):
    def boom(*a, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "evaluate_case", boom)
    report = run_sweep(SweepConfig(primes=(5,), r_max=1, glob="WOLST-BIN"))
    assert report.results == []
    assert report.errors == [{"case_id": "WOLST-BIN", "p": 5, "r": 1,
                              "delta": None, "error": "RuntimeError: boom"}]
    assert report.summary()["error"] == 1
    assert report.failed
    assert repr(report).endswith("erroring=[('WOLST-BIN', 5, 1, None)])")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-to-str digit limit")
def test_report_repr_names_failing_points_under_digit_limit():
    report = run_sweep(SweepConfig(primes=(5, 7), r_max=1, glob="GUO-64"))
    huge = F(10 ** 5000 + 1, 3)
    report.results[1] = report.results[1]._replace(lhs=huge, passed=False)
    report.errors.append({"case_id": "GZ-10N2", "p": 7, "r": 2, "delta": None,
                          "error": "MemoryError: "})
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = repr(report)
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == ("SweepReport({'pass': 1, 'fail': 1, 'informational': 0, 'error': 1}, "
                    "failing=[('GUO-64', 7, 1, None)], "
                    "erroring=[('GZ-10N2', 7, 2, None)])")
