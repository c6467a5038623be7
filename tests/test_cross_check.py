"""The `both` cross-check: each value with an independent modular path is
compared against it where it is computed, and a mismatch is reported, never
absorbed."""
import dataclasses
from collections import Counter

import pytest

from supercong import congruences, wz
from supercong.combinat import binomial_product
from supercong.congruences import (BackendDisagreement, CheckParams,
                                   SeriesSpec, evaluate_case, get_case,
                                   list_cases)
from supercong.harness import SweepConfig, run_sweep


def _off_by_one_at(case_id, bad_k):
    """The case with its digitwise residue wrong at member bad_k only."""
    case = get_case(case_id)
    good = case.lucas
    return dataclasses.replace(
        case, lucas=lambda p, r, k: (good(p, r, k) + (k == bad_k)) % p)


def test_wrong_member_raises_disagreement():
    bad = _off_by_one_at("BIN-3.9", 3)
    params = CheckParams(p=11)                  # members k = 1 .. 4
    with pytest.raises(BackendDisagreement, match=r"BIN-3\.9.*p=11, r=1.*member k=3"):
        evaluate_case(bad, params, "both")
    assert evaluate_case(bad, params, "exact").passed
    assert evaluate_case(get_case("BIN-3.9"), params, "both").passed


def test_wrong_member_is_a_sweep_error(monkeypatch):
    monkeypatch.setitem(congruences.CATALOG, "BIN-3.9", _off_by_one_at("BIN-3.9", 3))
    report = run_sweep(SweepConfig(primes=(11,), r_max=1, glob="BIN-3.9"))
    assert report.results == []
    assert [e["case_id"] for e in report.errors] == ["BIN-3.9"]
    assert report.errors[0]["error"].startswith("BackendDisagreement: BIN-3.9")
    assert "member k=3" in report.errors[0]["error"]
    assert report.failed


def test_wrong_first_member_raises_disagreement():
    bad = _off_by_one_at("BIN-3.9", 1)
    with pytest.raises(BackendDisagreement, match=r"BIN-3\.9.*p=11, r=1.*member k=1: "):
        evaluate_case(bad, CheckParams(p=11), "both")


def test_p_integral_family_needs_lucas():
    families = [c for c in list_cases() if c.kind == "family" and c.p_integral]
    assert len(families) == 7
    assert all(c.lucas is not None for c in families)
    # lucas is derived from the lhs description; every family claims
    # at least mod p, so it reduces to each member's rhs mod p
    for case in families:
        for k in case.members(7, 2):
            num, den = binomial_product(*case.member_rhs(7, 2, k))
            assert den == 1 and case.lucas(7, 2, k) == num % 7, (case.id, k)


BINOMIAL_SCALARS = ["BIN-3.4", "BIN-3.5", "BIN-3.6", "BIN-3.7", "WOLST-BIN"]


def test_binomial_scalars_have_lucas():
    scalars = [c for c in list_cases() if c.kind == "scalar"]
    assert sorted(c.id for c in scalars if c.lucas is not None) == BINOMIAL_SCALARS
    assert sum(c.lucas is None for c in scalars) == 14      # the row and cell lemmas
    for cid in BINOMIAL_SCALARS:
        case = get_case(cid)
        for p, r in ((5, 1), (7, 2), (11, 2), (13, 1)):
            r = r if case.uses_r else 1
            assert case.lucas(p, r, None) == case.lhs_scalar(p, r) % p, (cid, p, r)


def test_wrong_binomial_scalar_is_a_disagreement_and_a_sweep_error(monkeypatch):
    bad = _off_by_one_at("BIN-3.6", None)       # a scalar's Lucas product takes k None
    params = CheckParams(p=11, r=2)
    with pytest.raises(BackendDisagreement,
                       match=r"^BIN-3\.6: exact and digitwise values disagree at "
                             r"CheckParams\(p=11, r=2[^:]*\): lhs reduces to 1 mod 11"):
        evaluate_case(bad, params, "both")
    assert evaluate_case(bad, params, "exact").passed
    monkeypatch.setitem(congruences.CATALOG, "BIN-3.6", bad)
    report = run_sweep(SweepConfig(primes=(11,), r_max=2, glob="BIN-3.6"))
    assert report.results == []
    assert [e["case_id"] for e in report.errors] == ["BIN-3.6", "BIN-3.6"]
    assert all(e["error"].startswith("BackendDisagreement: BIN-3.6") for e in report.errors)
    assert report.failed


def test_each_kind_reaches_its_own_check(monkeypatch):
    """On "both" a p-integral series runs the termwise residue kernel once,
    a binomial scalar its Lucas product once, a p-integral family one Lucas
    product per member, and a case with no second path neither."""
    calls = {"residue": 0, "lucas": 0}

    def counted(kind, fn):
        def wrapper(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapper
    # the lucas closures look lucas_product up in congruences at call time
    monkeypatch.setattr(congruences, "series_sum_residue",
                        counted("residue", congruences.series_sum_residue))
    monkeypatch.setattr(congruences, "lucas_product",
                        counted("lucas", congruences.lucas_product))
    reached, expected = {}, {}
    for case in list_cases():
        params = CheckParams(p=7, r=2 if case.uses_r else 1,
                             delta=2 if case.uses_delta else None)
        before = dict(calls)
        evaluate_case(case, params, "both")
        reached[case.id] = (calls["residue"] - before["residue"],
                            calls["lucas"] - before["lucas"])
        if case.kind == "series" and case.p_integral:
            expected[case.id] = (1, 0)
        elif case.kind == "family" and case.p_integral:
            expected[case.id] = (0, len(case.members(7, params.r)))
        else:
            expected[case.id] = (0, int(case.id in BINOMIAL_SCALARS))
    assert reached == expected
    checked = Counter(get_case(cid).kind for cid, n in expected.items() if n != (0, 0))
    assert checked == {"series": 16, "family": 7, "scalar": 5}
    assert list(expected.values()).count((0, 0)) == 18


def test_summand_check_reads_the_catalog_spec(monkeypatch):
    assert wz.check_summand("GUO64", 12).passed
    wrong = SeriesSpec(lambda k: ((-1) ** k * (5 * k + 1), -6 * k, (2 * k, k, 3)), (1, 5))
    monkeypatch.setitem(congruences.SERIES, "guo64", wrong)
    report = wz.check_summand("GUO64", 12)
    assert not report.passed
    assert report.violations[0][0] == 1         # t_0 agrees, t_1 does not
