"""The `both` cross-check: each value with an independent modular path is
compared against it, and a mismatch is reported, never absorbed."""
import dataclasses

import pytest

from supercong import congruences, wz
from supercong.congruences import (BackendDisagreement, CheckParams,
                                   SeriesSpec, cross_validate, evaluate_case,
                                   get_case, list_cases)
from supercong.exactnum import PadicContext
from supercong.harness import SweepConfig, run_sweep


def _off_by_one_at(case_id, bad_k):
    """The case with its digitwise residue wrong at member bad_k only."""
    case = get_case(case_id)
    good = case.member_lucas
    return dataclasses.replace(
        case, member_lucas=lambda p, r, k: (good(p, r, k) + (k == bad_k)) % p)


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


def test_cross_validate_reports_wrong_member():
    params, ctx = CheckParams(p=11), PadicContext(11, 1)
    assert cross_validate(get_case("BIN-3.9"), params, ctx)
    assert not cross_validate(_off_by_one_at("BIN-3.9", 3), params, ctx)
    assert not cross_validate(_off_by_one_at("BIN-3.9", 1), params, ctx)


def test_p_integral_family_needs_lucas():
    families = [c for c in list_cases() if c.kind == "family" and c.p_integral]
    assert len(families) == 7
    assert all(c.member_lucas is not None for c in families)
    # member_lucas is derived from the lhs description; every family claims
    # at least mod p, so it reduces to each member's rhs mod p
    for case in families:
        for k, _, rhs in congruences._family_members(case, CheckParams(p=7, r=2)):
            assert case.member_lucas(7, 2, k) == rhs % 7, (case.id, k)


def test_summand_check_reads_the_catalog_spec(monkeypatch):
    spec = congruences.SERIES["guo64"]
    assert wz.check_summand("GUO64", 12).passed
    wrong = SeriesSpec((1, 5), a=spec.a, rate=spec.rate, alternating=True)
    monkeypatch.setitem(congruences.SERIES, "guo64", wrong)
    report = wz.check_summand("GUO64", 12)
    assert not report.passed
    assert report.violations[0][0] == 1         # t_0 agrees, t_1 does not
