"""The `both` cross-check: each value with an independent modular path is
compared against it where it is computed, and a mismatch is reported, never
absorbed."""
from collections import Counter

import pytest

from supercong import congruences, wz
from supercong.combinat import binomial_product, lucas_product
from supercong.congruences import (BackendDisagreement, CheckParams,
                                   SeriesSpec, evaluate_case, get_case,
                                   list_cases)
from supercong.harness import SweepConfig, run_sweep

from helpers import has_residue_path, lucas_checked


def _off_by_one_at(monkeypatch, case_id, bad_k):
    """The case, with lucas_product wrong by one on the description of its
    left side at member bad_k (None for a binomial scalar) at any p and
    r <= 2, and right on every other: the Lucas check reads each member's
    description, so it sees a wrong residue at member bad_k only."""
    case, good = get_case(case_id), congruences.lucas_product

    def lucas(p, *desc):
        bad = any(desc == case.member_lhs(p, r, bad_k) for r in (1, 2))
        return (good(p, *desc) + bad) % p
    monkeypatch.setattr(congruences, "lucas_product", lucas)
    return case


def test_wrong_member_raises_disagreement(monkeypatch):
    bad = _off_by_one_at(monkeypatch, "BIN-3.9", 3)
    params = CheckParams(p=11)                  # members k = 1 .. 4
    with pytest.raises(BackendDisagreement, match=r"BIN-3\.9.*p=11, r=1.*member k=3"):
        evaluate_case(bad, params, "both")
    assert evaluate_case(bad, params, "exact").passed
    monkeypatch.undo()
    assert evaluate_case(get_case("BIN-3.9"), params, "both").passed


def test_wrong_member_is_a_sweep_error(monkeypatch):
    _off_by_one_at(monkeypatch, "BIN-3.9", 3)
    report = run_sweep(SweepConfig(primes=(11,), r_max=1, glob="BIN-3.9"))
    assert report.results == []
    assert [e["case_id"] for e in report.errors] == ["BIN-3.9"]
    assert report.errors[0]["error"].startswith("BackendDisagreement: BIN-3.9")
    assert "member k=3" in report.errors[0]["error"]
    assert report.failed


def test_wrong_first_member_raises_disagreement(monkeypatch):
    bad = _off_by_one_at(monkeypatch, "BIN-3.9", 1)
    with pytest.raises(BackendDisagreement, match=r"BIN-3\.9.*p=11, r=1.*member k=1: "):
        evaluate_case(bad, CheckParams(p=11), "both")


def test_p_integral_family_needs_lucas():
    families = [c for c in list_cases() if c.kind == "family" and lucas_checked(c, 7, 2)]
    assert len(families) == 7
    # a family is Lucas-checked, as read from its first member, exactly when
    # no member's left side divides by a binomial (FACT-INV and DAO-HB do);
    # every family has a residue path
    for case in (c for c in list_cases() if c.kind == "family"):
        divides = any(j < 0 for k in case.members(7, 2) for *_, j in case.member_lhs(7, 2, k)[2:])
        assert lucas_checked(case, 7, 2) is not divides and has_residue_path(case), case.id
    # the Lucas product of the lhs description: every family claims at
    # least mod p, so it reduces to each member's rhs mod p
    for case in families:
        for k in case.members(7, 2):
            num, den = binomial_product(*case.member_rhs(7, 2, k))
            assert den == 1 and lucas_product(7, *case.member_lhs(7, 2, k)) == num % 7, \
                (case.id, k)


BINOMIAL_SCALARS = ["BIN-3.4", "BIN-3.5", "BIN-3.6", "BIN-3.7", "WOLST-BIN"]


def test_binomial_scalars_have_lucas():
    scalars = [c for c in list_cases() if c.kind == "scalar"]
    assert sorted(c.id for c in scalars if c.member_lhs is not None) == BINOMIAL_SCALARS
    assert sum(c.member_lhs is None for c in scalars) == 14     # the row and cell lemmas
    for cid in BINOMIAL_SCALARS:
        case = get_case(cid)
        for p, r in ((5, 1), (7, 2), (11, 2), (13, 1)):
            r = r if case.uses_r else 1
            assert lucas_checked(case, p, r), (cid, p, r)
            assert lucas_product(p, *case.member_lhs(p, r, None)) == case.lhs_scalar(p, r) % p, \
                (cid, p, r)


def test_wrong_binomial_scalar_is_a_disagreement_and_a_sweep_error(monkeypatch):
    bad = _off_by_one_at(monkeypatch, "BIN-3.6", None)   # a scalar's description takes k None
    params = CheckParams(p=11, r=2)
    with pytest.raises(BackendDisagreement,
                       match=r"^BIN-3\.6: exact and digitwise values disagree at "
                             r"CheckParams\(p=11, r=2[^:]*\): lhs reduces to 1 mod 11"):
        evaluate_case(bad, params, "both")
    assert evaluate_case(bad, params, "exact").passed
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
    # _check_lucas looks lucas_product up in congruences at call time
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
        if case.kind == "series" and has_residue_path(case):
            expected[case.id] = (1, 0)
        elif case.kind == "family" and lucas_checked(case, 7, params.r):
            expected[case.id] = (0, len(case.members(7, params.r)))
        else:
            expected[case.id] = (0, int(case.id in BINOMIAL_SCALARS))
    assert reached == expected
    checked = Counter(get_case(cid).kind for cid, n in expected.items() if n != (0, 0))
    assert checked == {"series": 16, "family": 7, "scalar": 5}
    assert list(expected.values()).count((0, 0)) == 18


def test_lucas_check_follows_the_left_side(monkeypatch):
    """The Lucas check is read from the left side's description: a FACT-INV
    copy whose left side divides by nothing is checked at every member, and
    a BIN-3.9 copy whose left side gains a linear factor k below the line
    runs no check."""
    calls = []

    def counted(p, *desc):
        calls.append(desc)
        return lucas_product(p, *desc)
    monkeypatch.setattr(congruences, "lucas_product", counted)
    params = CheckParams(p=7, r=2)
    fact_inv = get_case("FACT-INV")
    whole = fact_inv._replace(
        member_lhs=lambda p, r, k: (-2 * p ** r, 0, (2 * (p ** r - k), p ** r - k, 1)))
    evaluate_case(fact_inv, params, "both")
    assert calls == []
    evaluate_case(whole, params, "both")
    members = whole.members(7, 2)
    assert calls == [whole.member_lhs(7, 2, k) for k in members] and len(members) == 24
    calls.clear()
    bin39 = get_case("BIN-3.9")
    over_k = bin39._replace(
        member_lhs=lambda p, r, k: (*bin39.member_lhs(p, r, k), (k, 1, -1)))
    exact = evaluate_case(over_k, params, "exact")
    assert evaluate_case(over_k, params, "both").observed_valuation == exact.observed_valuation
    assert calls == []
    evaluate_case(bin39, params, "both")
    assert len(calls) == len(bin39.members(7, 2))


def test_summand_check_reads_the_catalog_spec(monkeypatch):
    assert wz.check_summand("GUO64", 12).passed
    wrong = SeriesSpec(lambda k: ((-1) ** k * (5 * k + 1), -6 * k, (2 * k, k, 3)), (1, 5))
    monkeypatch.setitem(congruences.SERIES, "guo64", wrong)
    report = wz.check_summand("GUO64", 12)
    assert not report.passed
    assert report.violations[0][0] == 1         # t_0 agrees, t_1 does not
