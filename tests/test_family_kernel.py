"""The family kernel: each member's binomial description, stepped along k,
against the same description evaluated factor by factor, and the Lucas
check derived from it."""
import math
from fractions import Fraction

import pytest

from supercong import congruences
from supercong.combinat import binomial
from supercong.congruences import (BackendDisagreement, BackendIneligible,
                                   CheckParams, _family_members, _stepped,
                                   _walk, evaluate_case, get_case, list_cases)
from supercong.exactnum import PadicContext, residue, vp
from supercong.harness import SweepConfig, _ser_record, run_sweep

FAMILIES = list_cases(status="fact-family")
# (7, 2) and (11, 2) step BIN-3.11 by q = p^(r-1) > 1 along n and m
POINTS = [(5, 1), (7, 2), (11, 2)]


def per_factor(desc, p, r, k):
    """The description's value with one binomial call per factor."""
    c, *factors = desc(p, r, k)
    value = Fraction(c)
    for n, m, *inverse in factors:
        assert inverse in ([], [-1])
        value = value / binomial(n, m) if inverse else value * binomial(n, m)
    return value


def value(member):
    """A kernel member as a number: an int, or the Fraction of its
    (numerator, denominator) pair."""
    return Fraction(*member) if isinstance(member, tuple) else member


def test_walk_reaches_every_binomial():
    cells = [(n, m) for n in range(13) for m in range(n + 1)]
    for n0, m0 in cells:
        for n, m in cells:
            assert _walk(math.comb(n0, m0), n0, m0, n, m) == math.comb(n, m), (n0, m0, n, m)


@pytest.mark.parametrize("p, r", POINTS)
def test_kernel_matches_binomial_per_factor(p, r):
    for case in FAMILIES:
        keys = list(case.members(p, r))
        assert keys, (case.id, p, r)
        for desc in (case.member_lhs, case.member_rhs):
            assert [value(v) for v in _stepped(desc, p, r, keys)] == \
                [per_factor(desc, p, r, k) for k in keys], (case.id, p, r)


def test_reflected_upper_index():
    for p, r in POINTS:
        P = p ** r
        for cid, a in (("BIN-3.10", 2), ("BIN-5.6", 4)):
            case = get_case(cid)
            keys = list(case.members(p, r))
            assert _stepped(case.member_lhs, p, r, keys) == \
                [binomial(-a * P - 1, 2 * P - 2 * k - 2) for k in keys], (cid, p, r)


def test_single_member_matches_full_list():
    for case in FAMILIES:
        full = _family_members(case, CheckParams(p=7, r=2))
        for item in full:
            assert _family_members(case, CheckParams(p=7, r=2, k=item[0])) == [item], \
                (case.id, item[0])


# each p-integral family's lhs with the arguments its statement writes
STATEMENT_LHS = {
    "FACT-2LL": lambda p, P, k: (P - k) * binomial(2 * (P - k), P - k) * binomial(2 * k, k),
    "FACT-2KK": lambda p, P, k: binomial(2 * k, k),
    "BIN-3.9": lambda p, P, k: binomial(2 * P - 1, k),
    "BIN-3.10": lambda p, P, k: binomial(-2 * P - 1, 2 * P - 2 * k - 2),
    "BIN-3.11": lambda p, P, j: binomial(2 * j * (P // p) - P // p - 1,
                                         j * (P // p) - (P // p + 1) // 2),
    "BIN-5.5": lambda p, P, k: binomial(3 * P - 1, k),
    "BIN-5.6": lambda p, P, k: binomial(-4 * P - 1, 2 * P - 2 * k - 2),
}


def test_derived_lucas_matches_statement():
    assert sorted(STATEMENT_LHS) == sorted(c.id for c in FAMILIES if c.p_integral)
    assert all(c.member_lucas is None for c in FAMILIES if not c.p_integral)
    for p, r in POINTS:
        for cid, lhs in STATEMENT_LHS.items():
            case = get_case(cid)
            for k in case.members(p, r):
                assert case.member_lucas(p, r, k) == lhs(p, p ** r, k) % p, (cid, p, r, k)


def wrong_kernel_at(monkeypatch, bad_k):
    """Every family value off by one at member bad_k only."""
    good = congruences._stepped

    def stepped(desc, p, r, keys):
        return [v + (k == bad_k) for k, v in zip(keys, good(desc, p, r, keys))]

    monkeypatch.setattr(congruences, "_stepped", stepped)


def test_wrong_kernel_raises_disagreement(monkeypatch):
    params = CheckParams(p=11)                  # members k = 1 .. 4
    assert evaluate_case("BIN-3.9", params, "both").passed
    wrong_kernel_at(monkeypatch, 3)
    with pytest.raises(BackendDisagreement, match=r"BIN-3\.9.*p=11, r=1.*member k=3"):
        evaluate_case("BIN-3.9", params, "both")


def test_wrong_kernel_is_a_sweep_error(monkeypatch):
    wrong_kernel_at(monkeypatch, 3)
    report = run_sweep(SweepConfig(primes=(11,), r_max=1, glob="BIN-3.9", backend="both"))
    assert report.results == []
    assert [e["case_id"] for e in report.errors] == ["BIN-3.9"]
    assert report.errors[0]["error"].startswith("BackendDisagreement: BIN-3.9")
    assert "member k=3" in report.errors[0]["error"]
    assert report.failed


def reference_score(case, params, backend):
    """(lhs, rhs, observed_valuation, passed, note) with every member a
    Fraction from per_factor, scored by exactnum.vp: the first member of
    least valuation."""
    p, r = params.p, params.r
    keys = list(case.members(p, r)) if params.k is None else [params.k]
    items = [(k, per_factor(case.member_lhs, p, r, k), per_factor(case.member_rhs, p, r, k))
             for k in keys]
    m = case.claimed(p, r)
    if backend == "residue":
        ctx = PadicContext(p, m)
        items = [(k, residue(lhs, ctx), residue(rhs, ctx)) for k, lhs, rhs in items]
        scored = [(min(vp((lhs - rhs) % p ** m, p), m), k, lhs, rhs) for k, lhs, rhs in items]
    else:
        scored = [(vp(lhs - rhs, p), k, lhs, rhs) for k, lhs, rhs in items]
    obs, k, lhs, rhs = min(scored, key=lambda s: s[0])     # the first of least
    note = f"k={k}" if params.k is not None else f"worst member k={k} of {len(keys)}"
    return lhs, rhs, obs, obs >= m, note


@pytest.mark.parametrize("backend", ["exact", "both", "residue"])
@pytest.mark.parametrize("point", POINTS + [(13, 2), "k"])
def test_integer_kernel_scores_like_fraction_reference(point, backend):
    """The int and (numerator, denominator) members, scored in integers,
    give the results of Fraction members scored by vp.  "k" is the middle
    member of each family at (7, 2), selected as --k selects it."""
    assert {c.id for c in FAMILIES if not c.p_integral} == {"FACT-INV", "DAO-HB"}
    for case in FAMILIES:
        if point == "k":
            rng = case.members(7, 2)
            params = CheckParams(p=7, r=2, k=rng[len(rng) // 2])
        else:
            params = CheckParams(p=point[0], r=point[1])
        if backend == "residue" and not case.p_integral:
            with pytest.raises(BackendIneligible):
                evaluate_case(case, params, backend)
            continue
        res = evaluate_case(case, params, backend)
        got = (res.lhs, res.rhs, res.observed_valuation, res.passed, res.note)
        assert got == reference_score(case, params, backend), (case.id, params, backend)


def test_integral_members_are_plain_ints():
    for case in FAMILIES:
        keys = list(case.members(11, 2))
        for desc in (case.member_lhs, case.member_rhs):
            members = _stepped(desc, 11, 2, keys)
            if case.p_integral or desc is case.member_rhs:
                assert all(type(v) is int for v in members), case.id
            else:       # FACT-INV and DAO-HB divide by a binomial
                assert all(type(v) is tuple and type(v[0]) is int and type(v[1]) is int
                           and v[1] > 0 for v in members), case.id


def test_one_fraction_per_reported_value(monkeypatch):
    """A family point builds Fractions only for the lhs and rhs it reports."""
    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(congruences, "Fraction", Counted)
    for case in FAMILIES:
        for backend in ("exact", "both"):
            built.clear()
            res = evaluate_case(case, CheckParams(p=11, r=2), backend)
            assert len(built) == 2, (case.id, backend, built)
            assert isinstance(res.lhs, Fraction) and isinstance(res.rhs, Fraction)


@pytest.mark.parametrize("backend", ["exact", "both", "residue"])
def test_family_records_keep_their_value_strings(backend):
    """Exact values serialise as "num/den" and residues as ints; an int in
    place of a Fraction would change the report digest."""
    for case in FAMILIES:
        if backend == "residue" and not case.p_integral:
            continue
        rec = _ser_record(evaluate_case(case, CheckParams(p=7, r=2), backend))
        for side in ("lhs", "rhs"):
            if backend == "residue":
                assert type(rec[side]) is int, (case.id, side)
            else:
                num, den = rec[side].split("/")
                assert int(den) > 0 and str(int(num)) == num, (case.id, side)
