from fractions import Fraction as F

import pytest

from supercong import wz
from supercong.combinat import binomial, binomial_rat
from supercong.congruences import (_SUMS, BackendIneligible, CheckParams,
                                   PrimeBelowFloor, UnknownCase, _ratio_slices,
                                   _sums, _theta_direct, cross_validate,
                                   evaluate_case, get_case, list_cases)
from supercong.exactnum import INFINITE, PadicContext, residue, vp

PRIMES_31 = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def run(case_id, backend="exact", include_p3=False, **kw):
    return evaluate_case(get_case(case_id), CheckParams(**kw), backend,
                         include_p3=include_p3)


def test_catalog_shape():
    cases = list_cases()
    assert len(cases) == 46
    ids = [c.id for c in cases]
    assert ids == sorted(ids)
    counts = {}
    for c in cases:
        counts[c.status] = counts.get(c.status, 0) + 1
    assert counts == {"theorem": 7, "known": 13, "lemma": 15,
                      "fact-family": 9, "conjecture": 1, "informational": 1}


def test_catalog_filters():
    assert len(list_cases(glob="BIN-3.*")) == 7
    assert [c.id for c in list_cases(status="conjecture")] == ["CONJ-10N2"]
    assert list_cases(status="theorem", glob="Z-*") != []
    assert list_cases(glob="no-such-*") == []
    case = get_case("GUO-64")
    assert case.id == "GUO-64"
    assert get_case(case) is case
    with pytest.raises(UnknownCase):
        get_case("GUO-65")
    with pytest.raises(ValueError):
        list_cases(status="bogus")


# frozen evaluations: (case id, params, lhs, rhs, observed valuation)
FROZEN = [
    ("VH-4K1", dict(p=5), F(435, 512), 5, 3),
    ("VH-4K1", dict(p=7), F(1855, 4096), -7, 3),
    ("GZ-10N2", dict(p=5, delta=2), F(10575, 2048), 25, 5),
    ("GZ-10N2", dict(p=5, delta=1), F(7619190075, 134217728), 25, 5),
    ("GZ-10N2", dict(p=7, delta=2), F(-256025, 16384), 49, 6),
    ("GUO-64", dict(p=5), F(1678635, 2097152), 5, 3),
    ("GUO-64", dict(p=7), F(831557727, 1073741824), -7, 3),
    ("GL-R", dict(p=5), F(-1335635, 2097152), -5, 3),
    ("GL-R", dict(p=7), F(-683641035, 1073741824), 7, 3),
    ("Z-20N3", dict(p=5), F(350105460705, 137438953472), 15, 3),
    ("Z-20N3", dict(p=7), F(45874124498126925, 18014398509481984), -21, 3),
    ("Z-120N2", dict(p=5),
     F(1869044747647302225, 576460752303423488), 75, 5),
    ("MAO-I2", dict(p=5), F(75, 64), 1300, 4),
    ("MAO-I2", dict(p=7), F(1225, 1024), 11760, 4),
    ("SUN-64-P4", dict(p=5), F(1678635, 2097152), -120, 4),
    ("SUN-64-P4", dict(p=7), F(831557727, 1073741824), 1708, 4),
    ("GL-4K1-P4", dict(p=5), F(-2605, 4096), 370, 4),
    ("GL-4K1-P4", dict(p=7), F(-1335635, 2097152), -1022, 4),
    ("SUN-CAT", dict(p=5), F(7, 6), -3, 2),
    ("SUN-CAT", dict(p=7), F(149, 120), 9, 2),
    ("GZ-120N2-R", dict(p=5, delta=2), F(435082725, 134217728), 75, 5),
    ("WOLST-BIN", dict(p=5), 126, 1, 3),
]


def test_frozen_points():
    for cid, kw, lhs, rhs, obs in FROZEN:
        res = run(cid, **kw)
        assert res.lhs == lhs, cid
        assert res.rhs == rhs, (cid, kw)
        assert res.observed_valuation == obs, (cid, kw)
        assert res.passed and not res.informational, (cid, kw)
        assert res.elapsed_ms >= 0


def test_residue_spots():
    signed = run("Z-20N3", p=5)
    raw = run("Z-20N3-RAW", p=5)
    ctx = PadicContext(5, 3)
    assert residue(signed.lhs, ctx) == 15
    assert raw.lhs == F(504242741217, 137438953472)
    assert residue(raw.lhs, ctx) == 86
    assert raw.observed_valuation == 0
    assert not raw.passed and raw.informational
    mid = run("LEM-3.3", p=5)
    assert residue(mid.lhs, ctx) == 30
    assert mid.rhs == -220 and residue(F(-220), ctx) == 30


def test_delta_defaults_to_narrow_window():
    explicit = run("GZ-10N2", p=5, delta=1)
    implicit = run("GZ-10N2", p=5)
    assert implicit.lhs == explicit.lhs
    assert implicit.observed_valuation == explicit.observed_valuation


def test_exponent_growth_and_slack():
    res = run("GZ-120N2-R", p=5, r=2, delta=2)
    assert res.claimed_exponent == 6
    assert res.observed_valuation == 7
    assert res.passed
    res = run("Z-120N2", p=7)
    assert res.observed_valuation == 6 and res.claimed_exponent == 5


def test_theorems_and_knowns_hold():
    for status in ("theorem", "known"):
        for case in list_cases(status=status):
            grid = [(p, 1) for p in PRIMES_31]
            if case.uses_r:
                grid += [(p, 2) for p in (5, 7, 11)]
            for p, r in grid:
                for delta in (1, 2) if case.uses_delta else (None,):
                    res = evaluate_case(case, CheckParams(p=p, r=r, delta=delta))
                    assert res.passed, (case.id, p, r, delta, res.observed_valuation)
                    assert not res.informational, (case.id, p, r)


LEMMA_GRID = {
    # (case, p, r) -> (observed, claimed, passed, informational)
    ("LEM-2.1", 5, 1): (5, 5, True, False),
    ("LEM-2.1", 5, 2): (7, 7, True, False),
    ("LEM-2.1", 7, 1): (6, 5, True, False),
    ("LEM-2.1", 7, 2): (8, 7, True, False),
    ("LEM-2.2", 5, 1): (6, 5, True, False),
    ("LEM-2.2", 5, 2): (8, 6, True, False),
    ("LEM-2.2", 7, 1): (6, 5, True, False),
    ("LEM-2.2", 7, 2): (8, 6, True, False),
    ("LEM-2.3", 5, 1): (5, 5, True, False),
    ("LEM-2.3", 5, 2): (7, 6, True, False),
    ("LEM-2.3", 7, 1): (5, 5, True, False),
    ("LEM-2.3", 7, 2): (7, 6, True, False),
    ("LEM-3.1", 5, 1): (2, 3, False, True),
    ("LEM-3.1", 5, 2): (4, 4, True, False),
    ("LEM-3.1", 7, 1): (2, 3, False, True),
    ("LEM-3.1", 7, 2): (4, 4, True, False),
    ("LEM-3.2", 5, 1): (3, 3, True, False),
    ("LEM-3.2", 5, 2): (4, 4, True, False),
    ("LEM-3.2", 7, 1): (3, 3, True, False),
    ("LEM-3.2", 7, 2): (4, 4, True, False),
    ("LEM-3.3", 5, 1): (3, 3, True, False),
    ("LEM-3.3", 5, 2): (5, 4, True, False),
    ("LEM-3.3", 7, 1): (3, 3, True, False),
    ("LEM-3.3", 7, 2): (4, 4, True, False),
    ("LEM-3.5", 5, 1): (2, 3, False, True),
    ("LEM-3.5", 5, 2): (4, 4, True, False),
    ("LEM-3.5", 7, 1): (2, 3, False, True),
    ("LEM-3.5", 7, 2): (4, 4, True, False),
    ("LEM-4.1", 5, 1): (2, 3, False, True),
    ("LEM-4.1", 5, 2): (4, 4, True, False),
    ("LEM-4.1", 7, 1): (2, 3, False, True),
    ("LEM-4.1", 7, 2): (4, 4, True, False),
    ("LEM-4.2", 5, 1): (3, 3, True, False),
    ("LEM-4.2", 5, 2): (4, 4, True, False),
    ("LEM-4.2", 7, 1): (3, 3, True, False),
    ("LEM-4.2", 7, 2): (4, 4, True, False),
    ("LEM-4.3", 5, 1): (2, 3, False, True),
    ("LEM-4.3", 5, 2): (4, 4, True, False),
    ("LEM-4.3", 7, 1): (2, 3, False, True),
    ("LEM-4.3", 7, 2): (6, 4, True, False),
    ("LEM-4.4", 5, 1): (2, 3, False, True),
    ("LEM-4.4", 5, 2): (4, 4, True, False),
    ("LEM-4.4", 7, 1): (2, 3, False, True),
    ("LEM-4.4", 7, 2): (6, 4, True, False),
    ("LEM-5.1", 5, 1): (3, 3, True, True),
    ("LEM-5.1", 5, 2): (5, 4, True, False),
    ("LEM-5.1", 7, 1): (2, 3, False, True),
    ("LEM-5.1", 7, 2): (4, 4, True, False),
    ("LEM-5.2", 5, 1): (3, 3, True, False),
    ("LEM-5.2", 5, 2): (4, 4, True, False),
    ("LEM-5.2", 7, 1): (3, 3, True, False),
    ("LEM-5.2", 7, 2): (4, 4, True, False),
    ("LEM-5.3", 5, 1): (4, 3, True, False),
    ("LEM-5.3", 5, 2): (5, 4, True, False),
    ("LEM-5.3", 7, 1): (3, 3, True, False),
    ("LEM-5.3", 7, 2): (4, 4, True, False),
    ("LEM-5.4", 5, 1): (3, 3, True, True),
    ("LEM-5.4", 5, 2): (5, 4, True, False),
    ("LEM-5.4", 7, 1): (2, 3, False, True),
    ("LEM-5.4", 7, 2): (4, 4, True, False),
}


def test_lemma_grid():
    seen = set()
    for case in list_cases(status="lemma"):
        for p in (5, 7):
            for r in (1, 2):
                kw = {"p": p, "r": r}
                if case.uses_delta:
                    kw["delta"] = 2
                res = evaluate_case(case, CheckParams(**kw))
                key = (case.id, p, r)
                seen.add(key)
                obs, claimed, passed, informational = LEMMA_GRID[key]
                assert res.observed_valuation == obs, key
                assert res.claimed_exponent == claimed, key
                assert res.passed is passed, key
                assert res.informational is informational, key
                if informational and r < case.r_floor:
                    assert "r >= 2" in res.note, key
    assert seen == set(LEMMA_GRID)


def test_refinements_agree_with_base_statements():
    # the mod-p^4 right sides reduce to the mod-p^3 ones
    for p in PRIMES_31:
        guo = run("GUO-64", p=p)
        sun = run("SUN-64-P4", p=p)
        assert sun.lhs == guo.lhs
        assert vp(sun.rhs - guo.rhs, p) >= 3
        gl = run("GL-R", p=p)
        gl4 = run("GL-4K1-P4", p=p)
        assert vp(gl4.rhs - gl.rhs, p) >= 3


def test_exact_identity_case():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97):
        res = run("MAO-I2-IDENT", p=p)
        assert res.lhs == res.rhs, p
        assert res.observed_valuation is INFINITE
        assert res.claimed_exponent is None
        assert res.passed


def test_family_member_selection():
    res = run("FACT-INV", p=5, k=4)
    assert (res.lhs, res.rhs, res.observed_valuation) == (-5, 70, 2)
    assert res.note == "k=4"
    agg = run("FACT-INV", p=5)
    assert agg.note.startswith("worst member k=")
    assert agg.passed
    with pytest.raises(ValueError):
        run("FACT-INV", p=5, k=1)
    with pytest.raises(ValueError):
        run("FACT-INV", p=5, k=5)


def test_family_grid():
    for case in list_cases(status="fact-family"):
        for p in (5, 7, 11):
            for r in (1, 2) if case.uses_r else (1,):
                res = evaluate_case(case, CheckParams(p=p, r=r))
                assert res.passed, (case.id, p, r, res.observed_valuation)


def test_row_slices_match_direct_cells():
    for p, r in ((5, 1), (7, 1), (5, 2)):
        P = p ** r
        half = (P - 1) // 2
        for name, cell in (
                ("GUO64", lambda k: wz.eval_G("GUO64", P, k)),
                ("Z20N3", lambda k: wz.eval_G("Z20N3", P, k)),
                ("theta", lambda k: _theta_direct(p, r, k))):
            prefix = sum(cell(k) for k in range(1, half + 1))
            mid = cell(half + 1)
            tail = sum(cell(k) for k in range(half + 2, P))
            slices = _sums(name, p, r)
            assert (slices[0], slices[1], slices[2]) == (prefix, mid, tail), (p, r)
            assert slices._slices is None       # the pass is dropped after the tail


# theta(k) of LEM-4.2 as its statement writes it
THETA_STATED = ("theta(k) = -p^(3r) C(2p^r-1,p^r-1)^2 / ((2p^r-1) 4^(3p^r-3)) * "
                "(-4)^k/C(2k,k) * C(-2p^r-1,2k-2)/(k(2k-1)) * C(2p^r-2,p^r-k-1)")


def theta_stated(p, r, k):
    P = p ** r
    return (-p ** (3 * r) * F(binomial(2 * P - 1, P - 1)) ** 2
            / ((2 * P - 1) * F(4) ** (3 * P - 3))
            * F(-4) ** k / binomial(2 * k, k)
            * binomial_rat(-2 * P - 1, 2 * k - 2) / (k * (2 * k - 1))
            * binomial(2 * P - 2, P - k - 1))


def test_theta_matches_its_statement():
    assert THETA_STATED in get_case("LEM-4.2").statement
    for p, r in ((5, 1), (7, 1), (11, 1), (5, 2)):
        for k in range(1, p ** r):
            assert _theta_direct(p, r, k) == theta_stated(p, r, k), (p, r, k)


def test_column_sums_match_direct_cells():
    for p, r in ((5, 1), (7, 1), (5, 2)):
        P = p ** r
        for name, n0 in (("GZ10N2", P), ("GZ10N2-half", (P + 1) // 2)):
            direct = sum(wz.eval_G("GZ10N2", n0, k)
                         for k in range(1, (P - 1) // 2 + 1))
            assert _sums(name, p, r)[0] == direct, (p, r, name)


def lem21_terms(p, r, n):
    """The first n terms of LEM-2.1's _SUMS entry, one slice each."""
    t0, step, lo, _, poly = _SUMS["LEM-2.1"](p, r)
    return list(_ratio_slices(t0, step, lo, range(n), poly))


def test_shifted_series_matches_direct_cells():
    for p in (5, 7):
        K = (p - 1) // 2
        assert lem21_terms(p, 1, p) == [wz.eval_F("GZ10N2", n, K) for n in range(p)]
    assert lem21_terms(5, 2, 7) == [wz.eval_F("GZ10N2", n, 12) for n in range(7)]


def test_point_guards():
    with pytest.raises(PrimeBelowFloor):
        run("GUO-64", p=3)
    with pytest.raises(ValueError):
        CheckParams(p=4)
    with pytest.raises(ValueError):
        CheckParams(p=9)
    with pytest.raises(ValueError):
        CheckParams(p=5, r=0)
    with pytest.raises(ValueError):
        CheckParams(p=5, delta=3)
    with pytest.raises(ValueError):
        run("VH-4K1", p=5, r=2)          # statement has no exponent r
    with pytest.raises(ValueError):
        run("GUO-64", p=5, delta=1)      # no truncation variants
    with pytest.raises(ValueError):
        run("GUO-64", p=5, k=1)          # not a family
    with pytest.raises(ValueError):
        run("WOLST-BIN", p=5, upper_override=3)
    with pytest.raises(ValueError):
        run("GUO-64", p=5, backend="fast")


def test_backend_guards():
    with pytest.raises(BackendIneligible):
        run("FACT-INV", p=5, backend="residue")
    with pytest.raises(BackendIneligible):
        run("MAO-I2-IDENT", p=5, backend="residue")


def test_p3_override():
    res = run("GZ-10N2", p=3, delta=2, include_p3=True)
    assert res.lhs == F(-9, 8)
    assert res.observed_valuation == 4
    assert res.informational and not res.passed
    assert "informational" in res.note


def test_truncated_sum_override():
    full = run("GZ-10N2", p=5, delta=2)
    cut = run("GZ-10N2", p=5, delta=2, upper_override=1)
    assert cut.lhs == F(-9, 8)
    assert cut.lhs != full.lhs
    assert not cut.passed


def test_residue_backend_matches_exact():
    for case in list_cases():
        if not case.p_integral:
            continue
        for p in (5, 7):
            kw = {"p": p}
            if case.uses_delta:
                kw["delta"] = 2
            params = CheckParams(**kw)
            if case.claimed(p, 1) is None:
                continue
            exact = evaluate_case(case, params)
            both = evaluate_case(case, params, "both")
            res = evaluate_case(case, params, "residue")
            assert both.lhs == exact.lhs
            assert res.passed is exact.passed, (case.id, p)
            ctx = PadicContext(p, exact.claimed_exponent)
            if not isinstance(exact.observed_valuation, int) or \
                    exact.observed_valuation >= exact.claimed_exponent:
                assert res.observed_valuation == exact.claimed_exponent
            else:
                assert res.observed_valuation == exact.observed_valuation
            assert res.lhs == residue(exact.lhs, ctx), (case.id, p)
            assert cross_validate(case, params, ctx), (case.id, p)
