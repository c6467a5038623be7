from fractions import Fraction as F

import pytest

from supercong import combinat, congruences, wz
from supercong.combinat import Factorials, binomial, binomial_product
from supercong.congruences import (_SUMS, BackendIneligible, CheckParams,
                                   PrimeBelowFloor, UnknownCase, _derive, _open, _Pass,
                                   _theta, evaluate_case, get_case, list_cases)
from supercong.exactnum import INFINITE, residue, vp

from helpers import binomial_rat, has_residue_path

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
    assert residue(signed.lhs, 5, 3) == 15
    assert raw.lhs == F(504242741217, 137438953472)
    assert residue(raw.lhs, 5, 3) == 86
    assert raw.observed_valuation == 0
    assert not raw.passed and raw.informational
    mid = run("LEM-3.3", p=5)
    assert residue(mid.lhs, 5, 3) == 30
    assert mid.rhs == -220 and residue(F(-220), 5, 3) == 30


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
        assert res.observed_valuation == INFINITE
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
                ("theta", lambda k: theta(p, r, k))):
            prefix = sum(cell(k) for k in range(1, half + 1))
            mid = cell(half + 1)
            tail = sum(cell(k) for k in range(half + 2, P))
            run = _open(name, (p, r))
            slices = run.read(1, half), run.read(half + 1, half + 1), run.read(half + 2, P - 1)
            assert slices == (prefix, mid, tail), (p, r)


def test_tail_point_divides_one_slice(monkeypatch):
    # reading a row's tail alone steps over the terms to its left and sums
    # none of them: one division of the tail, one of the seed where the
    # tail starts, and no Fraction addition
    want = sum(wz.eval_G("GUO64", 49, k) for k in range(26, 49))
    divisions, division = [], congruences._over_power_of_two

    def refuse(*args):
        raise AssertionError("Fraction addition in a row read")
    monkeypatch.setattr(congruences, "_over_power_of_two",
                        lambda x, b: divisions.append(b) or division(x, b))
    monkeypatch.setattr(F, "__add__", refuse)
    assert _open("GUO64", (7, 2)).read(26, 48) == want
    assert len(divisions) == 2


def test_tail_step_over_builds_no_sum(monkeypatch):
    # the terms before a tail read alone are stepped over with an empty
    # polynomial, so every T of their tree is 0; the tail, and the seed the
    # pass holds after it, equal a pass's that read every slice before it
    nodes, split = [], congruences._split

    def recorded(ratios, poly, first, i, j):
        a, b, t = split(ratios, poly, first, i, j)
        nodes.append((first, poly, t))
        return a, b, t
    monkeypatch.setattr(congruences, "_split", recorded)
    run = _open("GUO64", (7, 2))
    tail = run.read(26, 48)
    assert tail == sum(wz.eval_G("GUO64", 49, k) for k in range(26, 49))
    over = [(poly, t) for first, poly, t in nodes if first == run.lo]
    assert len(over) == 2 * (26 - run.lo) - 1 and set(over) == {((), 0)}
    whole = _open("GUO64", (7, 2))
    assert [whole.read(*s) for s in ((1, 24), (25, 25), (26, 48))][-1] == tail
    assert (whole.k, F(whole.s, whole.d)) == (run.k, F(run.s, run.d))


# theta(k) of LEM-4.2 as its statement writes it
THETA_STATED = ("theta(k) = -p^(3r) C(2p^r-1,p^r-1)^2 / ((2p^r-1) 4^(3p^r-3)) * "
                "(-4)^k/C(2k,k) * C(-2p^r-1,2k-2)/(k(2k-1)) * C(2p^r-2,p^r-k-1)")


def theta(p, r, k):
    """theta(k) from its description, the one the theta row sums."""
    return F(*binomial_product(*_theta(p ** r, k)))


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
            assert theta(p, r, k) == theta_stated(p, r, k), (p, r, k)


def test_column_sums_match_direct_cells():
    for p, r in ((5, 1), (7, 1), (5, 2)):
        P = p ** r
        for name, n0 in (("GZ10N2", P), ("GZ10N2-half", (P + 1) // 2)):
            direct = sum(wz.eval_G("GZ10N2", n0, k)
                         for k in range(1, (P - 1) // 2 + 1))
            assert _open(name, (p, r)).read(1, (P - 1) // 2) == direct, (p, r, name)


def lem21_terms(p, r, n):
    """The first n terms of LEM-2.1's _SUMS entry, read one range each."""
    desc, poly, lo = _SUMS["LEM-2.1"](p, r)
    seed, step = _derive("LEM-2.1", desc, poly, lo)
    run = _Pass(F(*seed), step, lo, poly)
    return [run.read(k, k) for k in range(lo, lo + n)]


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
    with pytest.raises(ValueError, match="^r must be >= 1, got 0$"):
        CheckParams(p=5)._replace(r=0)      # _replace validates as construction does
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
    # a family is refused at the first member side with p in its denominator,
    # as a series is at its first such term; FACT-INV's sides have none
    assert run("FACT-INV", p=5, backend="residue").passed
    over_k = get_case("FACT-INV")._replace(member_lhs=lambda p, r, k: (1, 0, (k, 1, -1)))
    with pytest.raises(BackendIneligible, match=r"^FACT-INV: the left side of member k=28 "
                       r"has p = 7 in its denominator; use the exact backend$"):
        evaluate_case(over_k, CheckParams(p=7, r=2), "residue")
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
        if not has_residue_path(case):
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
            if not isinstance(exact.observed_valuation, int) or \
                    exact.observed_valuation >= exact.claimed_exponent:
                assert res.observed_valuation == exact.claimed_exponent
            else:
                assert res.observed_valuation == exact.observed_valuation
            assert res.lhs == residue(exact.lhs, p, exact.claimed_exponent), (case.id, p)


def test_binomial_scalars_read_the_table_on_residue(monkeypatch, fresh_kernels):
    """On residue a binomial scalar's left side is its description's (v, u)
    pair from the factorial table, written p^v u mod p^m: no exact binomial
    is built, and it equals the exact value reduced, also when p divides
    it.  A description with a binomial outside 0 <= m <= n is refused by
    the table's reach check, not read.  BIN-3.5's and BIN-3.7's right sides
    are still the exact h1 sum, reduced: they step h1's pass to their caps."""
    calls = []

    def counted(n, k):
        calls.append((n, k))
        return binomial(n, k)
    congruences._spec_step("h1")            # derive h1's step, whose seed reads C(1, 1), first
    monkeypatch.setattr(combinat, "binomial", counted)
    points = [("WOLST-BIN", 7, 1), ("BIN-3.5", 7, 2), ("BIN-3.7", 7, 2)]
    points += [(cid, p, r) for cid in ("BIN-3.4", "BIN-3.6") for p, r in ((7, 2), (11, 2), (5, 3))]
    for cid, p, r in points:
        case, params = get_case(cid), CheckParams(p=p, r=r)
        res = evaluate_case(case, params, "residue")
        assert calls == [], (cid, p, r)
        m = case.claimed(p, r)
        assert res.lhs == residue(case.lhs_scalar(p, r), p, m), (cid, p, r)
        assert res.rhs == residue(case.rhs(p, r), p, m), (cid, p, r)
        assert res.passed is evaluate_case(case, params).passed, (cid, p, r)
        calls.clear()
    # a stand-in whose left side 3 C(P, 1) = 3P has v = r: 0 when v >= m = 2
    stand_in = get_case("BIN-3.6")._replace(member_lhs=lambda p, r, _: (3, 0, (p ** r, 1, 1)))
    for r, want in ((1, 21), (2, 0)):
        assert evaluate_case(stand_in, CheckParams(p=7, r=r), "residue").lhs == want, r
    for cid, cap in (("BIN-3.5", 48), ("BIN-3.7", 3)):
        fresh_kernels()
        evaluate_case(get_case(cid), CheckParams(p=7, r=2), "residue")
        assert list(congruences._running) == [("h1", ())]
        assert congruences._running["h1", ()].k == cap + 1, cid

    def forbidden(*args):
        raise AssertionError("pair() read a binomial outside 0 <= m <= n")
    monkeypatch.setattr(Factorials, "pair", forbidden)
    for n, k in ((14, 15), (13, -1)):
        stand_in = get_case("BIN-3.6")._replace(
            member_lhs=lambda p, r, _, n=n, k=k: (1, 0, (n, k, 1)))
        with pytest.raises(ValueError, match=rf"^BIN-3\.6: its left side at p=7, r=2 has a "
                                             rf"binomial C\({n}, {k}\) outside 0 <= m <= n$"):
            evaluate_case(stand_in, CheckParams(p=7, r=2), "residue")
