"""The family kernel: each member's binomial description read as a p-adic
(valuation, unit) pair from one factorial table, against the same
description evaluated factor by factor, the scorer that picks the worst
member from those pairs, and the Lucas check derived from the description."""
import functools
import math
from collections import Counter
from fractions import Fraction

import pytest

from supercong import congruences
from supercong.combinat import Factorials, binomial, lucas_product
from supercong.congruences import (BackendDisagreement, CheckParams, _family_items, _score,
                                   evaluate_case, get_case, list_cases)
from supercong.exactnum import INFINITE, residue, vp
from supercong.harness import SweepConfig, _ser_record, run_sweep

from helpers import lucas_checked, vp_unit

FAMILIES = list_cases(status="fact-family")
# (7, 2) and (11, 2) step BIN-3.11 by q = p^(r-1) > 1 along n and m
POINTS = [(5, 1), (7, 2), (11, 2)]


def per_factor(desc, p, r, k, comb=binomial):
    """The description's value with one binomial call per factor."""
    c, e, *factors = desc(p, r, k)
    value = Fraction(c) * Fraction(2) ** e
    for n, m, j in factors:
        assert j in (1, -1)
        value = value / comb(n, m) if j < 0 else value * comb(n, m)
    return value


def members(case, p, r, M=None):
    """The family's (k, lhs, rhs) pairs at (p, r), from a table of units mod
    p^M (claimed + 2 by default, as the exact backend takes them), and M."""
    M = M or case.claimed(p, r) + 2
    items, _ = _family_items(case, CheckParams(p=p, r=r), M)
    return [(k, reduce(lhs, p, M), reduce(rhs, p, M)) for k, lhs, rhs in items], M


def reduce(pair, p, M):
    """A table pair with its unit mod p^M: a kept table may be finer."""
    v, u = pair
    return v, u % p ** M


def test_table_reaches_every_binomial():
    # every C(n, m) and its inverse, n <= 40, at three precisions; p = 3 and 5
    # divide many of them, to several powers
    for p in (3, 5, 7):
        for M in (1, 2, 4):
            table = Factorials(p, M, 40)
            assert table.V[:8] == [vp(math.factorial(x), p) for x in range(8)]
            for n in range(41):
                for m in range(n + 1):
                    want = vp_unit(math.comb(n, m), p, M)
                    assert table.pair(1, 0, (n, m, 1)) == want, (p, M, n, m)
                    assert table.pair(1, 0, (n, m, -1)) == \
                        vp_unit(Fraction(1, math.comb(n, m)), p, M), (p, M, n, m)
                    assert table.pair(1, 0, (n, m, 2)) == \
                        vp_unit(math.comb(n, m) ** 2, p, M), (p, M, n, m)
            assert table.pair(0, 0, (40, 3, 1)) == (INFINITE, 0)
            assert table.pair(-6 * p ** 2, -3, (12, 5, 1)) == \
                vp_unit(Fraction(-6 * p ** 2 * math.comb(12, 5), 8), p, M)
    assert Factorials(3, 39, 4).U[4] == 8 and Factorials(47, 11, 4).U[4] == 24
    with pytest.raises(ValueError, match=r"units mod 3\^40 do not fit in 64 bits"):
        Factorials(3, 40, 4)


@pytest.mark.parametrize("p, r", POINTS)
def test_kernel_matches_binomial_per_factor(p, r):
    for case in FAMILIES:
        items, M = members(case, p, r)
        assert items, (case.id, p, r)
        for side, desc in ((1, case.member_lhs), (2, case.member_rhs)):
            assert [item[side] for item in items] == \
                [vp_unit(per_factor(desc, p, r, k), p, M) for k, *_ in items], (case.id, p, r)


def layout(desc, p, r, k):
    """e and the factors (n_i, m_i, j_i) of a description at member k, flattened."""
    c, e, *factors = desc(p, r, k)
    assert all(len(f) == 3 and f[2] in (1, -1) for f in factors)
    return [e, *(x for f in factors for x in f)]


@pytest.mark.parametrize("p, r", POINTS + [(13, 2)])
def test_family_descriptions_are_linear(p, r):
    """_family_items sizes the factorial table, and checks 0 <= m <= n, at
    the first and last members only, so each description keeps one factor
    layout, and e and every binomial argument and power are linear in k:
    equal to their interpolation from the first two members."""
    for case in FAMILIES:
        keys = list(case.members(p, r))
        for desc in (case.member_lhs, case.member_rhs):
            at0 = layout(desc, p, r, keys[0])
            step = layout(desc, p, r, keys[0] + 1)
            for k in keys:
                assert layout(desc, p, r, k) == [a + (k - keys[0]) * (b - a) for a, b
                                                 in zip(at0, step)], (case.id, p, r, k)


def test_reflected_upper_index():
    for p, r in POINTS:
        P = p ** r
        for cid, a in (("BIN-3.10", 2), ("BIN-5.6", 4)):
            items, M = members(get_case(cid), p, r)
            assert [lhs for _, lhs, _ in items] == \
                [vp_unit(binomial(-a * P - 1, 2 * P - 2 * k - 2), p, M)
                 for k, *_ in items], (cid, p, r)


def test_single_member_matches_full_list():
    for case in FAMILIES:
        full, M = members(case, 7, 2)
        for item in full:
            one, _ = _family_items(case, CheckParams(p=7, r=2, k=item[0]), M)
            assert [(k, reduce(lhs, 7, M), reduce(rhs, 7, M)) for k, lhs, rhs in one] \
                == [item], (case.id, item[0])


def test_out_of_range_binomial_is_refused():
    # a negative list index would read the table from its top
    case = get_case("BIN-3.9")
    bad = case._replace(
        member_lhs=lambda p, r, k: (1, 0, (7 - k, k, 1)))
    with pytest.raises(ValueError, match=r"BIN-3\.9: member k=4 .* C\(3, 4\) outside"):
        evaluate_case(bad, CheckParams(p=11), "exact")


# each lhs with a Lucas reduction, with the arguments its statement writes
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
    for p, r in POINTS:
        assert sorted(STATEMENT_LHS) == sorted(c.id for c in FAMILIES if lucas_checked(c, p, r))
        for cid, lhs in STATEMENT_LHS.items():
            case = get_case(cid)
            for k in case.members(p, r):
                assert lucas_product(p, *case.member_lhs(p, r, k)) == lhs(p, p ** r, k) % p, \
                    (cid, p, r, k)


def wrong_kernel_at(monkeypatch, x, table="U", by=2):
    """Every factorial table built from now on has one wrong entry: the
    unit of x! times `by` (with its inverse to match), or with table="V"
    the valuation of x! plus `by`."""
    build = Factorials.__init__

    def wrong(self, p, M, n):
        build(self, p, M, n)
        if table == "U":
            self.U[x] = self.U[x] * by % self.mod
            self.Ui[x] = pow(self.U[x], -1, self.mod)
        else:
            self.V[x] += by

    monkeypatch.setattr(Factorials, "__init__", wrong)
    monkeypatch.setattr(congruences, "_table", None)      # drop the kept table


def test_wrong_kernel_raises_disagreement(monkeypatch):
    # BIN-3.9 at p = 11 reads C(21, k), k = 1 .. 4, as U[21] Ui[k] Ui[21 - k]:
    # a wrong unit of 3! is read by member k = 3 alone
    params = CheckParams(p=11)
    assert evaluate_case("BIN-3.9", params, "both").passed
    wrong_kernel_at(monkeypatch, 3)
    with pytest.raises(BackendDisagreement, match=r"BIN-3\.9.*p=11, r=1.*member k=3.*"
                                                  r"factorial table, \d+ by Lucas"):
        evaluate_case("BIN-3.9", params, "both")


def test_wrong_valuation_of_reported_member_is_a_disagreement(monkeypatch):
    # FACT-INV has no Lucas check.  At (7, 2) a vp(48!) 5 too large lowers
    # the valuation of member k = 48's right side, C(96, 48), by 10, so the
    # table reports k = 48 at -8, which its exact member refutes on "both"
    params = CheckParams(p=7, r=2)
    assert evaluate_case("FACT-INV", params, "both").passed
    wrong_kernel_at(monkeypatch, 48, table="V", by=5)
    with pytest.raises(BackendDisagreement,
                       match=r"^FACT-INV: factorial table and exact values disagree at "
                             r"CheckParams\(p=7, r=2.*member k=48: valuation -8 from the "
                             r"table, 4 from the exact member"):
        evaluate_case("FACT-INV", params, "both")
    assert evaluate_case("FACT-INV", params, "exact").observed_valuation == -8


def test_wrong_kernel_is_a_sweep_error(monkeypatch):
    wrong_kernel_at(monkeypatch, 3)
    report = run_sweep(SweepConfig(primes=(11,), r_max=1, glob="BIN-3.9", backend="both"))
    assert report.results == []
    assert [e["case_id"] for e in report.errors] == ["BIN-3.9"]
    assert report.errors[0]["error"].startswith("BackendDisagreement: BIN-3.9")
    assert "member k=3" in report.errors[0]["error"]
    assert report.failed


def test_sweep_extends_a_table_outgrown_only_in_reach(monkeypatch):
    """At each (p, r) of the fact-family sweep, BIN-3.10 builds a table to
    4 p^r at M = 3, BIN-5.6 extends it to 6 p^r, and FACT-2LL, which needs
    M = r + 3, builds a new one: 2 builds and 1 extension per (p, r), where
    every table was once built afresh (3 builds).  The records do not
    change: each extended table equals a fresh one (test_properties)."""
    calls, extend = Counter(), Factorials.extend

    def counted(self, n):
        # a build extends its one-entry table (0!) to the reach asked for
        calls["extend" if self.n else "build"] += 1
        extend(self, n)
    monkeypatch.setattr(Factorials, "extend", counted)
    monkeypatch.setattr(congruences, "_table", None)
    report = run_sweep(SweepConfig(status="fact-family", pmax=41))
    assert report.errors == [] and len(report.results) == 198
    assert len({(res.params.p, res.params.r) for res in report.results}) == 22
    assert calls == {"build": 44, "extend": 22}


def test_one_point_builds_a_table_to_its_own_reach(monkeypatch):
    # a single point, with no table kept, builds one table that reaches its
    # largest binomial and no further
    p, r = 13, 2
    for case in FAMILIES:
        monkeypatch.setattr(congruences, "_table", None)
        evaluate_case(case.id, CheckParams(p=p, r=r), "both")
        reach = max(n for k in case.members(p, r)
                    for desc in (case.member_lhs, case.member_rhs)
                    for n, _, _ in desc(p, r, k)[2:])
        assert congruences._table.n == reach, case.id


def reference_items(case, params, comb=binomial):
    """(k, lhs, rhs) of every member a point reads, each side a Fraction
    from per_factor."""
    p, r = params.p, params.r
    keys = list(case.members(p, r)) if params.k is None else [params.k]
    return [(k, per_factor(case.member_lhs, p, r, k, comb),
             per_factor(case.member_rhs, p, r, k, comb)) for k in keys]


def reference_score(case, params, backend, items=None):
    """(lhs, rhs, observed_valuation, passed, note) with every member a
    Fraction from per_factor (or the given reference_items), scored by
    exactnum.vp: the first member of least valuation."""
    p, r = params.p, params.r
    items = items or reference_items(case, params)
    keys = [k for k, _, _ in items]
    m = case.claimed(p, r)
    if backend == "residue":
        items = [(k, residue(lhs, p, m), residue(rhs, p, m)) for k, lhs, rhs in items]
        scored = [(min(vp((lhs - rhs) % p ** m, p), m), k, lhs, rhs) for k, lhs, rhs in items]
    else:
        scored = [(vp(lhs - rhs, p), k, lhs, rhs) for k, lhs, rhs in items]
    obs, k, lhs, rhs = min(scored, key=lambda s: s[0])     # the first of least
    note = f"k={k}" if params.k is not None else f"worst member k={k} of {len(keys)}"
    return lhs, rhs, obs, obs >= m, note


@pytest.mark.parametrize("backend", ["exact", "both", "residue"])
@pytest.mark.parametrize("point", POINTS + [(13, 2), "k"])
def test_integer_kernel_scores_like_fraction_reference(point, backend):
    """The table's (v, u) members, scored in small integers, give the
    results of Fraction members scored by vp.  "k" is the middle member of
    each family at (7, 2), selected as --k selects it."""
    for case in FAMILIES:
        if point == "k":
            rng = case.members(7, 2)
            params = CheckParams(p=7, r=2, k=rng[len(rng) // 2])
        else:
            params = CheckParams(p=point[0], r=point[1])
        res = evaluate_case(case, params, backend)
        got = (res.lhs, res.rhs, res.observed_valuation, res.passed, res.note)
        assert got == reference_score(case, params, backend), (case.id, params, backend)


@pytest.mark.parametrize("cid", ["FACT-INV", "DAO-HB"])
def test_families_dividing_by_binomials_run_on_residue(cid):
    """FACT-INV and DAO-HB divide by binomials, yet no member side has p in
    its denominator, so the residue backend takes them: on the default grid
    (primes 5-47, r <= 2) each residue record passes as the exact one does,
    with the valuation min(exact, claimed)."""
    exact, res = (run_sweep(SweepConfig(glob=cid, backend=b)) for b in ("exact", "residue"))
    assert exact.errors == res.errors == [] and len(res.results) == 26
    for want, got in zip(exact.results, res.results):
        assert (got.params, got.passed) == (want.params, want.passed)
        assert got.observed_valuation == min(want.observed_valuation, want.claimed_exponent)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_every_family_at_r3_scores_like_fraction_reference(p):
    """At r = 3 every family on every backend gives the reference's record:
    BIN-3.11 steps its binomials by q = p^2, and FACT-2LL claims p^4."""
    params = CheckParams(p=p, r=3)
    comb = functools.lru_cache(maxsize=None)(binomial)   # C(2k, k) serves four families
    for case in FAMILIES:
        items = reference_items(case, params, comb)
        for backend in ("exact", "both", "residue"):
            res = evaluate_case(case, params, backend)
            got = (res.lhs, res.rhs, res.observed_valuation, res.passed, res.note)
            assert got == reference_score(case, params, backend, items), (case.id, p, backend)


def test_undetermined_members_are_resolved_exactly(monkeypatch):
    """BIN-3.11 at r = 1 is C(2j-2, j-1) on both sides: every member's units
    agree mod p^M, and each is resolved exactly, to INFINITE.  Every other
    point's members are determined by the table alone."""
    resolved = []
    exact_valuation = congruences._exact_valuation
    monkeypatch.setattr(congruences, "_exact_valuation",
                        lambda *args: resolved.append(args) or exact_valuation(*args))
    for backend in ("exact", "both"):
        resolved.clear()
        res = evaluate_case("BIN-3.11", CheckParams(p=13), backend)
        assert res.observed_valuation == INFINITE and res.passed
        assert res.note == "worst member k=1 of 6"
        assert res.lhs == res.rhs == 1
        # six members, and on "both" the reported one checked once more
        assert len(resolved) == 6 + (backend == "both"), backend
    # with units mod p^(claimed + 2) no other family point has a member to resolve
    for p, r in POINTS + [(13, 2)]:
        for case in FAMILIES:
            resolved.clear()
            evaluate_case(case, CheckParams(p=p, r=r), "exact")
            assert len(resolved) == (p - 1) // 2 if (case.id, r) == ("BIN-3.11", 1) \
                else not resolved, (case.id, p, r)


def test_undetermined_member_is_resolved_only_when_it_could_be_reported():
    """Pairs (v, u) mod 5^2: member 1 is determined at 1; member 2 is
    undetermined with bound 0 + 2 = 2, above 1, so it is never built;
    member 3 is undetermined with bound -2 + 2 = 0, below 1, so it is built,
    and its exact valuation, 0, makes it the reported member."""
    built = []

    def exact(k):
        built.append(k)
        return (2, 1, 1, 1) if k == 3 else (1, 1, 1, 1)
    items = [(1, (1, 3), (1, 8)), (2, (0, 7), (0, 7)), (3, (-2, 4), (-2, 4))]
    assert _score(items, 5, 2, exact) == (3, (-2, 4), (-2, 4), 0)
    assert built == [3]
    # with a member of valuation 0 before it, member 3 can not be first
    built.clear()
    items.insert(0, (0, (0, 1), (0, 2)))
    assert _score(items, 5, 2, exact) == (0, (0, 1), (0, 2), 0)
    assert built == []


def test_residue_scoring_reads_valuations_in_z_mod_p_to_the_m(monkeypatch):
    """Without exact, pairs (v, u) mod 5^2 are scored in Z/5^2, M = 2: an
    undetermined member reads as M, a determined valuation above M is
    capped at M, the first member of least valuation is reported, and no
    members give M.  Each pair scores as min(vp((L - R) mod p^M), M) for
    its sides' residues L = p^v u mod p^M."""
    undetermined, above, equal_v_above = ((0, 7), (0, 7)), ((3, 2), (5, 1)), ((2, 1), (2, 6))
    low, low_again = ((0, 1), (0, 6)), ((1, 2), (1, 3))
    assert _score([(1, *undetermined)], 5, 2) == (1, *undetermined, 2)
    assert _score([(2, *above), (3, *equal_v_above)], 5, 2) == (2, *above, 2)
    items = [(1, *undetermined), (2, *above), (4, *low), (5, *low_again)]
    assert _score(items, 5, 2) == (4, *low, 1)
    assert _score(items[::-1], 5, 2) == (5, *low_again, 1)
    assert _score([], 5, 2) == (None, None, None, 2)
    sides = [(v, u) for v in range(4) for u in range(1, 25) if u % 5] + [(INFINITE, 0)]
    for lhs in sides:
        for rhs in sides:
            L, R = (0 if v >= 2 else u * 5 ** v % 25 for v, u in (lhs, rhs))
            assert _score([(0, lhs, rhs)], 5, 2)[3] == min(vp((L - R) % 25, 5), 2)

    def refused(*args):
        raise AssertionError("a residue point built a member exact")
    # BIN-3.11 at r = 1 has every member undetermined; on "residue" none is
    # built exact, and each reads as the claimed exponent
    monkeypatch.setattr(congruences, "_exact_valuation", refused)
    monkeypatch.setattr(congruences, "binomial_product", refused)
    res = evaluate_case("BIN-3.11", CheckParams(p=13), "residue")
    assert res.observed_valuation == res.claimed_exponent and res.passed
    assert res.note == "worst member k=1 of 6" and res.lhs == res.rhs == 1


def test_integral_members_are_plain_ints():
    """Every member is a pair of plain ints (v, u), u a unit below p^M, with
    v >= 0 on both sides: FACT-INV and DAO-HB divide by binomials, but by
    Kummer vp(l C(2l,l)) <= r - 1 and vp(C(2k,k)) <= r.  A side of 0 reads
    (INFINITE, 0)."""
    for case in FAMILIES:
        items, M = members(case, 11, 2)
        for k, *sides in items:
            for v, u in sides:
                if v == INFINITE:
                    assert u == 0 and case.id == "FACT-2KK", (case.id, k)
                    continue
                assert type(v) is int and type(u) is int and 0 < u < 11 ** M, (case.id, k)
                assert u % 11 and v >= 0, (case.id, k)


def test_one_fraction_per_reported_value(monkeypatch):
    """A family point builds Fractions only for the lhs and rhs it reports,
    and binomial_product only for the reported member's two sides."""
    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    products = []
    product = congruences.binomial_product
    monkeypatch.setattr(congruences, "Fraction", Counted)
    monkeypatch.setattr(congruences, "binomial_product",
                        lambda *desc: products.append(desc) or product(*desc))
    for case in FAMILIES:
        for backend in ("exact", "both", "residue"):
            built.clear(), products.clear()
            res = evaluate_case(case, CheckParams(p=11, r=2), backend)
            if backend == "residue":
                assert built == products == [], case.id
                continue
            assert len(built) == 2, (case.id, backend, built)
            k = int(res.note.split("k=")[1].split()[0])
            assert products == [case.member_lhs(11, 2, k), case.member_rhs(11, 2, k)]
            assert isinstance(res.lhs, Fraction) and isinstance(res.rhs, Fraction)


@pytest.mark.parametrize("backend", ["exact", "both", "residue"])
def test_family_records_keep_their_value_strings(backend):
    """Exact values serialise as "num/den" and residues as ints; an int in
    place of a Fraction would change the report digest."""
    for case in FAMILIES:
        rec = _ser_record(evaluate_case(case, CheckParams(p=7, r=2), backend))
        for side in ("lhs", "rhs"):
            if backend == "residue":
                assert type(rec[side]) is int, (case.id, side)
            else:
                num, den = rec[side].split("/")
                assert int(den) > 0 and str(int(num)) == num, (case.id, side)
