"""Algebraic laws of the arithmetic primitives, on draws from hypothesis: vp
is additive, residue is a ring homomorphism on p-integral rationals, a
binomial with a negative upper index follows the reflection rule, the
binary-split kernel's range and prefix sums equal termwise sums, the exact
division that ends each sum equals Fraction's, the running exact pass of a
spec or of LEM-2.1's column equals a termwise sum at any sequence of caps
and is the one pass held, a certificate row read by ranges in any order
equals its terms' sums, the binomial-product evaluator and its Lucas
reader agree with per-factor arithmetic, and the factorial table's
(valuation, unit) pairs agree with math.comb and with the evaluator.
Skipped when hypothesis is not installed."""
import math
from fractions import Fraction
from unittest import mock

import pytest

from supercong import congruences, wz
from supercong.combinat import Factorials, binomial, binomial_product, lucas_product
from supercong.congruences import (_SUMS, CATALOG, SERIES, CheckParams, _family_items,
                                   _over_power_of_two, _Pass, list_cases)
from supercong.exactnum import INFINITE, residue, vp

from helpers import binomial_rat, vp_unit

pytest.importorskip("hypothesis")
from hypothesis import (HealthCheck, assume, example, given, settings,  # noqa: E402
                        strategies as st)

# derandomized, with few examples: the three laws add well under 1 s
small = settings(max_examples=30, deadline=None, database=None, derandomize=True)
primes = st.sampled_from((3, 5, 7, 11, 13, 47))
nonzero = st.integers(-10 ** 6, 10 ** 6).filter(bool)


def rational(p, e, a, b):
    """a p^e / b, so vp can be any integer and not only 0."""
    return Fraction(a, b) * Fraction(p) ** e


@small
@given(p=primes, e1=st.integers(-6, 6), e2=st.integers(-6, 6),
       a1=nonzero, b1=nonzero, a2=nonzero, b2=nonzero)
def test_vp_is_additive(p, e1, e2, a1, b1, a2, b2):
    x, y = rational(p, e1, a1, b1), rational(p, e2, a2, b2)
    assert vp(x * y, p) == vp(x, p) + vp(y, p)
    assert vp(x / y, p) == vp(x, p) - vp(y, p)
    assert vp(0 * x, p) == INFINITE


@small
@given(p=primes, m=st.integers(1, 6), e1=st.integers(0, 4), e2=st.integers(0, 4),
       a1=st.integers(-10 ** 6, 10 ** 6), b1=nonzero,
       a2=st.integers(-10 ** 6, 10 ** 6), b2=nonzero)
def test_residue_is_a_ring_homomorphism(p, m, e1, e2, a1, b1, a2, b2):
    assume(b1 % p and b2 % p)           # p-integral: no p in a denominator
    mod = p ** m
    x, y = rational(p, e1, a1, b1), rational(p, e2, a2, b2)
    rx, ry = residue(x, p, m), residue(y, p, m)
    assert 0 <= rx < mod
    assert residue(x + y, p, m) == (rx + ry) % mod
    assert residue(x - y, p, m) == (rx - ry) % mod
    assert residue(x * y, p, m) == rx * ry % mod
    assert residue(Fraction(1), p, m) == 1
    assert (residue(x, p, m) == 0) == (vp(x, p) >= m)


@small
@given(n=st.integers(1, 300), k=st.integers(0, 60))
def test_negative_upper_binomial_reflects(n, k):
    # C(-n, k) = (-1)^k C(n+k-1, k), against the falling-factorial definition
    # and Pascal's rule C(a, k) = C(a-1, k) + C(a-1, k-1) at a = -n
    value = binomial(-n, k)
    assert value == (-1) ** k * binomial(n + k - 1, k)
    assert value == binomial_rat(-n, k)
    assert value == binomial(-n - 1, k) + binomial(-n - 1, k - 1)


@st.composite
def ratio_sum_inputs(draw):
    """(t0, lo, steps, ends, poly): ends from increments in [-2, 3], so that
    empty ranges (e_i <= e_(i-1)) and single-term ranges are common, and one
    step pair (a, b), b != 0, for each k below the last end."""
    lo = draw(st.integers(-5, 5))
    ends, end = [], lo - 1
    for inc in draw(st.lists(st.integers(-2, 3), max_size=6)):
        end += inc
        ends.append(end)
    n = max(max(ends, default=lo) - lo, 0)
    steps = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40).filter(bool)),
                          min_size=n, max_size=n))
    t0 = Fraction(draw(st.integers(-99, 99)), draw(st.integers(1, 99)))
    poly = tuple(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3)))
    return t0, lo, steps, ends, poly


odd = st.integers(-10 ** 30, 10 ** 30).map(lambda b: 2 * b + 1)


@small
@given(st.integers(-10 ** 60, 10 ** 60), odd, st.integers(0, 200))
@example(0, 1, 0)
@example(-1, 1, 0)
@example(10 ** 50 + 1, 3, 0)            # B odd
@example(-(10 ** 50) - 1, 1, 97)        # B a power of two
@example(3 << 40, 5, 20)                # n's 2s cancel part of 2^e
def test_exact_division_by_odd_part(n, b_odd, e):
    with mock.patch.object(congruences, "_Lowest", wraps=congruences._Lowest) as lowest:
        got = _over_power_of_two(n * b_odd, b_odd << e)
    assert lowest.call_count == 1           # the 2-adic quotient, not the fallback
    want = Fraction(n, 1 << e)
    # in lowest terms, as Fraction's own normalisation gives
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got) is Fraction and hash(got) == hash(want)


@small
@given(st.integers(-10 ** 60, 10 ** 60), odd, st.integers(0, 200))
def test_exact_division_falls_back(x, b_odd, e):
    assume(x % b_odd)
    with mock.patch.object(congruences, "_Lowest", wraps=congruences._Lowest) as lowest:
        got = _over_power_of_two(x, b_odd << e)
    assert lowest.call_count == 0
    assert got == Fraction(x, b_odd << e) and type(got) is Fraction


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(ratio_sum_inputs())
def test_ratio_sums_equal_termwise_sums(inputs):
    t0, lo, steps, ends, poly = inputs
    calls = []

    def step(k):
        calls.append(k)
        return steps[k - lo]

    # t_k = t0 poly(k) u_k, u_lo = 1, u_(k+1) = u_k a_k / b_k, one Fraction a term
    terms, u = {}, Fraction(1)
    for k in range(lo, lo + len(steps) + 1):
        terms[k] = t0 * sum(c * k ** i for i, c in enumerate(poly)) * u
        if k - lo < len(steps):
            u = u * steps[k - lo][0] / steps[k - lo][1]
    # the ranges between consecutive ends, each read where the last stopped
    run, got, want, start = _Pass(t0, step, lo, poly), [], [], lo
    for end in ends:
        got.append(run.read(start, end))
        want.append(sum((terms[k] for k in range(start, end + 1)), Fraction(0)))
        start = max(start, end + 1)
    assert got == want
    assert all(isinstance(s, Fraction) for s in got)
    assert calls == list(range(lo, lo + len(steps)))
    # prefix reads at ascending caps
    def prefix(end):
        return sum((terms[k] for k in range(lo, end + 1)), Fraction(0))
    caps = [end for end in sorted(ends) if end >= lo - 1]
    run = _Pass(t0, lambda k: steps[k - lo], lo, poly)
    assert [run.read(lo, end) for end in caps] == [prefix(end) for end in caps]


# every spec, and LEM-2.1's column at three (p, r)
KERNELS = [(name, ()) for name in sorted(SERIES)] + [("LEM-2.1", at)
                                                     for at in ((5, 1), (7, 1), (5, 2))]


def kernel_terms(name, at, upper):
    """The terms of a kernel up to upper, from its first index: a spec's
    Fractions, or LEM-2.1's cells F(n, (p^r-1)/2) of the five-factor pair."""
    if not at:
        return list(SERIES[name].terms(upper))
    p, r = at
    return [wz.eval_F("GZ10N2", n, (p ** r - 1) // 2) for n in range(upper + 1)]


def first_index(name):
    return SERIES[name].start if name in SERIES else 0


# the running pass is emptied once per test (fresh_kernels): each example
# holds whatever pass the one before it left
running = dict(deadline=None, database=None, derandomize=True,
               suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(max_examples=60, **running)
@given(kernel=st.sampled_from(KERNELS), caps=st.lists(st.integers(0, 60), max_size=12))
@example(kernel=("guo64", ()), caps=[0, 3, 3, 40, 41, 60])          # ascending, repeated
@example(kernel=("gz10n2", ()), caps=[60, 41, 40, 3, 0, 0])         # descending
@example(kernel=("h1", ()), caps=[7, 0, 0, 1, 0, 9, 2])             # below start = 1
@example(kernel=("mao", ()), caps=[5, 2, 9, 9, 1, 30, 0, 31])       # back and forth
@example(kernel=("h2", ()), caps=[0, 1, 1, 2, 60, 59])              # start = 1, k^2 below
@example(kernel=("suncat", ()), caps=[3, 4, 2, 40])                 # 2k + 1 below the line
@example(kernel=("LEM-2.1", (5, 2)), caps=[12, 24, 24, 12, 7, 60])  # the windows, and off them
@example(kernel=("LEM-2.1", (7, 1)), caps=[6, 3, 3, 5, 0])          # delta = 1 first
def test_running_pass_equals_sum_of_terms(fresh_kernels, kernel, caps):
    # each read goes through the kernel's running pass, not the lru_cache; a
    # cap behind the pass, and only such a cap, starts a fresh pass, which
    # stands after the read at the term past the cap
    name, at = kernel
    terms = kernel_terms(name, at, 60)
    for cap in caps:
        before = congruences._running.get(kernel)
        want = sum(terms[:cap + 1 - first_index(name)], Fraction(0))
        assert congruences._series_exact.__wrapped__(name, cap, at) == want, cap
        run = congruences._running[kernel]
        assert isinstance(run, congruences._Pass) and run.k == cap + 1
        assert (run is before) == (before is not None and before.k <= cap + 1)


@settings(max_examples=30, **running)
@given(reads=st.lists(st.tuples(st.sampled_from(KERNELS), st.integers(0, 30)), max_size=10))
@example(reads=[(("h1", ()), 4), (("LEM-2.1", (5, 1)), 2), (("LEM-2.1", (7, 1)), 3),
                (("LEM-2.1", (7, 1)), 6), (("h1", ()), 9)])
def test_running_holds_the_one_pass_in_use(fresh_kernels, reads):
    # after any read, of any kernel at any (p, r), the running pass of the
    # kernel just read is the one pass held; a pass of another kernel or
    # (p, r) is dropped, so reading it again starts a fresh pass
    for (name, at), cap in reads:
        got = congruences._series_exact.__wrapped__(name, cap, at)
        terms = kernel_terms(name, at, cap)
        assert got == sum(terms[:cap + 1 - first_index(name)], Fraction(0))
        assert list(congruences._running) == [(name, at)]
        assert congruences._running[name, at].k == cap + 1


# the five certificate rows at three (p, r), each with the last index the
# catalog reads of it: k = 1 .. p^r - 1, or 1 .. (p^r - 1) / 2 for GZ10N2's
ROWS = [(name, at, max(c.upper(*at, 1) for c in CATALOG.values() if c.kernel == name))
        for name in sorted(set(_SUMS) - {"LEM-2.1"}) for at in ((5, 1), (7, 1), (5, 2))]


@st.composite
def row_reads(draw):
    """A row and ranges (first, upper) of it in any order: first from 1 to
    the last index + 1, upper from first - 1 (empty) to the last index."""
    name, at, last = draw(st.sampled_from(ROWS))
    ranges = st.integers(1, last + 1).flatmap(
        lambda first: st.tuples(st.just(first), st.integers(first - 1, last)))
    return name, at, draw(st.lists(ranges, max_size=8))


@settings(max_examples=60, **running)
@given(row_reads())
@example(("GUO64", (5, 2), [(1, 12), (13, 13), (14, 24)]))       # the three slices
@example(("theta", (7, 1), [(4, 4), (4, 4), (5, 6), (1, 3)]))    # repeated, then behind
@example(("Z20N3", (5, 2), [(1, 12), (5, 20), (21, 20), (2, 2)]))  # behind, reaching past
@example(("GZ10N2", (7, 1), [(1, 0), (3, 2), (2, 2), (3, 3)]))   # empty and one-term
def test_row_ranges_equal_sums_of_terms(fresh_kernels, reads):
    # each range goes through the running pass (_series_exact): it reads on
    # when its first is at or past the pass, else starts a fresh pass, which
    # stands after the read at the term past the range (at first, if empty)
    name, at, ranges = reads
    desc = _SUMS[name](*at)[0]
    for first, upper in ranges:
        before = congruences._running.get((name, at))
        reads_on = before is not None and before.k <= first
        want = sum((Fraction(*binomial_product(*desc(k))) for k in range(first, upper + 1)),
                   Fraction(0))
        assert congruences._series_exact.__wrapped__(name, upper, at, first) == want
        run = congruences._running[name, at]
        assert run.k == max(upper + 1, first) and (run is before) == reads_on, (first, upper)


# a small pool of (n, m), so that a product often repeats one, with m > n and
# negative n among them
pairs = st.tuples(st.integers(-6, 12), st.integers(0, 14))


@small
@given(c=st.integers(-50, 50), e=st.integers(-12, 12),
       factors=st.lists(st.tuples(pairs, st.integers(-3, 3)), max_size=7))
def test_binomial_product_equals_per_factor_fractions(c, e, factors):
    factors = [(n, m, j) for (n, m), j in factors]
    # a vanishing binomial only above the line, so the reference is defined
    assume(all(binomial(n, m) or j >= 0 for n, m, j in factors))
    want = Fraction(c) * Fraction(2) ** e
    for n, m, j in factors:
        want *= Fraction(binomial(n, m)) ** j
    num, den = binomial_product(c, e, *factors)
    assert den > 0 and Fraction(num, den) == want


@small
@given(p=primes, c=st.integers(-50, 50), e=st.integers(-12, 12),
       factors=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 420),
                                  st.integers(0, 3)), max_size=5))
def test_lucas_product_is_the_value_mod_p(p, c, e, factors):
    assert lucas_product(p, c, e, *factors) == residue(
        Fraction(*binomial_product(c, e, *factors)), p, 1)


FAMILIES = list_cases(status="fact-family")


@small
@given(p=st.sampled_from((3, 5, 7, 11, 13, 17, 23, 47)), M=st.integers(1, 5),
       nm=st.integers(0, 3000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example(p=3, M=5, nm=(3000, 1500))     # vp(3000!) = 1495, many carries
@example(p=47, M=1, nm=(47 ** 2, 47))
def test_table_pair_is_vp_and_unit_of_comb(p, M, nm):
    n, m = nm
    table = Factorials(p, M, n)
    assert table.pair(1, 0, (n, m, 1)) == vp_unit(math.comb(n, m), p, M)


@small
@given(p=st.sampled_from((3, 5, 7, 11, 47)), M=st.integers(1, 5),
       reach=st.lists(st.integers(0, 3000), min_size=1, max_size=4, unique=True))
@example(p=3, M=2, reach=[0, 1, 2, 3, 9, 27])   # segments that start on a multiple of p
def test_extended_table_equals_a_fresh_one(p, M, reach):
    first, *rest = sorted(reach)
    table = Factorials(p, M, first)
    for n in rest:
        table.extend(n)
        fresh = Factorials(p, M, n)
        assert (table.n, table.V, table.U, table.Ui) == (n, fresh.V, fresh.U, fresh.Ui)


@small
@given(case=st.sampled_from(FAMILIES), p=st.sampled_from((5, 7, 11, 13)),
       r=st.integers(1, 2), k=st.integers(0, 10 ** 6), M=st.integers(1, 4))
def test_table_members_equal_the_evaluator(case, p, r, k, M):
    members = case.members(p, r)
    params = CheckParams(p=p, r=r, k=members[k % len(members)])
    (got,), _ = _family_items(case, params, M)
    k = params.k
    assert got[0] == k
    for side, desc in ((got[1], case.member_lhs), (got[2], case.member_rhs)):
        v, u = side
        assert (v, u % p ** M) == vp_unit(Fraction(*binomial_product(*desc(p, r, k))), p, M)
