"""Algebraic laws of the arithmetic primitives, on draws from hypothesis: vp
is additive, residue is a ring homomorphism on p-integral rationals, a
binomial with a negative upper index follows the reflection rule, the
binary-split kernel's range and prefix sums equal termwise sums, the exact
division that ends each sum equals Fraction's, the running exact series pass
equals a termwise sum at any sequence of caps, the binomial-product evaluator
and its Lucas reader agree with per-factor arithmetic, and the factorial
table's (valuation, unit) pairs agree with math.comb and with the evaluator.
Skipped when hypothesis is not installed."""
import math
from fractions import Fraction
from unittest import mock

import pytest

from supercong import congruences
from supercong.combinat import Factorials, binomial, binomial_product, lucas_product
from supercong.congruences import (SERIES, CheckParams, _family_items, _over_power_of_two,
                                   _Pass, list_cases)
from supercong.exactnum import INFINITE, residue, vp

from helpers import binomial_rat, ratio_slices, vp_unit

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

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

    got = ratio_slices(t0, step, lo, ends, poly)
    # t_k = t0 poly(k) u_k, u_lo = 1, u_(k+1) = u_k a_k / b_k, one Fraction a term
    terms, u = {}, Fraction(1)
    for k in range(lo, lo + len(steps) + 1):
        terms[k] = t0 * sum(c * k ** i for i, c in enumerate(poly)) * u
        if k - lo < len(steps):
            u = u * steps[k - lo][0] / steps[k - lo][1]
    want, start = [], lo
    for end in ends:
        want.append(sum((terms[k] for k in range(start, end + 1)), Fraction(0)))
        start = max(start, end + 1)
    assert got == tuple(want)
    assert all(isinstance(s, Fraction) for s in got)
    assert calls == list(range(lo, lo + len(steps)))
    # prefix reads: at the ends, in reverse, of a pass with ascending ends,
    # and at ascending caps of a pass with none
    def prefix(end):
        return sum((terms[k] for k in range(lo, end + 1)), Fraction(0))
    ends = sorted(ends)
    run = _Pass(t0, lambda k: steps[k - lo], lo, tuple(ends), poly)
    assert [run.prefix(end) for end in reversed(ends)] == [prefix(e) for e in reversed(ends)]
    run = _Pass(t0, lambda k: steps[k - lo], lo, (), poly)
    assert [run.prefix(end) for end in ends if end >= lo - 1] == \
        [prefix(end) for end in ends if end >= lo - 1]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(SERIES)),
       caps=st.lists(st.integers(0, 60), max_size=12))
@example(name="guo64", caps=[0, 3, 3, 40, 41, 60])           # ascending, repeated
@example(name="gz10n2", caps=[60, 41, 40, 3, 0, 0])          # descending
@example(name="h1", caps=[7, 0, 0, 1, 0, 9, 2])              # below start = 1
@example(name="mao", caps=[5, 2, 9, 9, 1, 30, 0, 31])        # back and forth
@example(name="h2", caps=[0, 1, 1, 2, 60, 59])                # start = 1, k^2 below the line
@example(name="suncat", caps=[3, 4, 2, 40])                   # 2k + 1 below the line
def test_running_pass_equals_sum_of_terms(name, caps):
    # each read goes through the spec's running pass, not the lru_cache; a
    # cap behind the pass, and only such a cap, starts a fresh pass, which
    # stands after the read at the term past the cap
    congruences._running.clear()
    terms = list(SERIES[name].terms(60))
    for cap in caps:
        before = congruences._running.get(name)
        want = sum(terms[:cap + 1 - SERIES[name].start], Fraction(0))
        assert congruences._series_exact.__wrapped__(name, cap) == want, cap
        run = congruences._running[name]
        assert isinstance(run, congruences._Pass) and run.k == cap + 1
        assert (run is before) == (before is not None and before.k <= cap + 1)


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
