"""Algebraic laws of the arithmetic primitives, on draws from hypothesis: vp
is additive, residue is a ring homomorphism on p-integral rationals, a
binomial with a negative upper index follows the reflection rule, and the
binary-split slice kernel equals a termwise sum.  Skipped when hypothesis is
not installed."""
from fractions import Fraction

import pytest

from supercong.combinat import binomial, binomial_rat
from supercong.congruences import _ratio_slices
from supercong.exactnum import INFINITE, PadicContext, residue, vp

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

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
    assert vp(0 * x, p) is INFINITE


@small
@given(p=primes, m=st.integers(1, 6), e1=st.integers(0, 4), e2=st.integers(0, 4),
       a1=st.integers(-10 ** 6, 10 ** 6), b1=nonzero,
       a2=st.integers(-10 ** 6, 10 ** 6), b2=nonzero)
def test_residue_is_a_ring_homomorphism(p, m, e1, e2, a1, b1, a2, b2):
    assume(b1 % p and b2 % p)           # p-integral: no p in a denominator
    ctx, mod = PadicContext(p, m), p ** m
    x, y = rational(p, e1, a1, b1), rational(p, e2, a2, b2)
    rx, ry = residue(x, ctx), residue(y, ctx)
    assert 0 <= rx < mod
    assert residue(x + y, ctx) == (rx + ry) % mod
    assert residue(x - y, ctx) == (rx - ry) % mod
    assert residue(x * y, ctx) == rx * ry % mod
    assert residue(Fraction(1), ctx) == 1
    assert (residue(x, ctx) == 0) == (vp(x, p) >= m)


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


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(ratio_sum_inputs())
def test_ratio_sums_equal_termwise_sums(inputs):
    t0, lo, steps, ends, poly = inputs
    calls = []

    def step(k):
        calls.append(k)
        return steps[k - lo]

    got = tuple(_ratio_slices(t0, step, lo, ends, poly))
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
