"""Algebraic laws of the arithmetic primitives, on draws from hypothesis: vp
is additive, residue is a ring homomorphism on p-integral rationals, and a
binomial with a negative upper index follows the reflection rule.  Skipped
when hypothesis is not installed."""
from fractions import Fraction

import pytest

from supercong.combinat import binomial, binomial_rat
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
