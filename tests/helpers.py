"""Helpers shared by the tests: the textbook references they compare
against, the Pochhammer symbol (rising factorial), the binomial C(a, k) for
rational a and the harmonic number H_n^(order), each written as its plain
sum or product; a rational's p-adic valuation and unit; and the range sums
of one kernel pass read as Fractions."""
from fractions import Fraction
from math import factorial, prod

from supercong.congruences import _Pass
from supercong.exactnum import INFINITE, vp


def pochhammer(a, n):
    """(a)_n = a (a+1) ... (a+n-1); (a)_0 = 1."""
    return prod((Fraction(a) + j for j in range(n)), start=Fraction(1))


def binomial_rat(a, k):
    """C(a, k) = a (a-1) ... (a-k+1) / k!, the falling factorial over k!."""
    return prod((Fraction(a) - j for j in range(k)), start=Fraction(1)) / factorial(k)


def harmonic(n, order=1):
    """H_n^(order) = 1 + 1/2^order + ... + 1/n^order; H_0 = 0."""
    return sum((Fraction(1, k ** order) for k in range(1, n + 1)), Fraction(0))


def ratio_slices(t0, step, lo, ends, poly):
    """The range sums of one _Pass over the given ends, each divided out as
    the verifier divides it."""
    run = _Pass(t0, step, lo, ends, poly)
    return tuple(run[i] for i in range(len(ends)))


def vp_unit(x, p, M):
    """(vp(x), the unit x / p^vp(x) mod p^M) of a rational x, and
    (INFINITE, 0) for x = 0: what a factorial table's pair() gives."""
    x = Fraction(x)
    if not x:
        return INFINITE, 0
    v = vp(x, p)
    unit = x / Fraction(p) ** v
    return v, unit.numerator * pow(unit.denominator, -1, p ** M) % p ** M
