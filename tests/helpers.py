"""Helpers shared by the tests: the textbook references they compare
against, the Pochhammer symbol (rising factorial) and the binomial C(a, k)
for rational a, each written as its plain product; and the certificate-sum
slices read as Fractions."""
from fractions import Fraction
from math import factorial, prod

from supercong.congruences import _over_power_of_two, _slice_pairs


def pochhammer(a, n):
    """(a)_n = a (a+1) ... (a+n-1); (a)_0 = 1."""
    return prod((Fraction(a) + j for j in range(n)), start=Fraction(1))


def binomial_rat(a, k):
    """C(a, k) = a (a-1) ... (a-k+1) / k!, the falling factorial over k!."""
    return prod((Fraction(a) - j for j in range(k)), start=Fraction(1)) / factorial(k)


def ratio_slices(t0, step, lo, ends, poly):
    """The slices of one _slice_pairs pass, each divided out as the verifier
    divides it."""
    return tuple(_over_power_of_two(x, b) for x, b in _slice_pairs(t0, step, lo, ends, poly))
