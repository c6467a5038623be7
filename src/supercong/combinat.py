"""Combinatorial primitives: factorials, binomials, Pochhammer symbols,
harmonic numbers, Euler numbers, Fermat quotients, Lucas reduction.

Every function is stateless: each call computes its value afresh (factorials
and binomials by `math`), so nothing is retained between calls.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import Rational, _check_odd_prime


class UnsupportedConvention(ValueError):
    """Raised for reciprocal-Pochhammer arguments outside the stated convention."""


# the zero-Pochhammer reciprocal raises the stdlib division error
DivisionByZero = ZeroDivisionError


def factorial(n: int) -> int:
    """n!."""
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    return math.factorial(n)


def odd_product(m: int) -> int:
    """Product of the first m odd numbers: 1*3*...*(2m-1) = C(2m,m) m! / 2^m."""
    if m < 0:
        raise ValueError(f"odd_product of negative {m}")
    return central_binomial(m) * factorial(m) >> m


def central_binomial(m: int) -> int:
    """C(2m, m)."""
    if m < 0:
        raise ValueError(f"central_binomial of negative {m}")
    return math.comb(2 * m, m)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with signed upper argument.

    For n >= 0 the standard value (0 when k > n); for n < 0 the
    generalized value via the reflection (-1)^k C(-n+k-1, k).
    k < 0 returns 0 (vanishing convention used by the summation limits).
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1) ** k * math.comb(-n + k - 1, k)


def binomial_rat(a, k: int) -> Rational:
    """C(a, k) = a(a-1)...(a-k+1)/k! for rational upper argument a."""
    if k < 0:
        raise ValueError(f"binomial_rat lower index must be >= 0, got {k}")
    a = Fraction(a)
    num = Fraction(1)
    for j in range(k):
        num *= a - j
    return num / factorial(k)


def pochhammer(a, n: int) -> Rational:
    """Rising factorial (a)_n = a(a+1)...(a+n-1); (a)_0 = 1."""
    if n < 0:
        raise ValueError(f"pochhammer index must be >= 0, got {n}")
    a = Fraction(a)
    out = Fraction(1)
    for j in range(n):
        out *= a + j
    return out


def pochhammer_half(m: int) -> Rational:
    """(1/2)_m = C(2m,m) m! / 4^m."""
    return Fraction(central_binomial(m) * factorial(m), 4 ** m)


def neg_half(m: int) -> int:
    """2^m (-1/2)_m, an integer: -(2m-3)!! for m >= 1 and 1 at m = 0."""
    if m < 0:
        raise ValueError(f"neg_half of negative {m}")
    return -odd_product(m - 1) if m else 1


def pochhammer_neg_half(m: int) -> Rational:
    """(-1/2)_m = neg_half(m) / 2^m."""
    return Fraction(neg_half(m), 2 ** m)


def recip_pochhammer(a, n: int) -> Rational:
    """1/(a)_n, extended by the convention 1/(1)_n = 0 for n < 0.

    Only a = 1 supports negative n (the convention actually used); any
    other a with n < 0 raises UnsupportedConvention rather than guessing.
    """
    a = Fraction(a)
    if n < 0:
        if a == 1:
            return Fraction(0)
        raise UnsupportedConvention(f"1/({a})_{n} has no registered convention")
    val = pochhammer(a, n)
    if val == 0:
        raise ZeroDivisionError(f"({a})_{n} = 0")
    return 1 / val


def harmonic(n: int, order: int = 1) -> Rational:
    """H_n^(order) = sum over 1 <= k <= n of 1/k^order; H_0 = 0."""
    if n < 0:
        raise ValueError(f"harmonic index must be >= 0, got {n}")
    if order < 1:
        raise ValueError(f"harmonic order must be >= 1, got {order}")
    return sum((Fraction(1, k ** order) for k in range(1, n + 1)), Fraction(0))


def euler_number(n: int) -> int:
    """Euler number E_n by the recurrence E_n = -sum C(n,2k) E_(n-2k), E_0 = 1."""
    if n < 0:
        raise ValueError(f"euler_number of negative {n}")
    e = [1]
    for i in range(1, n + 1):
        e.append(-sum(math.comb(i, 2 * k) * e[i - 2 * k] for k in range(1, i // 2 + 1)))
    return e[n]


def fermat_quotient(p: int) -> int:
    """q_p(2) = (2^(p-1) - 1)/p, an integer for odd prime p."""
    _check_odd_prime(p)
    return (2 ** (p - 1) - 1) // p


def lucas_residue(n: int, k: int, p: int) -> int:
    """C(n, k) mod p via the base-p digit product."""
    _check_odd_prime(p)
    if n < 0 or k < 0:
        raise ValueError("lucas_residue needs n, k >= 0")
    return _lucas(n, k, p)


def _lucas(n: int, k: int, p: int) -> int:
    """The digit loop of lucas_residue, with p an odd prime and n, k >= 0
    unchecked: for callers that validate them once per point."""
    out = 1
    while (n or k) and out:
        out = out * math.comb(n % p, k % p) % p
        n, k = n // p, k // p
    return out
