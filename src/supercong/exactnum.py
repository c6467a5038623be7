"""Exact rationals, p-adic valuation, and residue reduction.

Everything downstream computes with `Rational` (an alias for
`fractions.Fraction`: immutable, always in lowest terms, positive
denominator). A valuation, typed `Valuation` (`int | float`), is a plain
int, or `INFINITE` (`math.inf`) for the valuation of 0: it compares greater
than every integer, so that "observed >= claimed" stays well defined when a
difference vanishes exactly, and `INFINITE - n == INFINITE`. An infinity made by arithmetic or
by unpickling is another float object, so test it with `==`, not `is`.
A residue ring Z/p^m is named by its two numbers, p and m.
"""
from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


class PNotIntegral(ArithmeticError):
    """Raised when a residue is requested for x with vp(x) < 0."""


INFINITE = math.inf

Valuation = int | float


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk-scale n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p}")


def vp(x, p: int) -> Valuation:
    """p-adic valuation of a rational; INFINITE for x == 0.

    Negative values occur when p divides the denominator.
    """
    _check_odd_prime(p)
    x = Fraction(x)
    return _vp_int(x.numerator, p) - _vp_int(x.denominator, p)


def _vp_int(n: int, p: int) -> Valuation:
    """vp of an integer, INFINITE for 0, with p taken as an odd prime
    unchecked: for callers that validate p once and score many integers."""
    if n == 0:
        return INFINITE
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def residue(x, p: int, m: int) -> int:
    """Canonical representative of x in Z/p^m, in [0, p^m), via modular
    inverse; p must be an odd prime and m >= 1.

    Requires x to be p-integral (vp >= 0); otherwise raises PNotIntegral
    and the caller must stay on the exact backend.
    """
    _check_odd_prime(p)
    if m < 1:
        raise ValueError(f"exponent m must be >= 1, got {m}")
    x = Fraction(x)
    mod = p ** m
    den = x.denominator
    if den % p == 0:
        raise PNotIntegral(f"vp({x}, {p}) < 0; no residue mod {p}^{m}")
    return x.numerator * pow(den, -1, mod) % mod
