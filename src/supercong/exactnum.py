"""Exact rationals, p-adic valuation, and residue reduction.

Everything downstream computes with `Rational` (an alias for
`fractions.Fraction`: immutable, always in lowest terms, positive
denominator). A valuation is either a plain int or the `INFINITE`
marker, which is the valuation of 0 and compares greater than every
integer so that "observed >= claimed" stays well defined when a
difference vanishes exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction


class PNotIntegral(ArithmeticError):
    """Raised when a residue is requested for x with vp(x) < 0."""


class _Infinite:
    """Valuation of zero; a singleton ordered above every integer."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"

    def __eq__(self, other) -> bool:
        return isinstance(other, _Infinite)

    def __hash__(self) -> int:
        return hash("supercong.exactnum.INFINITE")

    def __gt__(self, other) -> bool:
        return not isinstance(other, _Infinite)

    def __ge__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, _Infinite)

    def __reduce__(self):
        # keep the singleton a singleton across pickling (worker processes)
        return (_restore_infinite, ())


def _restore_infinite() -> "_Infinite":
    return INFINITE


INFINITE = _Infinite()

Valuation = Union[int, _Infinite]


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


@dataclass(frozen=True)
class PadicContext:
    """The residue ring Z/p^m together with valuation queries at p."""

    p: int
    m: int

    def __post_init__(self) -> None:
        _check_odd_prime(self.p)
        if self.m < 1:
            raise ValueError(f"exponent m must be >= 1, got {self.m}")

    @property
    def modulus(self) -> int:
        return self.p ** self.m


def vp(x, p: int) -> Valuation:
    """p-adic valuation of a rational; INFINITE for x == 0.

    Negative values occur when p divides the denominator.
    """
    _check_odd_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITE
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


def congruent(x, y, ctx: PadicContext) -> bool:
    """x == y (mod p^m) in the valuation sense: vp(x - y) >= m.

    Defined through the valuation of the difference rather than residue
    equality so it stays meaningful when x or y has p in a denominator.
    """
    return vp(Fraction(x) - Fraction(y), ctx.p) >= ctx.m


def residue(x, ctx: PadicContext) -> int:
    """Canonical representative of x in [0, p^m) via modular inverse.

    Requires x to be p-integral (vp >= 0); otherwise raises PNotIntegral
    and the caller must stay on the exact backend.
    """
    x = Fraction(x)
    mod = ctx.modulus
    den = x.denominator
    if den % ctx.p == 0:
        raise PNotIntegral(f"vp({x}, {ctx.p}) < 0; no residue mod {ctx.p}^{ctx.m}")
    return x.numerator * pow(den, -1, mod) % mod
