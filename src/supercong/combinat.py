"""Combinatorial primitives: binomials, Euler numbers, Fermat quotients, and
binomial products: descriptions (c, e, *factors) meaning c 2^e prod C(n, m)^j
over factors (n, m, j), a linear factor x written C(x, 1), in which the
catalog and the WZ cells are written, with their Lucas reduction mod p.

Every function is stateless: each call computes its value afresh (binomials
by `math`), so nothing is retained between calls.
"""
from __future__ import annotations

import math

from .exactnum import _check_odd_prime


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


def binomial_product(c: int, e: int, *factors: tuple[int, int, int]) -> tuple[int, int]:
    """c 2^e prod C(n, m)^j over factors (n, m, j), as (numerator, denominator),
    not reduced.  A binomial that occurs twice, say C(2n, n) above the line and
    C(2k, k) below it at n = k, is first taken once with its powers summed."""
    powers: dict[tuple[int, int], int] = {}
    for n, m, j in factors:
        key = n, m
        powers[key] = powers.get(key, 0) + j
    return _product(c, e, powers.items())


def _product(c: int, e: int, powers) -> tuple[int, int]:
    """binomial_product over the pairs ((n, m), j) of powers, merging none.
    Each binomial is built in turn, and a vanishing one above the line ends
    the product: no later one is built."""
    num, den = c, 1
    for (n, m), j in powers:
        if j > 0:
            num *= binomial(n, m) ** j
            if not num:
                break
        elif j < 0:
            den *= binomial(n, m) ** -j
    return (num << e, den) if e >= 0 else (num, den << -e)


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


def lucas_product(p: int, c: int, e: int, *factors: tuple[int, int, int]) -> int:
    """binomial_product's value mod p, each C(n, m) the product of C(n_i, m_i)
    over the base-p digits (Lucas): for callers that check once that p is an
    odd prime and n, m >= 0.  A j < 0 needs C(n, m) prime to p."""
    out = c * pow(2, e, p) % p
    for n, m, j in factors:
        v = 1
        while (n or m) and v:
            v = v * math.comb(n % p, m % p) % p
            n, m = n // p, m // p
        out = out * pow(v, j, p) % p
    return out
