"""Combinatorial primitives: binomials, Euler numbers, Fermat quotients, and
binomial products: descriptions (c, e, *factors) meaning c 2^e prod C(n, m)^j
over factors (n, m, j), a linear factor x written C(x, 1), in which the
catalog and the WZ cells are written, with their Lucas reduction mod p and
their p-adic (valuation, unit) pair read from a factorial table.

Every function is stateless: each call computes its value afresh (binomials
by `math`), so nothing is retained between calls.  A Factorials table holds
what it was built with, and its owner decides how long it lives.
"""
from __future__ import annotations

import math
from array import array
from itertools import accumulate, islice

from .exactnum import INFINITE, Valuation, _check_odd_prime


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
    C(2k, k) below it at n = k, is first taken once with its powers summed.
    Each binomial is then built in turn, and a vanishing one above the line
    ends the product: no later one is built."""
    powers: dict[tuple[int, int], int] = {}
    for n, m, j in factors:
        key = n, m
        powers[key] = powers.get(key, 0) + j
    num, den = c, 1
    for (n, m), j in powers.items():
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


class Factorials:
    """Legendre's factorial table at an odd prime p for x = 0 .. n: V[x] =
    vp(x!) and U[x], the unit x! / p^V[x] mod p^M, with Ui[x] = U[x]^-1 mod
    p^M.  C(a, b), 0 <= b <= a <= n, is p^(V[a] - V[b] - V[a-b]) times the
    unit U[a] Ui[b] Ui[a-b] mod p^M (A. Granville, "Arithmetic properties of
    binomial coefficients I", 1997), so pair() reads a binomial product in
    O(1) per factor.  Each unit is exact mod p^M: a valuation is carried as
    an integer, negative below the line, and never costs precision.

    x's unit and vp(x) are those of x / p for a multiple of p, and x itself
    otherwise; V and U are their running sum and product, and Ui comes from
    one pow(U[n], -1) and a backward pass.  extend() runs all three on to a
    larger n in place, so a table outgrown only in reach is not rebuilt.
    U and Ui are 64-bit arrays, a quarter of the memory of lists of ints,
    so p^M must be below 2^63; the families take M <= r + 3, which stays
    below that for every p^r a table can reach."""

    def __init__(self, p: int, M: int, n: int):
        self.p, self.M, self.n, self.mod = p, M, 0, p ** M
        if self.mod >> 63:
            raise ValueError(f"units mod {p}^{M} do not fit in 64 bits")
        self.V, self.U, self.Ui = [0], array("q", [1]), array("q", [1])     # 0! = 1
        self.extend(n)

    def extend(self, n: int) -> None:
        """Run the table on from self.n to n in place: V and U from their
        last entries, and Ui's new segment from one pow(U[n], -1) and a
        backward pass over that segment only."""
        p, mod, lo = self.p, self.mod, self.n + 1
        units, counts = list(range(lo, n + 1)), [0] * (n + 1 - lo)
        for x in range(-(-lo // p) * p, n + 1, p):
            y, c = x // p, 1
            while y % p == 0:
                y, c = y // p, c + 1
            units[x - lo], counts[x - lo] = y, c

        def mul(a, b):
            return a * b % mod
        self.V.extend(islice(accumulate(counts, initial=self.V[-1]), 1, None))
        self.U.extend(islice(accumulate(units, mul, initial=self.U[-1]), 1, None))
        # U[x-1]^-1 = U[x]^-1 unit(x), from x = n down; the last product,
        # Ui[lo - 1], is held already
        tail = array("q", accumulate(reversed(units), mul, initial=pow(self.U[n], -1, mod)))
        tail.pop()
        tail.reverse()
        self.Ui.extend(tail)
        self.n = n

    def pair(self, c: int, e: int, *factors: tuple[int, int, int]) -> tuple[Valuation, int]:
        """binomial_product's value as (v, u), p^v times the unit u mod p^M,
        and (INFINITE, 0) when c = 0.  Every factor needs 0 <= m <= n <=
        self.n, which the caller checks: an index below 0 would read from
        the top of the table."""
        if not c:
            return INFINITE, 0
        p, mod, V, U, Ui = self.p, self.mod, self.V, self.U, self.Ui
        v = 0
        while c % p == 0:
            c, v = c // p, v + 1
        u = c * pow(2, e, mod) % mod
        for n, m, j in factors:
            v += j * (V[n] - V[m] - V[n - m])
            b = U[n] * Ui[m] * Ui[n - m] if j > 0 else Ui[n] * U[m] * U[n - m]
            u = u * (b if j in (1, -1) else pow(b, abs(j), mod)) % mod
        return v, u
