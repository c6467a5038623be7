"""Catalog of verifiable congruences: truncated series, binomial facts, and
certificate-row sums, each scored by the p-adic valuation of LHS - RHS.

Case kinds:
  series   -- a truncated sum described by a SeriesSpec (exact sum over one
              common denominator, plus a residue path in Z/p^m that steps
              (valuation, unit) pairs when the terms are p-integral)
  scalar   -- a single closed-form quantity
  family   -- a k-indexed batch of scalar congruences, aggregated by the
              minimum observed valuation over all members
  identity -- an exact rational equality (pass iff LHS equals RHS)

Statuses: theorem / known / lemma / fact-family / conjecture / informational.
Conjecture and informational cases report honestly but are flagged so sweep
exit codes can ignore them; the same flag is applied to p = 3 evaluations and
to r = 1 evaluations of statements whose hypotheses require r >= 2.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from fnmatch import fnmatch
from functools import lru_cache
from math import prod
from typing import Callable, Iterable, Iterator, Optional, Union

from .combinat import (_lucas, binomial, binomial_rat, central_binomial,
                       euler_number, fermat_quotient, harmonic)
from .exactnum import (INFINITE, PadicContext, Rational, Valuation, _vp_int,
                       is_prime, residue)
from .exactnum import vp  # noqa: F401  (unused here; perfbench/tracer.py wraps congruences.vp)
from . import wz

P_FLOOR = 5

STATUSES = ("theorem", "known", "lemma", "fact-family", "conjecture",
            "informational")


class UnknownCase(ValueError):
    """No catalog entry with the requested id."""


class PrimeBelowFloor(ValueError):
    """p below the case's admissible floor and no override was given."""


class BackendIneligible(RuntimeError):
    """The residue backend cannot evaluate this case or point (p in a denominator)."""


class BackendDisagreement(AssertionError):
    """The exact and residue backends reduce a point to different residues."""


def _sign_pr(p: int, r: int) -> int:
    # (-1)^((p^r-1)/2), equal to (-1)^(r(p-1)/2) for odd p
    return -1 if (p ** r - 1) // 2 % 2 else 1


@dataclass(frozen=True)
class CheckParams:
    """Evaluation point: prime p, exponent r, optional delta / member / cap."""

    p: int
    r: int = 1
    delta: Optional[int] = None
    k: Optional[int] = None
    upper_override: Optional[int] = None

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.delta is not None and self.delta not in (1, 2):
            raise ValueError(f"delta must be 1 or 2, got {self.delta}")
        if self.upper_override is not None and self.upper_override < 0:
            raise ValueError("upper_override must be >= 0")


@dataclass(frozen=True)
class CongruenceCase:
    id: str
    status: str
    statement: str
    kind: str                                   # series | scalar | family | identity
    claimed_exponent: Optional[Callable[[int, int], int]]
    rhs: Callable[[int, int], Rational]
    # series
    series_name: Optional[str] = None
    upper: Optional[Callable[[int, int, int], int]] = None  # (p, r, delta) -> cap
    # scalar / identity
    lhs_scalar: Optional[Callable[[int, int], Rational]] = None
    # family
    members: Optional[Callable[[int, int], range]] = None
    member_lhs: Optional[Callable[[int, int, int], tuple]] = None  # descriptions,
    member_rhs: Optional[Callable[[int, int, int], tuple]] = None  # see _stepped
    member_lucas: Optional[Callable[[int, int, int], int]] = None  # lhs mod p, digitwise
    uses_r: bool = True
    uses_delta: bool = False
    p_integral: bool = False                    # residue backend eligibility
    r_floor: int = 1
    # the cached kernel the case reads (a series spec, a _SUMS entry);
    # cases naming the same one share its work at a (p, r)
    kernel: Optional[str] = None

    def claimed(self, p: int, r: int) -> Optional[int]:
        return None if self.claimed_exponent is None else self.claimed_exponent(p, r)


@dataclass
class CheckResult:
    case_id: str
    params: CheckParams
    lhs: Union[Rational, int]
    rhs: Union[Rational, int]
    observed_valuation: Valuation
    claimed_exponent: Optional[int]
    passed: bool
    backend: str
    elapsed_ms: float = 0.0
    status: str = ""
    informational: bool = False
    note: str = ""


# --------------------------------------------------------------------------
# series specs: one declarative description per catalog series, read by the
# exact kernel, the residue kernel and the Fraction term view.  Every term is
# an integer over a power of two times a small odd factor, so the exact kernel
# needs no gcd until the one Fraction it builds at the end.


def _poly(coeffs: tuple[int, ...], k: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


# a plain class: the dataclass decorator would add about 1.7 ms on a 2-vCPU host
# (2-3 % of the import that every CLI run pays)
class SeriesSpec:
    """t_k = (-1)^k poly(k) x_k^a C(4k,2k)^b / (den(k) 2^(rate k)) for k = start ..
    upper, with x_k = C(2k,k) / divisor(k), an exact integer quotient; the (-1)^k
    only when alternating (alternating specs start at 0).  poly holds any other
    sign (glr's minus); polynomials are coefficient tuples, constant term first,
    and den(k) is the small odd denominator factor.  Both kernels read the binomial
    part x_k^a C(4k,2k)^b through steps(): the exact one steps it as a big integer
    (parts), the residue one as a p-adic (valuation, unit) pair."""

    def __init__(self, poly: tuple[int, ...], *, a: int = 0, b: int = 0,
                 rate: int = 0, den: tuple[int, ...] = (1,),
                 divisor: tuple[int, ...] = (1,), alternating: bool = False,
                 start: int = 0):
        self.poly, self.a, self.b, self.rate = poly, a, b, rate
        self.den, self.divisor = den, divisor
        self.alternating, self.start = alternating, start

    def steps(self, upper: int) -> Iterator[tuple[int, int, int]]:
        """(k, num, den) for k = start .. upper: the binomial part at k is the
        one at k - 1 times num / den, an exact integer quotient; at k = start
        num is the part itself (start <= 1, so it is small) and den is 1.
        The ratio is (2(2k-1) divisor(k-1) / (k divisor(k)))^a
        (2(4k-3)(4k-1) / (k(2k-1)))^b."""
        a, b, div, k = self.a, self.b, self.divisor, self.start
        if upper < k:
            return
        q = _poly(div, k)
        yield k, (central_binomial(k) // q) ** a * central_binomial(2 * k) ** b, 1
        for k in range(k + 1, upper + 1):
            q1 = _poly(div, k)
            yield (k, (2 * (2 * k - 1) * q) ** a * (2 * (4 * k - 3) * (4 * k - 1)) ** b,
                   (k * q1) ** a * (k * (2 * k - 1)) ** b)
            q = q1

    def parts(self, upper: int) -> Iterator[tuple[int, int, int]]:
        """(k, integer numerator, den(k)) of t_k for k = start .. upper; the
        binomial part is a big integer, stepped exactly by steps()."""
        s, part = 1, 1
        for k, num, den in self.steps(upper):
            part = part * num // den
            yield k, s * _poly(self.poly, k) * part, _poly(self.den, k)
            if self.alternating:
                s = -s

    def terms(self, upper: int) -> Iterator[Rational]:
        """The sum's terms one by one as Fractions, each from a list of
        C(2j,j), j <= 2 upper, built by its own recurrence C(2j,j) =
        C(2j-2,j-1) 2(2j-1)/j: the reference the kernels are tested against."""
        central = [1]
        for j in range(1, 2 * upper + 1):
            central.append(central[-1] * (2 * (2 * j - 1)) // j)
        s = 1
        for k in range(self.start, upper + 1):
            x = central[k] // _poly(self.divisor, k)
            yield Fraction(s * _poly(self.poly, k) * x ** self.a
                           * central[2 * k] ** self.b,
                           _poly(self.den, k) << (self.rate * k))
            if self.alternating:
                s = -s


SERIES: dict[str, SeriesSpec] = {
    # (4k+1) C(2k,k)^3 / (-64)^k
    "guo64": SeriesSpec((1, 4), a=3, rate=6, alternating=True),
    # (10n^2+6n+1) (-4)^n (1/2)_n^5/(1)_n^5 = (10n^2+6n+1)(-1)^n C(2n,n)^5/2^(8n)
    "gz10n2": SeriesSpec((1, 6, 10), a=5, rate=8, alternating=True),
    # (-1)^n (20n+3) (1/2)_n (1/2)_(2n) / ((1)_n^3 16^n), and its unsigned variant
    "z20n3-signed": SeriesSpec((3, 20), a=2, b=1, rate=10, alternating=True),
    "z20n3-raw": SeriesSpec((3, 20), a=2, b=1, rate=10),
    # (120n^2+34n+3) (1/2)_n^3 (1/2)_(2n) / ((1)_n^5 2^(6n))
    #   = (120n^2+34n+3) C(2n,n)^4 C(4n,2n) / 2^(16n)
    "z120n2": SeriesSpec((3, 34, 120), a=4, b=1, rate=16),
    # (-1)^k (4k-1) (-1/2)_k^3/(1)_k^3 = (-1)^k (1-4k) x_k^3/64^k: the minus sign
    # of (-1/2)_k/(1)_k = -x_k/4^k is in the polynomial, and x_k = C(2k,k)/(2k-1)
    # is -1 at k = 0 and 2 C(2k-2,k-1)/k (Catalan) after
    "glr": SeriesSpec((1, -4), a=3, divisor=(-1, 2), rate=6, alternating=True),
    # C(2n,n)^2 / ((n+1) 16^n)
    "mao": SeriesSpec((1,), a=2, rate=4, den=(1, 1)),
    # C(2k,k) / ((2k+1) 4^k)
    "suncat": SeriesSpec((1,), a=1, rate=2, den=(1, 2)),
    "h1": SeriesSpec((1,), den=(0, 1), start=1),
    "h2": SeriesSpec((1,), den=(0, 0, 1), start=1),
}


def _split(ratios: list[tuple[int, int]], poly: tuple[int, ...], first: int,
           i: int, j: int) -> tuple[int, int, int]:
    """(A, B, T) of the terms i .. j-1, term k having the ratio (a, b) =
    ratios[k - first]: A / B is the product of their ratios, and T / B the
    sum over k of poly(k) times the ratios of the terms i .. k.  Halves
    combine as A1 A2, B1 B2 and T1 B2 + A1 T2."""
    if j - i == 1:
        a, b = ratios[i - first]
        return a, b, a * _poly(poly, i)
    m = (i + j) // 2
    a1, b1, t1 = _split(ratios, poly, first, i, m)
    a2, b2, t2 = _split(ratios, poly, first, m, j)
    return a1 * a2, b1 * b2, t1 * b2 + a1 * t2


def _ratio_slices(t0: Rational, step: Callable[[int], tuple[int, int]], lo: int,
                  ends: Iterable[int], poly: tuple[int, ...]) -> Iterator[Rational]:
    """Sums of t_k = t0 poly(k) u_k over the ranges lo..e1, e1+1..e2, ... of
    ends (e1, e2, ...; a range with e_i <= e_(i-1) sums to 0), each yielded
    when its range ends, where u_lo = 1 and u_(k+1) = u_k a_k / b_k for
    integers (a_k, b_k) = step(k), b_k != 0, called once for each k below
    the last end, in increasing order, as the ranges are reached.

    Binary splitting (Haible and Papanikolaou, ANTS-III, 1998): each range
    is one (A, B, T) product tree (_split) over its terms, the ratio of term
    k being a_(k-1) / b_(k-1) (1 at lo), and its seed u_(start-1) is the
    product of the A / B of the ranges to its left.  The products of a
    range of n terms grow to O(n log n) bits, so its tree costs
    O(M(n log n) log n) for the multiplication time M, where a stepped loop
    takes O(n^2 log n); each range's Fraction, built from its T and B, is
    its only gcd."""
    t0 = Fraction(t0)
    a, b, ra, k = t0.numerator, t0.denominator, 1, lo
    for end in ends:
        if end < k:
            yield Fraction(0)
            continue
        ratios = [step(j - 1) if j > lo else (1, 1) for j in range(k, end + 1)]
        a *= ra         # a / b: t0 times the A / B of the ranges to the left
        ra, rb, t = _split(ratios, poly, k, k, end + 1)
        b *= rb
        yield Fraction(a * t, b)
        k = end + 1


class _Slices:
    """The n range sums of one _ratio_slices pass, each computed at first use;
    the pass, which holds unreduced products, is dropped after the last."""

    def __init__(self, slices: Iterator[Rational], n: int):
        self._slices, self._n, self._done = slices, n, []

    def __getitem__(self, i: int) -> Rational:
        while len(self._done) <= i:
            self._done.append(next(self._slices))
            if len(self._done) == self._n:
                self._slices = None
        return self._done[i]


@lru_cache(maxsize=256)
def _series_exact(name: str, upper: int) -> Rational:
    """Exact kernel: one integer numerator over den(start) ... den(upper)
    2^(rate upper), and a single Fraction (the only gcd) at the end."""
    spec = SERIES[name]
    num, odd = 0, 1
    for k, t, d in spec.parts(upper):
        # invariant: num / (odd 2^(rate k)) is the sum of the terms up to k
        num = (num * d << spec.rate) + t * odd
        odd *= d
    return Fraction(num, odd << (spec.rate * upper))


@lru_cache(maxsize=256)
def _series_residue(name: str, upper: int, p: int, m: int) -> int:
    """Residue kernel: the sum mod p^m from the spec's steps alone, with no
    Fraction and no big integer.  The binomial part B_k is carried as
    p^v un / ud: v is its p-adic valuation, and un and ud are the units mod
    p^m of the products of the steps' numerators and denominators.  Each step
    strips p from its two integers, adds the valuations and multiplies the
    units; 2^(rate k) is carried as tw mod p^m.  The running sum is num / dd,
    inverted once at the end.

    Precision: every catalog spec is p-integral, so B_k is an integer and
    v >= 0, and den(k) and 2 are units at the points the kernel accepts.
    Carrying the units mod p^m is therefore exact, and a term with v >= m
    is 0 mod p^m (v may fall back below m later, so un and ud are still
    stepped).  Raises BackendIneligible at the first term whose den(k) is
    divisible by p, whatever its v."""
    spec = SERIES[name]
    mod = p ** m
    powers = [p ** e for e in range(m)]
    s, two, tw = 1, 1 << spec.rate, 1 << spec.rate * spec.start
    v, un, ud, num, dd = 0, 1, 1, 0, 1
    for k, up, down in spec.steps(upper):
        while up % p == 0:
            up, v = up // p, v + 1
        while down % p == 0:
            down, v = down // p, v - 1
        un, ud = un * up % mod, ud * down % mod
        d = _poly(spec.den, k)
        if d % p == 0:
            raise BackendIneligible(
                f"term k={k} of series {name} has odd denominator factor "
                f"{d}, divisible by p = {p}")
        if v < m:
            e = ud * d * tw % mod
            num = (num * e + s * _poly(spec.poly, k) * powers[v] * un * dd) % mod
            dd = dd * e % mod
        tw = tw * two % mod
        if spec.alternating:
            s = -s
    return num * pow(dd, -1, mod) % mod


# --------------------------------------------------------------------------
# certificate sums: stretches of one WZ pair's cells.  _SUMS maps a name to
# (p, r) -> (t0, step, lo, ends, poly), the arguments of its _ratio_slices pass.

def _theta_direct(p: int, r: int, k: int) -> Rational:
    """theta(k) of LEM-4.2 in closed form: it seeds the theta row at k = 1,
    and is the per-cell reference the stepped row is tested against."""
    P = p ** r
    return wz._cell((-1) ** (k + 1) * p ** (3 * r) * binomial(2 * P - 1, P - 1) ** 2
                    * binomial(-2 * P - 1, 2 * k - 2) * binomial(2 * P - 2, P - k - 1),
                    (2 * P - 1) * k * (2 * k - 1) * binomial(2 * k, k), 2 * k - 6 * P + 6)


def _p_row(p: int, r: int, seed: Rational, c: int, d: int) -> tuple:
    """A row k = 1 .. P-1, P = p^r, from its cell at k = 1, stepped by the cell
    ratio -2(cP+2k-1)(P-k-d)/(2k+1)^2 (common factor P + k cancelled), in three
    slices: prefix (k <= (P-1)/2), middle (k = (P+1)/2) and tail."""
    P = p ** r      # odd, so P // 2 = (P-1)/2
    return (seed, lambda k: (-2 * (c * P + 2 * k - 1) * (P - k - d), (2 * k + 1) ** 2),
            1, (P // 2, P // 2 + 1, P - 1), (1,))


def _gz_row(p: int, r: int, n0: int) -> tuple:
    """The five-factor G(n0, k) over k = 1 .. (P-1)/2: (n0+2k-1) q_k^4
    (-1)^n0 odd(n0) / (2^(3n0-5) (n0-1)!^5) with odd(m) = 1 3 ... (2m-1) and
    q_k = odd(k+n0-1)/odd(k), which starts at odd(n0) and steps by
    (2k+2n0-1)/(2k+1); odd(n0) / (n0-1)! = n0 C(2n0,n0) / 2^n0."""
    t0 = Fraction((-1) ** n0 * (n0 * central_binomial(n0)) ** 5, 2 ** (8 * n0 - 5))
    return (t0, lambda k: ((2 * k + 2 * n0 - 1) ** 4, (2 * k + 1) ** 4),
            1, ((p ** r - 1) // 2,), (n0 - 1, 2))


def _lem21_column(p: int, r: int) -> tuple:
    """F(n, K) of the five-factor pair at K = (p^r-1)/2, in LEM-2.1's two windows
    0 .. K (delta = 2) and K+1 .. 2K: 10n^2+(12K+6)n+4K^2+4K+1 times (1/2)_n
    (1/2+K)_n^4 (-4)^n / (1)_n^5, stepped by -(2n+1)(2K+2n+1)^4/(8(n+1)^5)."""
    K = (p ** r - 1) // 2
    return (1, lambda n: (-(2 * n + 1) * (2 * K + 2 * n + 1) ** 4, 8 * (n + 1) ** 5),
            0, (K, 2 * K), (4 * K * K + 4 * K + 1, 12 * K + 6, 10))


_SUMS: dict[str, Callable[[int, int], tuple]] = {
    "GUO64": lambda p, r: _p_row(p, r, wz.eval_G("GUO64", p ** r, 1), 2, 0),
    "Z20N3": lambda p, r: _p_row(p, r, wz.eval_G("Z20N3", p ** r, 1), 4, 0),
    "theta": lambda p, r: _p_row(p, r, _theta_direct(p, r, 1), 2, 1),
    "GZ10N2-half": lambda p, r: _gz_row(p, r, (p ** r + 1) // 2),
    "GZ10N2": lambda p, r: _gz_row(p, r, p ** r),
    "LEM-2.1": _lem21_column,
}


@lru_cache(maxsize=256)
def _sums(name: str, p: int, r: int) -> _Slices:
    """The slices of _SUMS[name] at (p, r), each computed at first use."""
    t0, step, lo, ends, poly = _SUMS[name](p, r)
    return _Slices(_ratio_slices(t0, step, lo, ends, poly), len(ends))


# --------------------------------------------------------------------------
# catalog construction

def _fact_range(p: int, r: int) -> range:
    P = p ** r
    return range((P + 1) // 2, P)          # k = P - l, 0 < l < P/2


def _binrow_range(p: int, r: int) -> range:
    return range(1, (p ** r - 3) // 2 + 1)


def _rhs_zero(p, r):
    return Fraction(0)


_C: dict[str, CongruenceCase] = {}


def _add(case: CongruenceCase) -> None:
    if case.id in _C:
        raise ValueError(f"duplicate case id {case.id}")
    _C[case.id] = case


def _series(id, status, statement, m, rhs, name, upper, *, uses_r=True,
            uses_delta=False, p_integral=True, r_floor=1):
    _add(CongruenceCase(id=id, status=status, statement=statement, kind="series",
                        claimed_exponent=m, rhs=rhs, series_name=name, upper=upper,
                        uses_r=uses_r, uses_delta=uses_delta, p_integral=p_integral,
                        r_floor=r_floor, kernel=name or id))


def _scalar(id, status, statement, m, lhs, rhs, *, uses_r=True, p_integral=False,
            r_floor=1, kind="scalar", kernel=None):
    _add(CongruenceCase(id=id, status=status, statement=statement, kind=kind,
                        claimed_exponent=m, rhs=rhs, lhs_scalar=lhs,
                        uses_r=uses_r, p_integral=p_integral, r_floor=r_floor,
                        kernel=kernel))


def _row_scalar(id, statement, m, name, part, rhs, *, r_floor=1):
    """A lemma claiming p^m(p, r) for slice number part of _SUMS[name]."""
    _scalar(id, "lemma", statement, m, lambda p, r: _sums(name, p, r)[part], rhs,
            r_floor=r_floor, kernel=name)


def _family(id, statement, m, members, lhs, rhs, *, p_integral=True):
    def lucas(p, r, k):     # lhs mod p: c mod p times a digitwise product per factor
        c, *factors = lhs(p, r, k)
        return prod((_lucas(n, j, p) for n, j in factors), start=c % p) % p
    _add(CongruenceCase(id=id, status="fact-family", statement=statement,
                        kind="family", claimed_exponent=m, rhs=_rhs_zero,
                        members=members, member_lhs=lhs, member_rhs=rhs,
                        member_lucas=lucas if p_integral else None, p_integral=p_integral))


# --- truncated series -------------------------------------------------------

_series("VH-4K1", "known",
        "sum_{k=0}^{(p-1)/2} (4k+1) C(2k,k)^3/(-64)^k == (-1)^((p-1)/2) p  (mod p^3)",
        lambda p, r: 3, lambda p, r: Fraction(_sign_pr(p, 1) * p),
        "guo64", lambda p, r, d: (p - 1) // 2, uses_r=False)

_series("GUO-64", "theorem",
        "sum_{k=0}^{p^r-1} (4k+1) C(2k,k)^3/(-64)^k == (-1)^((p^r-1)/2) p^r  (mod p^(r+2))",
        lambda p, r: r + 2, lambda p, r: Fraction(_sign_pr(p, r) * p ** r),
        "guo64", lambda p, r, d: p ** r - 1)

_series("SUN-64-P4", "known",
        "sum_{k=0}^{p-1} (4k+1) C(2k,k)^3/(-64)^k == (-1)^((p-1)/2) p + p^3 E_(p-3)  (mod p^4)",
        lambda p, r: 4, lambda p, r: Fraction(_sign_pr(p, 1) * p + p ** 3 * euler_number(p - 3)),
        "guo64", lambda p, r, d: p - 1, uses_r=False)

_series("GZ-10N2", "theorem",
        "sum_{n=0}^{(p^r-1)/delta} (10n^2+6n+1)(-4)^n (1/2)_n^5/(1)_n^5 == p^(2r) "
        "(mod p^(r+4)) for r <= 4, == 0 (mod p^(r+4)) for r >= 5; delta in {1,2}",
        lambda p, r: r + 4,
        lambda p, r: Fraction(p ** (2 * r)) if r <= 4 else Fraction(0),
        "gz10n2", lambda p, r, d: (p ** r - 1) // d, uses_delta=True)

_series("CONJ-10N2", "conjecture",
        "sum_{n=0}^{(p^r-1)/delta} (10n^2+6n+1)(-4)^n (1/2)_n^5/(1)_n^5 == p^(2r)"
        "  (mod p^(2r+3)); delta in {1,2}",
        lambda p, r: 2 * r + 3, lambda p, r: Fraction(p ** (2 * r)),
        "gz10n2", lambda p, r, d: (p ** r - 1) // d, uses_delta=True)

_series("Z-20N3", "theorem",
        "sum_{n=0}^{p^r-1} (-1)^n (20n+3) (1/2)_n (1/2)_(2n) / ((1)_n^3 16^n) == "
        "3 (-1)^((p^r-1)/2) p^r  (mod p^(r+2))",
        lambda p, r: r + 2, lambda p, r: Fraction(3 * _sign_pr(p, r) * p ** r),
        "z20n3-signed", lambda p, r, d: p ** r - 1)

_series("Z-20N3-RAW", "informational",
        "sum_{n=0}^{p^r-1} (20n+3) (1/2)_n (1/2)_(2n) / ((1)_n^3 16^n) vs "
        "3 (-1)^((p^r-1)/2) p^r  (mod p^(r+2)): the unsigned variant, retained "
        "for the record; the congruence holds for the alternating series only",
        lambda p, r: r + 2, lambda p, r: Fraction(3 * _sign_pr(p, r) * p ** r),
        "z20n3-raw", lambda p, r, d: p ** r - 1)

_series("Z-120N2", "known",
        "sum_{n=0}^{p-1} (120n^2+34n+3) (1/2)_n^3 (1/2)_(2n) / ((1)_n^5 2^(6n)) == "
        "3p^2  (mod p^5)",
        lambda p, r: 5, lambda p, r: Fraction(3 * p * p),
        "z120n2", lambda p, r, d: p - 1, uses_r=False)

_series("GZ-120N2-R", "theorem",
        "sum_{n=0}^{(p^r-1)/delta} (120n^2+34n+3) (1/2)_n^3 (1/2)_(2n) / ((1)_n^5 2^(6n)) "
        "== 3p^(2r) (mod p^(r+4)) for r <= 4, == 0 for r >= 5; delta in {1,2}",
        lambda p, r: r + 4,
        lambda p, r: Fraction(3 * p ** (2 * r)) if r <= 4 else Fraction(0),
        "z120n2", lambda p, r, d: (p ** r - 1) // d, uses_delta=True)

_series("GL-R", "theorem",
        "sum_{k=0}^{p^r-1} (-1)^k (4k-1) (-1/2)_k^3/(1)_k^3 == -(-1)^((p^r-1)/2) p^r"
        "  (mod p^(r+2))",
        lambda p, r: r + 2, lambda p, r: Fraction(-_sign_pr(p, r) * p ** r),
        "glr", lambda p, r, d: p ** r - 1)

_series("GL-4K1-P4", "known",
        "sum_{k=0}^{(p+1)/2} (-1)^k (4k-1) (-1/2)_k^3/(1)_k^3 == "
        "-(-1)^((p-1)/2) p + p^3 (2 - E_(p-3))  (mod p^4)",
        lambda p, r: 4,
        lambda p, r: Fraction(-_sign_pr(p, 1) * p + p ** 3 * (2 - euler_number(p - 3))),
        "glr", lambda p, r, d: (p + 1) // 2, uses_r=False)

_series("MAO-I2", "theorem",
        "sum_{n=0}^{(p-1)/2} C(2n,n)^2 / ((n+1) 16^n) == 2p^2 + 2p^3 (2 q_p(2) - 1)"
        "  (mod p^4)",
        lambda p, r: 4,
        lambda p, r: Fraction(2 * p * p + 2 * p ** 3 * (2 * fermat_quotient(p) - 1)),
        "mao", lambda p, r, d: (p - 1) // 2, uses_r=False)

_series("SUN-CAT", "known",
        "sum_{k=0}^{(p-3)/2} C(2k,k) / ((2k+1) 4^k) == -(-1)^((p-1)/2) q_p(2)  (mod p^2)",
        lambda p, r: 2, lambda p, r: Fraction(-_sign_pr(p, 1) * fermat_quotient(p)),
        "suncat", lambda p, r, d: (p - 3) // 2, uses_r=False)

_series("H-HALF", "known",
        "H_((p-1)/2) == -2 q_p(2)  (mod p)",
        lambda p, r: 1, lambda p, r: Fraction(-2 * fermat_quotient(p)),
        "h1", lambda p, r, d: (p - 1) // 2, uses_r=False)

_series("WOLST-H1", "known",
        "H_(p-1) == 0  (mod p^2)",
        lambda p, r: 2, _rhs_zero, "h1", lambda p, r, d: p - 1, uses_r=False)

_series("WOLST-H2", "known",
        "H_(p-1)^(2) == 0  (mod p)",
        lambda p, r: 1, _rhs_zero, "h2", lambda p, r, d: p - 1, uses_r=False)

_series("LEM-2.1", "lemma",
        "sum_{n=0}^{(p^r-1)/delta} F(n,(p^r-1)/2) == p^(2r)  (mod p^(2r+3)), where "
        "F(n,k) = (10n^2+12nk+6n+4k^2+4k+1) (1/2)_n (1/2+k)_n^4/(1)_n^5 (-4)^n; "
        "delta in {1,2}",
        lambda p, r: 2 * r + 3, lambda p, r: Fraction(p ** (2 * r)),
        None, lambda p, r, d: (p ** r - 1) // d, uses_delta=True, p_integral=False)

# --- scalar closed forms ----------------------------------------------------

_scalar("WOLST-BIN", "known",
        "C(2p-1,p-1) == 1  (mod p^3)",
        lambda p, r: 3, lambda p, r: Fraction(binomial(2 * p - 1, p - 1)),
        lambda p, r: Fraction(1), uses_r=False, p_integral=True)

_scalar("MAO-I2-IDENT", "theorem",
        "sum_{n=0}^{(p-1)/2} C(2n,n)^2 / ((n+1) 16^n) = C(-3/2,(p-1)/2)^2 / ((p+1)/2)"
        "  (exact rational identity)",
        None,
        lambda p, r: Fraction(_series_exact("mao", (p - 1) // 2)),
        lambda p, r: binomial_rat(Fraction(-3, 2), (p - 1) // 2) ** 2 / Fraction((p + 1) // 2),
        uses_r=False, kind="identity", kernel="mao")

_row_scalar("LEM-2.2",
            "sum_{k=1}^{(p^r-1)/2} G((p^r+1)/2, k) == 0  (mod p^(r+4)), where "
            "G(n,k) = (n+2k-1) (1/2)_n (1/2+k)_(n-1)^4/(1)_(n-1)^5 (-1)^n 2^(2n+1)",
            lambda p, r: r + 4, "GZ10N2-half", 0, _rhs_zero)

_row_scalar("LEM-2.3",
            "sum_{k=1}^{(p^r-1)/2} G(p^r, k) == 0  (mod p^(r+4)), same G as LEM-2.2",
            lambda p, r: r + 4, "GZ10N2", 0, _rhs_zero)

_scalar("LEM-3.1", "lemma",
        "F(p^r-1, p^r-1) == 0  (mod p^(r+2)) for the (4n+1)-series pair; "
        "stated for r >= 2",
        lambda p, r: r + 2,
        lambda p, r: wz.eval_F("GUO64", p ** r - 1, p ** r - 1), _rhs_zero, r_floor=2)

_row_scalar("LEM-3.2",
            "sum_{k=1}^{(p^r-1)/2} G(p^r,k) == 0  (mod p^(r+2)) for the (4n+1)-series pair",
            lambda p, r: r + 2, "GUO64", 0, _rhs_zero)

_row_scalar("LEM-3.3",
            "G(p^r,(p^r+1)/2) == (-1)^((p^r-1)/2) p^r (1 - 3 p q_p(2))  (mod p^(r+2)) "
            "for the (4n+1)-series pair",
            lambda p, r: r + 2, "GUO64", 1,
            lambda p, r: Fraction(_sign_pr(p, r) * p ** r * (1 - 3 * p * fermat_quotient(p))))

_row_scalar("LEM-3.5",
            "sum_{k=(p^r+3)/2}^{p^r-1} G(p^r,k) == (-1)^((p^r-1)/2) 3 p^(r+1) q_p(2) "
            " (mod p^(r+2)) for the (4n+1)-series pair; stated for r >= 2",
            lambda p, r: r + 2, "GUO64", 2,
            lambda p, r: Fraction(_sign_pr(p, r) * 3 * p ** (r + 1) * fermat_quotient(p)),
            r_floor=2)

_scalar("LEM-4.1", "lemma",
        "F(p^r-1, p^r-1) == 0  (mod p^(r+2)) for the (4n-1)-series pair; "
        "stated for r >= 2",
        lambda p, r: r + 2,
        lambda p, r: wz.eval_F("GL4K1", p ** r - 1, p ** r - 1), _rhs_zero, r_floor=2)

_row_scalar("LEM-4.2",
            "sum_{k=1}^{(p^r-1)/2} theta(k) == 0  (mod p^(r+2)), where theta(k) = "
            "-p^(3r) C(2p^r-1,p^r-1)^2 / ((2p^r-1) 4^(3p^r-3)) * (-4)^k/C(2k,k) * "
            "C(-2p^r-1,2k-2)/(k(2k-1)) * C(2p^r-2,p^r-k-1)",
            lambda p, r: r + 2, "theta", 0, _rhs_zero)

_row_scalar("LEM-4.3",
            "theta((p^r+1)/2) == -(-1)^((p^r-1)/2) p^r (1 - 3 p q_p(2))  (mod p^(r+2)); "
            "stated for r >= 2 (theta as in LEM-4.2)",
            lambda p, r: r + 2, "theta", 1,
            lambda p, r: Fraction(-_sign_pr(p, r) * p ** r * (1 - 3 * p * fermat_quotient(p))),
            r_floor=2)

_row_scalar("LEM-4.4",
            "sum_{k=(p^r+3)/2}^{p^r-1} theta(k) == -(-1)^((p^r-1)/2) 3 p^(r+1) q_p(2) "
            " (mod p^(r+2)); stated for r >= 2 (theta as in LEM-4.2)",
            lambda p, r: r + 2, "theta", 2,
            lambda p, r: Fraction(-_sign_pr(p, r) * 3 * p ** (r + 1) * fermat_quotient(p)),
            r_floor=2)

_scalar("LEM-5.1", "lemma",
        "F(p^r-1, p^r-1) == 0  (mod p^(r+2)) for the (20n+3)-series pair; "
        "stated for r >= 2",
        lambda p, r: r + 2,
        lambda p, r: wz.eval_F("Z20N3", p ** r - 1, p ** r - 1), _rhs_zero, r_floor=2)

_row_scalar("LEM-5.2",
            "sum_{k=1}^{(p^r-1)/2} G(p^r,k) == 0  (mod p^(r+2)) for the (20n+3)-series pair",
            lambda p, r: r + 2, "Z20N3", 0, _rhs_zero)

_row_scalar("LEM-5.3",
            "G(p^r,(p^r+1)/2) == 3 (-1)^((p^r-1)/2) p^r (1 - 5 p q_p(2))  (mod p^(r+2)) "
            "for the (20n+3)-series pair",
            lambda p, r: r + 2, "Z20N3", 1,
            lambda p, r: Fraction(3 * _sign_pr(p, r) * p ** r * (1 - 5 * p * fermat_quotient(p))))

_row_scalar("LEM-5.4",
            "sum_{k=(p^r+3)/2}^{p^r-1} G(p^r,k) == 15 (-1)^((p^r-1)/2) p^(r+1) q_p(2) "
            " (mod p^(r+2)) for the (20n+3)-series pair; stated for r >= 2",
            lambda p, r: r + 2, "Z20N3", 2,
            lambda p, r: Fraction(15 * _sign_pr(p, r) * p ** (r + 1) * fermat_quotient(p)),
            r_floor=2)

_scalar("BIN-3.4", "known",
        "C(p^r-1,(p^r-1)/2) == (-1)^((p^r-1)/2) 4^(p^r-1)  (mod p^3)",
        lambda p, r: 3,
        lambda p, r: Fraction(binomial(p ** r - 1, (p ** r - 1) // 2)),
        lambda p, r: Fraction(_sign_pr(p, r) * 4 ** (p ** r - 1)), p_integral=True)

_scalar("BIN-3.5", "known",
        "C(3p^r-1,p^r) == 2 (1 - 3 p^r H_(p^r-1))  (mod p^2)",
        lambda p, r: 2,
        lambda p, r: Fraction(binomial(3 * p ** r - 1, p ** r)),
        lambda p, r: 2 * (1 - 3 * p ** r * harmonic(p ** r - 1)), p_integral=True)

_scalar("BIN-3.6", "known",
        "C(2p^r-1,p^r-1) == 1  (mod p^2)",
        lambda p, r: 2,
        lambda p, r: Fraction(binomial(2 * p ** r - 1, p ** r - 1)),
        lambda p, r: Fraction(1), p_integral=True)

_scalar("BIN-3.7", "known",
        "C(2p^r-1,(p^r-1)/2) == (-1)^((p^r-1)/2) (1 - 2 p H_((p-1)/2))  (mod p^2)",
        lambda p, r: 2,
        lambda p, r: Fraction(binomial(2 * p ** r - 1, (p ** r - 1) // 2)),
        lambda p, r: _sign_pr(p, r) * (1 - 2 * p * harmonic((p - 1) // 2)),
        p_integral=True)

# --- k-indexed fact families: lhs and rhs are descriptions (see _stepped) ----

_family("FACT-2LL",
        "l C(2l,l) C(2k,k) == -2 p^r  (mod p^(r+1)) for k + l = p^r, 0 < l < p^r/2",
        lambda p, r: r + 1, _fact_range,
        lambda p, r, k: (p ** r - k, (2 * (p ** r - k), p ** r - k), (2 * k, k)),
        lambda p, r, k: (-2 * p ** r,))

_family("FACT-2KK",
        "C(2k,k) == 0  (mod p) for k + l = p^r, 0 < l < p^r/2",
        lambda p, r: 1, _fact_range, lambda p, r, k: (1, (2 * k, k)), lambda p, r, k: (0,))

_family("FACT-INV",
        "-2 p^r / (l C(2l,l)) == C(2k,k)  (mod p^2) for k + l = p^r, 0 < l < p^r/2",
        lambda p, r: 2, _fact_range,      # l = C(l, 1)
        lambda p, r, k: (-2 * p ** r, (p ** r - k, 1, -1), (2 * (p ** r - k), p ** r - k, -1)),
        lambda p, r, k: (1, (2 * k, k)), p_integral=False)

_family("DAO-HB",
        "-2 p^r / C(2k,k) == (p^r-k) C(2p^r-2k,p^r-k)  (mod p) for k + l = p^r, "
        "0 < l < p^r/2",
        lambda p, r: 1, _fact_range, lambda p, r, k: (-2 * p ** r, (2 * k, k, -1)),
        lambda p, r, k: (p ** r - k, (2 * p ** r - 2 * k, p ** r - k)), p_integral=False)

_family("BIN-3.9",
        "C(2p^r-1,k) == (-1)^k  (mod p) for 1 <= k <= (p^r-3)/2",
        lambda p, r: 1, _binrow_range,
        lambda p, r, k: (1, (2 * p ** r - 1, k)), lambda p, r, k: ((-1) ** k,))

# BIN-3.10 and BIN-5.6 reflect: C(-aP-1, j) = C(aP+j, j) for even j = 2P-2k-2
_family("BIN-3.10",
        "C(-2p^r-1,2p^r-2k-2) == 3  (mod p) for 1 <= k <= (p^r-3)/2",
        lambda p, r: 1, _binrow_range,
        lambda p, r, k: (1, (4 * p ** r - 2 * k - 2, 2 * p ** r - 2 * k - 2)),
        lambda p, r, k: (3,))

_family("BIN-3.11",
        "C(2j q - q - 1, j q - (q+1)/2) == (-1)^((q-1)/2) C(2j-2,j-1)  (mod p) "
        "for q = p^(r-1), 1 <= j <= (p-1)/2",
        lambda p, r: 1, lambda p, r: range(1, (p - 1) // 2 + 1),
        lambda p, r, j: (1, (2 * j * p ** (r - 1) - p ** (r - 1) - 1,
                             j * p ** (r - 1) - (p ** (r - 1) + 1) // 2)),
        lambda p, r, j: ((-1) ** ((p ** (r - 1) - 1) // 2), (2 * j - 2, j - 1)))

_family("BIN-5.5",
        "C(3p^r-1,k) == (-1)^k  (mod p) for 1 <= k <= (p^r-3)/2",
        lambda p, r: 1, _binrow_range,
        lambda p, r, k: (1, (3 * p ** r - 1, k)), lambda p, r, k: ((-1) ** k,))

_family("BIN-5.6",
        "C(-4p^r-1,2p^r-2k-2) == 5  (mod p) for 1 <= k <= (p^r-3)/2",
        lambda p, r: 1, _binrow_range,
        lambda p, r, k: (1, (6 * p ** r - 2 * k - 2, 2 * p ** r - 2 * k - 2)),
        lambda p, r, k: (5,))

CATALOG: dict[str, CongruenceCase] = dict(sorted(_C.items()))


# --------------------------------------------------------------------------
# evaluation

def get_case(case) -> CongruenceCase:
    if isinstance(case, CongruenceCase):
        return case
    try:
        return CATALOG[case]
    except KeyError:
        raise UnknownCase(f"unknown case id {case!r}; see list_cases()") from None


def list_cases(status: Optional[str] = None, glob: Optional[str] = None
               ) -> list[CongruenceCase]:
    if status is not None and status not in STATUSES:
        raise ValueError(f"unknown status {status!r}; known: {', '.join(STATUSES)}")
    out = []
    for cid in sorted(CATALOG):
        case = CATALOG[cid]
        if status is not None and case.status != status:
            continue
        if glob is not None and not fnmatch(cid, glob):
            continue
        out.append(case)
    return out


def _check_point(case: CongruenceCase, params: CheckParams, include_p3: bool) -> None:
    if params.p < P_FLOOR and not (params.p == 3 and include_p3):
        raise PrimeBelowFloor(
            f"{case.id} needs p >= {P_FLOOR} (got p = {params.p}); "
            "p = 3 runs require the include-p3 override and are informational")
    if not case.uses_r and params.r != 1:
        raise ValueError(f"{case.id} has no exponent r in its statement; use r = 1")
    if not case.uses_delta and params.delta is not None:
        raise ValueError(f"{case.id} takes no delta")
    if case.kind != "family" and params.k is not None:
        raise ValueError(f"{case.id} takes no member index k")
    if case.kind != "series" and params.upper_override is not None:
        raise ValueError(f"{case.id} takes no summation cap")


def _series_upper(case: CongruenceCase, params: CheckParams) -> int:
    if params.upper_override is not None:
        return params.upper_override
    return case.upper(params.p, params.r, params.delta or 1)


def _require_residue(case: CongruenceCase) -> None:
    """Refuse the residue backend for a case it does not take, saying why."""
    if case.kind == "identity":
        raise BackendIneligible(f"{case.id} is an exact identity; residue "
                                "reduction cannot certify equality")
    if not case.p_integral:
        why = ("has p-power denominators" if case.kind in ("series", "family") else
               "has no residue path: its residue would only be its exact value reduced")
        raise BackendIneligible(f"{case.id} {why}; use the exact backend")


def series_sum_exact(case, params: CheckParams) -> Rational:
    """Exact value of a series case's truncated sum: a SERIES spec's from the
    cached kernel, and LEM-2.1's (series_name None) from _sums, whose pass
    per (p, r) serves both windows; a LEM-2.1 sum capped by upper_override
    is one uncached slice of the same _SUMS entry."""
    case = get_case(case)
    if case.kind != "series":
        raise ValueError(f"{case.id} is not a series case")
    if case.series_name is None:
        if params.upper_override is not None:
            t0, step, lo, _, poly = _SUMS[case.kernel](params.p, params.r)
            return next(_ratio_slices(t0, step, lo, (params.upper_override,), poly))
        windows = _sums(case.kernel, params.p, params.r)
        return windows[0] if params.delta == 2 else windows[0] + windows[1]
    return _series_exact(case.series_name, _series_upper(case, params))


def series_sum_residue(case, params: CheckParams, ctx: PadicContext) -> int:
    """Termwise residue of a series case's truncated sum in Z/p^m."""
    case = get_case(case)
    if case.kind != "series":
        raise ValueError(f"{case.id} is not a series case")
    _require_residue(case)
    try:
        return _series_residue(case.series_name, _series_upper(case, params), ctx.p, ctx.m)
    except BackendIneligible as e:
        raise BackendIneligible(f"{case.id}: {e}; use the exact backend") from None


def _walk(v: int, n0: int, m0: int, n: int, m: int) -> int:
    """C(n, m) from v = C(n0, m0), 0 <= m0 <= n0 and 0 <= m <= n, by unit term
    ratios, each an exact integer division.  C(a+b, a) is symmetric in a = m and
    b = n - m; stepping a, then b, keeps both >= 0, so no step passes a zero."""
    for a, b, a1 in ((m0, n0 - m0, m), (n0 - m0, m, n - m)):
        while a < a1:
            v, a = v * (a + b + 1) // (a + 1), a + 1
        while a > a1:
            v, a = v * a // (a + b), a - 1
    return v


Member = Union[int, tuple[int, int]]


def _stepped(desc: Callable[[int, int, int], tuple], p: int, r: int,
             keys: list[int]) -> list[Member]:
    """Values at consecutive members keys of a family description desc(p, r, k)
    = (c, (n1, m1), (n2, m2), ...), meaning c C(n1, m1) C(n2, m2) ... for an
    integer c, where a factor (n, m, -1) divides.  Each factor is binomial at
    keys[0], then _walk.  A member is a plain int when no factor divides, and
    otherwise the integer pair (numerator, denominator), denominator > 0 and
    not reduced: no member pays for a Fraction or a gcd."""
    out, at = [], None
    for k in keys:
        c, *factors = desc(p, r, k)
        at = at or [(f, binomial(f[0], f[1])) for f in factors]  # the first member
        at = [(f, _walk(v, f0[0], f0[1], f[0], f[1])) for (f0, v), f in zip(at, factors)]
        num = prod((v for f, v in at if len(f) == 2), start=c)
        den = [v for f, v in at if len(f) == 3]
        out.append((num, prod(den)) if den else num)
    return out


def _family_members(case: CongruenceCase, params: CheckParams
                    ) -> list[tuple[int, Member, Member]]:
    p, r = params.p, params.r
    rng = case.members(p, r)
    if params.k is not None and params.k not in rng:
        raise ValueError(
            f"{case.id}: member index {params.k} outside admissible range "
            f"[{rng.start}, {rng.stop - 1}] at p={p}, r={r}")
    keys = list(rng) if params.k is None else [params.k]
    return list(zip(keys, _stepped(case.member_lhs, p, r, keys),
                    _stepped(case.member_rhs, p, r, keys)))


def _point_items(case: CongruenceCase, params: CheckParams
                 ) -> list[tuple[Optional[int], Union[Rational, Member], Union[Rational, Member]]]:
    """Exact (k, lhs, rhs) items of a point: one per family member, as
    _stepped gives it, and a single item with k = None and Fraction values
    for every other kind."""
    if case.kind == "family":
        return _family_members(case, params)
    p, r = params.p, params.r
    lhs = series_sum_exact(case, params) if case.kind == "series" else case.lhs_scalar(p, r)
    return [(None, lhs, case.rhs(p, r))]


def _num_den(x: Union[Rational, Member]) -> tuple[int, int]:
    """An exact item's value as (numerator, denominator), not reduced."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, tuple):
        return x
    return x.numerator, x.denominator


def _score(items: list, p: int, m: Optional[int], single: bool):
    """(lhs, rhs, valuation, note) of the first item of least valuation.

    Exact items (m None) are Fractions, ints or (numerator, denominator)
    pairs (see _stepped).  Each is scored in integers, as vp(a d - c b) -
    vp(b d) for lhs a / b and rhs c / d, and only the reported item becomes
    a Fraction.  Residue items are ints, scored by the valuation of their
    difference in Z/p^m, saturated at m (a difference of 0 mod p^m has
    valuation at least m).  p is the point's odd prime, checked once by
    CheckParams, so no item pays a prime check.  The note names a family's
    worst member, or the one member asked for when single."""
    if not items:
        if m is None:
            return Fraction(0), Fraction(0), INFINITE, "empty member range"
        return 0, 0, m, "empty member range"
    mod = None if m is None else p ** m
    worst = None
    for k, lhs, rhs in items:
        if mod is None:
            (a, b), (c, d) = _num_den(lhs), _num_den(rhs)
            obs = _vp_int(a * d - c * b, p)
            if obs is not INFINITE and b * d > 1:
                obs -= _vp_int(b * d, p)
        else:
            obs = min(_vp_int((lhs - rhs) % mod, p), m)
        if worst is None or obs < worst[3]:
            worst = (k, lhs, rhs, obs)
    k, lhs, rhs, observed = worst
    if mod is None:     # a series sum or scalar is a Fraction already: no second gcd
        lhs, rhs = (x if isinstance(x, Fraction) else Fraction(*_num_den(x)) for x in (lhs, rhs))
    note = "" if k is None else f"k={k}" if single else \
        f"worst member k={k} of {len(items)}"
    return lhs, rhs, observed, note


def _cross_check(case: CongruenceCase, params: CheckParams, items: list,
                 ctx: PadicContext) -> None:
    """Check each exact value of a point that has an independent modular path:
    a series sum against the termwise residue kernel mod p^m, and every member
    of a family against its digitwise Lucas product mod p.  The members of a
    p-integral family are ints (see _stepped), so each is reduced by one % p.
    A scalar's residue is its exact value reduced, so scalars and identities
    have nothing to check.  Raises BackendDisagreement naming the case, point
    and member."""
    if case.kind == "series":
        # the kernel runs first: it refuses a p in a denominator by name, where
        # reducing the exact sum would fail with PNotIntegral
        kernel = series_sum_residue(case, params, ctx)
        exact = residue(items[0][1], ctx)
        if exact != kernel:
            raise BackendDisagreement(
                f"{case.id}: exact and residue backends disagree at {params} "
                f"mod {ctx.p}^{ctx.m}: the sum reduces to {exact} on the exact "
                f"backend, {kernel} on the termwise residue kernel")
    elif case.kind == "family":
        for k, lhs, _ in items:
            exact, lucas = lhs % ctx.p, case.member_lucas(params.p, params.r, k)
            if exact != lucas:
                raise BackendDisagreement(
                    f"{case.id}: exact and digitwise values disagree at {params}, "
                    f"member k={k}: lhs reduces to {exact} mod {ctx.p} on the "
                    f"exact backend, {lucas} by Lucas' theorem")


def evaluate_case(case, params: CheckParams, backend: str = "exact", *,
                  include_p3: bool = False) -> CheckResult:
    """Compute LHS and RHS at the given point and score the congruence.

    backend "both" runs the exact path, cross-checks it against the
    independent modular paths when the case is p-integral (see
    _cross_check), and reports the exact values.
    """
    case = get_case(case)
    if backend not in ("exact", "residue", "both"):
        raise ValueError(f"backend must be exact, residue, or both, got {backend!r}")
    _check_point(case, params, include_p3)
    t0 = time.perf_counter()
    p, claimed = params.p, case.claimed(params.p, params.r)
    note = ""
    informational = (case.status in ("conjecture", "informational")
                     or p == 3 or params.r < case.r_floor)
    if p == 3:
        note = "p = 3 is below the default floor; result is informational"
    elif params.r < case.r_floor:
        note = f"statement hypotheses need r >= {case.r_floor}; r = {params.r} is informational"

    m = None
    if backend == "residue":
        _require_residue(case)
        ctx, m = PadicContext(p, claimed), claimed
        if case.kind == "series":
            items = [(None, series_sum_residue(case, params, ctx),
                      residue(case.rhs(p, params.r), ctx))]
        else:
            items = [(k, residue(lhs, ctx), residue(rhs, ctx))
                     for k, lhs, rhs in _point_items(case, params)]
    else:
        items = _point_items(case, params)
        if backend == "both" and case.p_integral and claimed is not None:
            _cross_check(case, params, items, PadicContext(p, claimed))
    lhs, rhs, observed, member_note = _score(items, p, m, params.k is not None)
    if member_note:
        note = f"{member_note}; {note}" if note else member_note

    elapsed = (time.perf_counter() - t0) * 1000.0
    return CheckResult(case_id=case.id, params=params, lhs=lhs, rhs=rhs,
                       observed_valuation=observed, claimed_exponent=claimed,
                       passed=_passes(observed, claimed), backend=backend,
                       elapsed_ms=elapsed, status=case.status,
                       informational=informational, note=note)


def _passes(observed: Valuation, claimed: Optional[int]) -> bool:
    if claimed is None:
        return observed is INFINITE
    return observed >= claimed


def cross_validate(case, params: CheckParams, ctx: PadicContext) -> bool:
    """Run the cross-check of backend "both" (_cross_check) on one point;
    False when it finds a disagreement.  Raises BackendIneligible, with its
    reason, for every case the residue backend refuses (see _require_residue)."""
    case = get_case(case)
    _require_residue(case)
    try:
        _cross_check(case, params, _point_items(case, params), ctx)
    except BackendDisagreement:
        return False
    return True
