"""Catalog of verifiable congruences: truncated series, binomial facts, and
certificate-row sums, each scored by the p-adic valuation of LHS - RHS.

Case kinds:
  series   -- a truncated sum described by a SeriesSpec (exact sum by binary
              splitting, plus a residue path in Z/p^m that steps
              (valuation, unit) pairs when the terms are p-integral)
  scalar   -- a single closed-form quantity
  family   -- a k-indexed batch of scalar congruences, aggregated by the
              minimum observed valuation over all members
  identity -- an exact rational equality (pass iff LHS equals RHS)

Family members, binomial scalars, WZ cells and the terms of every sum are
binomial products, read by combinat.binomial_product and, digitwise for
backend "both", lucas_product; each sum's step is derived from them (_derive).
Family members, and binomial scalars on backend "residue", are read as
(valuation, unit) pairs from one combinat.Factorials table (_factorials);
only the member a record reports is built exact.

Backend "both" checks each value where it is computed: a series sum against
the termwise residue kernel mod p^m, and the left side of a binomial scalar
or of every member of a family, when it divides by no binomial, mod p
against the Lucas product of its description (_check_lucas).

Statuses: theorem / known / lemma / fact-family / conjecture / informational.
Conjecture and informational cases report honestly but are flagged so sweep
exit codes can ignore them; the same flag is applied to p = 3 evaluations and
to r = 1 evaluations of statements whose hypotheses require r >= 2.
"""
from __future__ import annotations

import numbers
import time
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from fnmatch import fnmatch
from functools import lru_cache, partial
from itertools import chain, count, islice
from math import gcd, lcm

from .combinat import (Factorials, binomial_product, euler_number, fermat_quotient,
                       lucas_product)
from .combinat import binomial, central_binomial  # noqa: F401  (perfbench/tracer.py wraps them)
from .exactnum import (INFINITE, Rational, Valuation, _vp_int, is_prime,
                       residue)
from .exactnum import vp  # noqa: F401  (unused here; perfbench/tracer.py wraps congruences.vp)
from . import wz

P_FLOOR = 5

STATUSES = ("theorem", "known", "lemma", "fact-family", "conjecture",
            "informational")
BACKENDS = ("exact", "residue", "both")


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


class CheckParams(namedtuple("CheckParams", "p r delta k upper_override",
                             defaults=(1, None, None, None))):
    """Evaluation point: prime p, exponent r, optional delta / member / cap."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.delta is not None and self.delta not in (1, 2):
            raise ValueError(f"delta must be 1 or 2, got {self.delta}")
        if self.upper_override is not None and self.upper_override < 0:
            raise ValueError("upper_override must be >= 0")
        return self

    @classmethod
    def _make(cls, values):             # so that _replace validates too
        return cls(*values)


class CongruenceCase(namedtuple("CongruenceCase", (
        "id status statement"
        " kind"                 # series | scalar | family | identity
        " claimed_exponent"     # None, or (p, r) -> int
        " rhs"                  # (p, r) -> Rational
        # the fields from here on have defaults
        " upper"        # (p, r, delta) -> the last index the case reads of its kernel (a cap)
        " lhs_scalar"           # scalar / identity: (p, r) -> Rational
        # family, binomial products: (p, r) -> range, and (p, r, k) -> a
        # description; a binomial scalar's left side is member_lhs at k = None
        " members member_lhs member_rhs"
        " uses_r uses_delta r_floor"
        # the cached kernel the case reads (a series spec, a _SUMS entry);
        # cases naming the same one share its work at a (p, r)
        " kernel"), defaults=(None, None, None, None, None, True, False, 1, None))):
    """A catalog entry: a statement, its claimed exponent and how to evaluate it."""

    __slots__ = ()

    def claimed(self, p: int, r: int) -> int | None:
        return None if self.claimed_exponent is None else self.claimed_exponent(p, r)


class CheckResult(namedtuple("CheckResult", (
        "case_id params lhs rhs observed_valuation claimed_exponent passed backend"
        " elapsed_ms status informational note"), defaults=(0.0, "", False, ""))):
    """One evaluated point; lhs and rhs are Rationals, or ints mod p^m on backend residue."""

    __slots__ = ()


# --------------------------------------------------------------------------
# term descriptions: every sum, a series spec or a certificate sum, adds the
# binomial products (c, e, *factors) of a description k -> desc(k) whose c is
# a declared polynomial poly(k) times a geometric factor.  _derive turns one
# into the seed and step of its _Pass, whose step pairs the residue kernel
# reads or, with no pass that reaches its cap, steps itself.


def _poly(coeffs: tuple[int, ...], k: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def _derive(name: str, desc: Callable[[int], tuple], poly: tuple[int, ...], lo: int
            ) -> tuple[tuple[int, int], Callable]:
    """(seed, step) of the sum of t_k = binomial_product(*desc(k)), k >= lo,
    as _Pass reads it, t_k = t0 poly(k) u_k: t0 = t_lo / poly(lo)
    as an unreduced integer pair, and a pure step(k) = u_(k+1) / u_k in
    integers.  desc is read at lo .. lo + 2 only, and ValueError names the
    sum unless there its factor layout holds, e and every binomial argument
    are linear in k and c / poly(k) is geometric.  The step is their
    difference (A = B, ch. 7): an argument x moving by d gives the linear
    forms of Gamma(x + d + 1) / Gamma(x + 1), made primitive so that equal
    forms cancel, to the power j for the n of C(n, m)^j and -j for its m and
    n - m; times the geometric ratio and 2^(e(k+1) - e(k)).  A linear factor
    x below the line is C(x, 1)^-1, so it is one of those forms too."""
    rows = [desc(k) for k in (lo, lo + 1, lo + 2)]
    where = f"over k = {lo} .. {lo + 2}"
    if len({tuple(f[2] for f in row[2:]) for row in rows}) > 1:
        raise ValueError(f"{name}: the factor layout of its description changes {where}")
    columns = zip(*((row[1], *(x for n, m, _ in row[2:] for x in (n, m))) for row in rows))
    if any(x1 - x0 != x2 - x1 for x0, x1, x2 in columns):
        raise ValueError(f"{name}: e or a binomial argument is not linear in k {where}")
    c0, c1, c2 = (row[0] for row in rows)
    q0, q1, q2 = (_poly(poly, k) for k in range(lo, lo + 3))
    if not c0 * c1 * q0 * q1 * q2 or c1 * c1 * q0 * q2 != c0 * c2 * q1 * q1:
        raise ValueError(f"{name}: c / poly(k) of its description is not geometric {where}")
    e = rows[1][1] - rows[0][1]
    a, b = c1 * q0 << max(e, 0), c0 * q1 << max(-e, 0)
    forms: dict[tuple[int, int], int] = {}      # (u, w) -> power of u + w k
    for (n, m, j), (n1, m1, _) in zip(rows[0][2:], rows[1][2:]):
        for x, d, power in ((n, n1 - n, j), (m, m1 - m, -j), (n - m, n1 - m1 - n + m, -j)):
            if d < 0:
                power = -power
            for i in (range(1, d + 1) if d > 0 else range(0, d, -1)):
                u = x - d * lo + i                      # x(k) + i = u + d k
                g = gcd(u, d) if d > 0 else -gcd(u, d)
                a, b = (a * g ** power, b) if power > 0 else (a, b * g ** -power)
                form = u // g, d // g
                forms[form] = forms.get(form, 0) + power
    g = gcd(a, b) if b > 0 else -gcd(a, b)
    a, b = a // g, b // g
    up = [(u, w, j) for (u, w), j in forms.items() if j > 0]
    down = [(u, w, -j) for (u, w), j in forms.items() if j < 0]

    def step(k: int) -> tuple[int, int]:
        x, y = a, b
        for u, w, j in up:
            x *= (u + w * k) ** j
        for u, w, j in down:
            y *= (u + w * k) ** j
        return x, y
    num, dn = binomial_product(*rows[0])
    return (num, dn * q0), step


@lru_cache(maxsize=None)
def _spec_step(name: str) -> tuple[tuple[int, int], Callable]:
    """A spec's (seed, step) (_derive), which depend on neither p nor the
    cap: one derivation per spec and process, for both kernels."""
    spec = SERIES[name]
    return _derive(name, spec.desc, spec.poly, spec.start)


# a plain class: a spec needs no equality or immutability, and a namedtuple
# subclass takes about nine times as long to define (0.05 ms, 2-vCPU host)
class SeriesSpec:
    """t_k = binomial_product(*desc(k)) for k = start .. upper, where desc(k)
    = (c, e, *factors) has e and every binomial argument linear in k and c =
    poly(k) times (-1)^k or 1; a linear factor x below the line is the
    factor (x, 1, -1), C(x, 1)^-1.  poly is a coefficient tuple, constant
    term first.  Both kernels step it by _derive's step."""

    def __init__(self, desc: Callable[[int], tuple], poly: tuple[int, ...], start: int = 0):
        self.desc, self.poly, self.start = desc, poly, start

    def terms(self, upper: int) -> Iterator[Rational]:
        """The sum's terms one by one as Fractions: the reference the kernels
        are tested against."""
        for k in range(self.start, upper + 1):
            yield Fraction(*binomial_product(*self.desc(k)))


SERIES: dict[str, SeriesSpec] = {
    # (4k+1) C(2k,k)^3 / (-64)^k
    "guo64": SeriesSpec(lambda k: ((-1) ** k * (4 * k + 1), -6 * k, (2 * k, k, 3)), (1, 4)),
    # (10n^2+6n+1) (-4)^n (1/2)_n^5/(1)_n^5 = (10n^2+6n+1)(-1)^n C(2n,n)^5/2^(8n)
    "gz10n2": SeriesSpec(lambda k: ((-1) ** k * (10 * k * k + 6 * k + 1), -8 * k,
                                    (2 * k, k, 5)), (1, 6, 10)),
    # (-1)^n (20n+3) (1/2)_n (1/2)_(2n) / ((1)_n^3 16^n), and its unsigned variant
    "z20n3-signed": SeriesSpec(lambda k: ((-1) ** k * (20 * k + 3), -10 * k, (2 * k, k, 2),
                                          (4 * k, 2 * k, 1)), (3, 20)),
    "z20n3-raw": SeriesSpec(lambda k: (20 * k + 3, -10 * k, (2 * k, k, 2), (4 * k, 2 * k, 1)),
                            (3, 20)),
    # (120n^2+34n+3) (1/2)_n^3 (1/2)_(2n) / ((1)_n^5 2^(6n))
    #   = (120n^2+34n+3) C(2n,n)^4 C(4n,2n) / 2^(16n)
    "z120n2": SeriesSpec(lambda k: (120 * k * k + 34 * k + 3, -16 * k, (2 * k, k, 4),
                                    (4 * k, 2 * k, 1)), (3, 34, 120)),
    # (-1)^k (4k-1) (-1/2)_k^3/(1)_k^3 = (-1)^k (1-4k) x_k^3/64^k: the minus sign
    # of (-1/2)_k/(1)_k = -x_k/4^k is in the polynomial, and x_k = C(2k,k)/(2k-1)
    # is -1 at k = 0 and 2 C(2k-2,k-1)/k (Catalan) after
    "glr": SeriesSpec(lambda k: ((-1) ** k * (1 - 4 * k), -6 * k, (2 * k, k, 3),
                                 (2 * k - 1, 1, -3)), (1, -4)),
    # C(2n,n)^2 / ((n+1) 16^n)
    "mao": SeriesSpec(lambda k: (1, -4 * k, (2 * k, k, 2), (k + 1, 1, -1)), (1,)),
    # C(2k,k) / ((2k+1) 4^k)
    "suncat": SeriesSpec(lambda k: (1, -2 * k, (2 * k, k, 1), (2 * k + 1, 1, -1)), (1,)),
    # 1/k and 1/k^2
    "h1": SeriesSpec(lambda k: (1, 0, (k, 1, -1)), (1,), start=1),
    "h2": SeriesSpec(lambda k: (1, 0, (k, 1, -2)), (1,), start=1),
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


@numbers.Rational.register
class _Lowest:
    """n / d with n and d coprime and d > 0.  A numbers.Rational keeps its
    numerator and denominator in lowest terms, so Fraction(_Lowest(n, d))
    takes them as they are, with no gcd; it equals n / d either way."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, n: int, d: int):
        self.numerator, self.denominator = n, d


def _over_power_of_two(x: int, b: int) -> Fraction:
    """x / b, b != 0, by one exact 2-adic division (Jebelean, "An algorithm
    for exact division", J. Symbolic Comput. 15, 1993).  Write b = odd 2^e;
    when odd divides x, n = x / odd is the one integer with |n| < 2^(k-1)
    and n odd = x mod 2^k, for k = bits(x) - bits(odd) + 2, so a Newton
    2-adic inverse of odd gives it with multiplications only, and one more
    checks n odd == x.  The value is then n / 2^e, whose lowest terms come
    from the 2s of n, with no gcd.  When the check fails the value is
    Fraction(x, b), so the result is exact either way: it never rests on
    b's odd part cancelling, which every certificate slice measured does."""
    if b < 0:
        x, b = -x, -b
    e = (b & -b).bit_length() - 1
    odd = b >> e
    k = max(x.bit_length() - odd.bit_length() + 2, 1)
    inv, j = 1, 1               # odd^-1 mod 2^j; each Newton step doubles j
    while j < k:
        j = min(2 * j, k)
        m = (1 << j) - 1
        inv = inv * (2 - ((odd & m) * inv & m)) & m
    mask = (1 << k) - 1
    n = (x & mask) * inv & mask
    if n >> (k - 1):
        n -= 1 << k
    if n * odd != x:
        return Fraction(x, b)
    s = min((n & -n).bit_length() - 1, e) if n else e
    return Fraction(_Lowest(n >> s, 1 << (e - s)))


class _Pass:
    """The one exact-sum kernel: the sums of t_k = t0 poly(k) u_k, k = lo,
    lo + 1, ..., where u_lo = 1 and u_(k+1) = u_k a_k / b_k for the integer
    pair (a_k, b_k) = step(k), b_k != 0, called once per k in increasing
    order as the pass reaches it.  Every series spec and every certificate
    sum (_SUMS) is one, opened from its description (_open).  The pass only
    moves forward; at k it holds the sum of the terms since its last read's
    first (lo until then) as x / d and the seed t0 u_(k-1) (t0 at k = lo)
    as s / d.

    Binary splitting (Haible and Papanikolaou, ANTS-III, 1998): a stretch
    of n terms is one (A, B, T) product tree (_split), whose sum is
    s T / (d B), after which the pass holds x B + s T, s A and d B.  The
    products grow to O(n log n) bits, so the tree costs O(M(n log n) log n)
    for the multiplication time M, where a stepped loop takes O(n^2 log n).
    A sum becomes a Fraction by _over_power_of_two, one exact division with
    no gcd when the odd part of its denominator divides its numerator.

    Every sum is one read (read): a prefix, at ascending caps, or a range
    that starts at or after the pass's position, as a certificate row's
    slices are read.  Each stretch (_step) forms the pass's new state before
    it assigns any of it, so a product that raises (a MemoryError at a large
    p^r) leaves the pass as it was.  A read whose division raises has
    already stepped; _series_exact drops such a pass.

    A pass opened with keep (a spec's, _open) also keeps the ratio of every
    term it has stepped, ratios[k - lo] for term k and (1, 1) for lo, so
    that the residue kernel (_series_residue) reads them instead of calling
    the step again; a certificate sum's pass keeps none."""

    def __init__(self, t0: Rational, step: Callable[[int], tuple[int, int]], lo: int,
                 poly: tuple[int, ...], keep: bool = False):
        t0 = Fraction(t0)
        self.step, self.lo, self.poly = step, lo, poly
        self.k, self.x, self.s, self.d = lo, 0, t0.numerator, t0.denominator
        self.total: Fraction | None = None   # the last sum read, until renormalised
        self.ratios: list[tuple[int, int]] | None = [] if keep else None

    def _renormalise(self) -> None:
        """Hold the sum read last and the seed in lowest terms over the lcm
        of their denominators, so that a pass read many times carries no
        factor that cancels into its next stretch: one division of the
        seed, paid only by a pass that steps on after a read."""
        if self.total is not None:
            total, seed = self.total, _over_power_of_two(self.s, self.d)
            d = lcm(total.denominator, seed.denominator)
            x, s = (v.numerator * (d // v.denominator) for v in (total, seed))
            self.x, self.s, self.d, self.total = x, s, d, None

    def _step(self, end: int, poly: tuple[int, ...] | None = None) -> None:
        """Step the terms k .. end, if any, by one (A, B, T) tree: form x B +
        s T, s A and d B, then assign them and extend ratios if kept.  poly
        is the pass's unless given: () makes every T 0, for an unread sum."""
        k = self.k
        if end < k:
            return
        self._renormalise()
        ratios = [self.step(j - 1) if j > self.lo else (1, 1) for j in range(k, end + 1)]
        a, b, t = _split(ratios, self.poly if poly is None else poly, k, k, end + 1)
        self.k, self.x, self.s, self.d = end + 1, self.x * b + self.s * t, self.s * a, self.d * b
        if self.ratios is not None:
            self.ratios += ratios

    def read(self, first: int, upper: int) -> Rational:
        """The sum of the terms first .. upper: a prefix, first = lo and
        upper >= k - 1, or a range, first >= k, for which the pass steps
        (_step) over the terms k .. first - 1, with no T, and sums from 0,
        as if it had read 0 there.  One _over_power_of_two after stepping
        to upper; the pass renormalises (_renormalise) when it next steps
        on, so a prefix read once divides its seed zero times, and a range
        once, where it starts."""
        if first > self.lo:
            self._step(first - 1, ())
            self.x, self.total = 0, Fraction(0)
        self._step(upper)
        self.total = _over_power_of_two(self.x, self.d)
        return self.total


_running: dict[tuple, _Pass] = {}    # the one running pass, by (kernel, at)


def _open(name: str, at: tuple = ()) -> _Pass:
    """A fresh pass over the terms of kernel name, by its derived step: a
    spec's (_spec_step), keeping its ratios for the residue kernel, or with
    at = (p, r) a _SUMS entry's there, keeping none."""
    if at:
        desc, poly, lo = _SUMS[name](*at)
        seed, step = _derive(name, desc, poly, lo)
        return _Pass(Fraction(*seed), step, lo, poly)
    spec, (seed, step) = SERIES[name], _spec_step(name)
    return _Pass(Fraction(*seed), step, spec.start, spec.poly, keep=True)


@lru_cache(maxsize=1)
def _series_exact(name: str, upper: int, at: tuple, first: int | None = None) -> Rational:
    """Exact kernel: the sum of the terms of kernel name from first (its
    first index for None) to upper, a read of the running pass (_running),
    at = () for a spec and (p, r) for a _SUMS entry.  A read at or beyond
    the pass's position advances it, and one behind it, or of another
    kernel or (p, r), starts a fresh pass.  _running holds one pass, the
    one in use, and holds none while it steps, so one that raises is
    dropped.  Only the last sum is kept: a sweep unit reads one kernel in
    ascending upper (harness._units), so a repeated read is the last one."""
    run = _running.pop((name, at), None)
    _running.clear()
    if run is None or run.k > (upper + 1 if first is None else first):
        run = _open(name, at)
    value = run.read(run.lo if first is None else first, upper)
    _running[name, at] = run
    return value


@lru_cache(maxsize=256)
def _series_residue(name: str, upper: int, p: int, m: int) -> int:
    """Residue kernel: the sum mod p^m from the spec's seed and step pairs
    (_spec_step) alone, with no Fraction and no big integer.  The pairs are
    the running pass's (_Pass.ratios) when it has stepped to upper, as on
    backend both, where the exact sum is read first; otherwise the kernel
    calls the step itself and keeps nothing, so its memory does not grow
    with the term count.  t_k / poly(k) is
    carried as p^v un / ud: v is its p-adic valuation, and un and ud are the
    units mod p^m of the products of the seed's and steps' numerators and
    denominators, each stripped of p into v.  The running sum is num / dd,
    inverted once at the end.

    Precision: while v >= 0, carrying the units mod p^m is exact, and a
    term with v >= m is 0 mod p^m (v may fall back below m later, so un and
    ud are still stepped).  Raises BackendIneligible at the first term with
    v < 0, whose p in the denominator no unit carries: h1's at k = p and
    suncat's at k = (p-1)/2.  mao's terms are integers over 16^k, and none
    is refused."""
    spec, (seed, step) = SERIES[name], _spec_step(name)
    run = _running.get((name, ()))
    if run is not None and len(run.ratios) > upper - spec.start:
        steps: Iterator = islice(run.ratios, 1, None)
    else:
        steps = map(step, count(spec.start))
    mod = p ** m
    powers = [p ** e for e in range(m)]
    v, un, ud, num, dd = 0, 1, 1, 0, 1
    pairs = chain((seed,), steps)
    for k, (up, down) in zip(range(spec.start, upper + 1), pairs):
        while up % p == 0:
            up, v = up // p, v + 1
        while down % p == 0:
            down, v = down // p, v - 1
        un, ud = un * up % mod, ud * down % mod
        if v < 0:
            raise BackendIneligible(
                f"term k={k} of series {name} has p = {p} in its denominator")
        if v < m:
            num = (num * ud + _poly(spec.poly, k) * powers[v] * un * dd) % mod
            dd = dd * ud % mod
    return num * pow(dd, -1, mod) % mod


# --------------------------------------------------------------------------
# certificate sums: stretches of one WZ pair's cells.  _SUMS maps a name to
# (p, r) -> (desc, poly, lo), its terms' description (wz.CELLS or _theta),
# the polynomial factor of its c and its first index.  Each is read from
# the running pass (_series_exact): a row by the ranges of its slices
# (_row_scalar), LEM-2.1's column by prefix, as a spec is.

def _theta(P: int, k: int) -> tuple:
    """theta(k) of LEM-4.2 at P = p^r as a binomial product: the theta row's
    description, and the per-cell reference the row is tested against."""
    return ((-1) ** (k + 1) * P ** 3, 2 * k - 6 * P + 6, (2 * P - 1, P - 1, 2),
            (-2 * P - 1, 2 * k - 2, 1), (2 * P - 2, P - k - 1, 1), (2 * P - 1, 1, -1),
            (k, 1, -1), (2 * k - 1, 1, -1), (2 * k, k, -1))


_SUMS: dict[str, Callable[[int, int], tuple]] = {
    # the rows G(P, k) and theta(k), k = 1 .. P-1: c is a constant times a sign
    "GUO64": lambda p, r: (partial(wz.CELLS["GUO64"][1], p ** r), (1,), 1),
    "Z20N3": lambda p, r: (partial(wz.CELLS["Z20N3"][1], p ** r), (1,), 1),
    "theta": lambda p, r: (partial(_theta, p ** r), (1,), 1),
    # the five-factor G(n0, k), k = 1 .. (P-1)/2, n0 = (P+1)/2 and P: c is
    # (n0+2k-1) times a sign
    "GZ10N2-half": lambda p, r: (partial(wz.CELLS["GZ10N2"][1], p ** r // 2 + 1),
                                 (p ** r // 2, 2), 1),
    "GZ10N2": lambda p, r: (partial(wz.CELLS["GZ10N2"][1], p ** r), (p ** r - 1, 2), 1),
    # LEM-2.1's column F(n, (P-1)/2), whose c is 10n^2+6Pn+P^2 times a sign;
    # its prefixes to (P-1)/2 (delta = 2) and P-1 are the two windows
    "LEM-2.1": lambda p, r: (partial(wz.CELLS["GZ10N2"][0], k=p ** r // 2),
                             (p ** (2 * r), 6 * p ** r, 10), 0),
}


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
            uses_delta=False, r_floor=1):
    """A series case summing the terms of kernel name, a spec or a _SUMS
    entry: the residue kernel reads a spec's description only."""
    _add(CongruenceCase(id=id, status=status, statement=statement, kind="series",
                        claimed_exponent=m, rhs=rhs, upper=upper, uses_r=uses_r,
                        uses_delta=uses_delta, r_floor=r_floor, kernel=name))


def _scalar(id, status, statement, m, lhs, rhs, *, uses_r=True, r_floor=1, kind="scalar",
            kernel=None, upper=None, member_lhs=None):
    _add(CongruenceCase(id=id, status=status, statement=statement, kind=kind,
                        claimed_exponent=m, rhs=rhs, lhs_scalar=lhs, upper=upper, uses_r=uses_r,
                        r_floor=r_floor, kernel=kernel, member_lhs=member_lhs))


def _binomial_scalar(id, statement, m, lhs, rhs, *, uses_r=True, kernel=None, upper=None):
    """A known fact claiming p^m(p, r) for the binomial product lhs(p, r),
    its member_lhs at k = None.  A right side that reads a series spec's
    sum names the spec as kernel and its cap as upper(p, r, delta), so the
    sweep runs it in the spec's unit, and `residue` reduces that exact sum."""
    _scalar(id, "known", statement, m, lambda p, r: Fraction(*binomial_product(*lhs(p, r))),
            rhs, uses_r=uses_r, kernel=kernel, upper=upper,
            member_lhs=lambda p, r, k: lhs(p, r))


def _row_scalar(id, statement, m, name, part, rhs, *, r_floor=1):
    """A lemma claiming p^m(p, r) for slice number part of _SUMS[name] at
    P = p^r: k = 1 .. (P-1)/2, the middle term k = (P+1)/2 or the tail;
    its upper is the slice's last index, so a unit reads them in order."""
    def bounds(p, r):
        h = p ** r // 2
        return ((1, h), (h + 1, h + 1), (h + 2, 2 * h))[part]

    def lhs(p, r):
        first, last = bounds(p, r)
        return _series_exact(name, last, (p, r), first)
    _scalar(id, "lemma", statement, m, lhs, rhs, r_floor=r_floor, kernel=name,
            upper=lambda p, r, d: bounds(p, r)[1])


def _cell_scalar(id, pair, series):
    """A lemma claiming F(P-1, P-1) == 0 (mod p^(r+2)), P = p^r, for the WZ pair
    of the given series, stated for r >= 2."""
    _scalar(id, "lemma", f"F(p^r-1, p^r-1) == 0  (mod p^(r+2)) for the {series}-series "
            "pair; stated for r >= 2", lambda p, r: r + 2,
            lambda p, r: wz.eval_F(pair, p ** r - 1, p ** r - 1), _rhs_zero, r_floor=2)


def _family(id, statement, m, members, lhs, rhs):
    _add(CongruenceCase(id=id, status="fact-family", statement=statement,
                        kind="family", claimed_exponent=m, rhs=_rhs_zero,
                        members=members, member_lhs=lhs, member_rhs=rhs))


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


def _mao_cap(p, r, d):
    """(p - 1) / 2: the cap of both cases that read the "mao" spec."""
    return (p - 1) // 2


_series("MAO-I2", "theorem",
        "sum_{n=0}^{(p-1)/2} C(2n,n)^2 / ((n+1) 16^n) == 2p^2 + 2p^3 (2 q_p(2) - 1)"
        "  (mod p^4)",
        lambda p, r: 4,
        lambda p, r: Fraction(2 * p * p + 2 * p ** 3 * (2 * fermat_quotient(p) - 1)),
        "mao", _mao_cap, uses_r=False)

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
        "LEM-2.1", lambda p, r, d: (p ** r - 1) // d, uses_delta=True)

# --- scalar closed forms ----------------------------------------------------

_binomial_scalar("WOLST-BIN", "C(2p-1,p-1) == 1  (mod p^3)",
                 lambda p, r: 3, lambda p, r: (1, 0, (2 * p - 1, p - 1, 1)),
                 lambda p, r: Fraction(1), uses_r=False)

# C(-3/2, m) = (-1)^m (2m+1) C(2m, m) / 4^m, so with m = (p-1)/2 the right side
# is p^2 C(p-1, m)^2 / (2^(4m) (m+1))
_scalar("MAO-I2-IDENT", "theorem",
        "sum_{n=0}^{(p-1)/2} C(2n,n)^2 / ((n+1) 16^n) = C(-3/2,(p-1)/2)^2 / ((p+1)/2)"
        "  (exact rational identity)",
        None,
        lambda p, r: Fraction(_series_exact("mao", _mao_cap(p, r, 1), ())),
        lambda p, r: Fraction(*binomial_product(
            1, 2 - 2 * p, (p, 1, 2), (p - 1, (p - 1) // 2, 2), ((p + 1) // 2, 1, -1))),
        uses_r=False, kind="identity", kernel="mao", upper=_mao_cap)

_row_scalar("LEM-2.2",
            "sum_{k=1}^{(p^r-1)/2} G((p^r+1)/2, k) == 0  (mod p^(r+4)), where "
            "G(n,k) = (n+2k-1) (1/2)_n (1/2+k)_(n-1)^4/(1)_(n-1)^5 (-1)^n 2^(2n+1)",
            lambda p, r: r + 4, "GZ10N2-half", 0, _rhs_zero)

_row_scalar("LEM-2.3",
            "sum_{k=1}^{(p^r-1)/2} G(p^r, k) == 0  (mod p^(r+4)), same G as LEM-2.2",
            lambda p, r: r + 4, "GZ10N2", 0, _rhs_zero)

_cell_scalar("LEM-3.1", "GUO64", "(4n+1)")

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

_cell_scalar("LEM-4.1", "GL4K1", "(4n-1)")

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

_cell_scalar("LEM-5.1", "Z20N3", "(20n+3)")

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

_binomial_scalar("BIN-3.4", "C(p^r-1,(p^r-1)/2) == (-1)^((p^r-1)/2) 4^(p^r-1)  (mod p^3)",
                 lambda p, r: 3, lambda p, r: (1, 0, (p ** r - 1, (p ** r - 1) // 2, 1)),
                 lambda p, r: Fraction(_sign_pr(p, r) * 4 ** (p ** r - 1)))

_binomial_scalar("BIN-3.5", "C(3p^r-1,p^r) == 2 (1 - 3 p^r H_(p^r-1))  (mod p^2)",
                 lambda p, r: 2, lambda p, r: (1, 0, (3 * p ** r - 1, p ** r, 1)),
                 lambda p, r: 2 * (1 - 3 * p ** r * _series_exact("h1", p ** r - 1, ())),
                 kernel="h1", upper=lambda p, r, d: p ** r - 1)

_binomial_scalar("BIN-3.6", "C(2p^r-1,p^r-1) == 1  (mod p^2)",
                 lambda p, r: 2, lambda p, r: (1, 0, (2 * p ** r - 1, p ** r - 1, 1)),
                 lambda p, r: Fraction(1))

_binomial_scalar("BIN-3.7",
                 "C(2p^r-1,(p^r-1)/2) == (-1)^((p^r-1)/2) (1 - 2 p H_((p-1)/2))  (mod p^2)",
                 lambda p, r: 2, lambda p, r: (1, 0, (2 * p ** r - 1, (p ** r - 1) // 2, 1)),
                 lambda p, r: _sign_pr(p, r) * (1 - 2 * p * _series_exact("h1", (p - 1) // 2, ())),
                 kernel="h1", upper=lambda p, r, d: (p - 1) // 2)

# --- k-indexed fact families: lhs and rhs are binomial products (see _family_items)

_family("FACT-2LL",
        "l C(2l,l) C(2k,k) == -2 p^r  (mod p^(r+1)) for k + l = p^r, 0 < l < p^r/2",
        lambda p, r: r + 1, _fact_range,
        lambda p, r, k: (p ** r - k, 0, (2 * (p ** r - k), p ** r - k, 1), (2 * k, k, 1)),
        lambda p, r, k: (-2 * p ** r, 0))

_family("FACT-2KK",
        "C(2k,k) == 0  (mod p) for k + l = p^r, 0 < l < p^r/2",
        lambda p, r: 1, _fact_range, lambda p, r, k: (1, 0, (2 * k, k, 1)), lambda p, r, k: (0, 0))

_family("FACT-INV",
        "-2 p^r / (l C(2l,l)) == C(2k,k)  (mod p^2) for k + l = p^r, 0 < l < p^r/2",
        lambda p, r: 2, _fact_range,      # l = C(l, 1)
        lambda p, r, k: (-2 * p ** r, 0, (p ** r - k, 1, -1), (2 * (p ** r - k), p ** r - k, -1)),
        lambda p, r, k: (1, 0, (2 * k, k, 1)))

_family("DAO-HB",
        "-2 p^r / C(2k,k) == (p^r-k) C(2p^r-2k,p^r-k)  (mod p) for k + l = p^r, "
        "0 < l < p^r/2",
        lambda p, r: 1, _fact_range, lambda p, r, k: (-2 * p ** r, 0, (2 * k, k, -1)),
        lambda p, r, k: (p ** r - k, 0, (2 * p ** r - 2 * k, p ** r - k, 1)))

_family("BIN-3.9",
        "C(2p^r-1,k) == (-1)^k  (mod p) for 1 <= k <= (p^r-3)/2",
        lambda p, r: 1, _binrow_range,
        lambda p, r, k: (1, 0, (2 * p ** r - 1, k, 1)), lambda p, r, k: ((-1) ** k, 0))

# BIN-3.10 and BIN-5.6 reflect: C(-aP-1, j) = C(aP+j, j) for even j = 2P-2k-2
_family("BIN-3.10",
        "C(-2p^r-1,2p^r-2k-2) == 3  (mod p) for 1 <= k <= (p^r-3)/2",
        lambda p, r: 1, _binrow_range,
        lambda p, r, k: (1, 0, (4 * p ** r - 2 * k - 2, 2 * p ** r - 2 * k - 2, 1)),
        lambda p, r, k: (3, 0))

_family("BIN-3.11",
        "C(2j q - q - 1, j q - (q+1)/2) == (-1)^((q-1)/2) C(2j-2,j-1)  (mod p) "
        "for q = p^(r-1), 1 <= j <= (p-1)/2",
        lambda p, r: 1, lambda p, r: range(1, (p - 1) // 2 + 1),
        lambda p, r, j: (1, 0, (2 * j * p ** (r - 1) - p ** (r - 1) - 1,
                                j * p ** (r - 1) - (p ** (r - 1) + 1) // 2, 1)),
        lambda p, r, j: ((-1) ** ((p ** (r - 1) - 1) // 2), 0, (2 * j - 2, j - 1, 1)))

_family("BIN-5.5",
        "C(3p^r-1,k) == (-1)^k  (mod p) for 1 <= k <= (p^r-3)/2",
        lambda p, r: 1, _binrow_range,
        lambda p, r, k: (1, 0, (3 * p ** r - 1, k, 1)), lambda p, r, k: ((-1) ** k, 0))

_family("BIN-5.6",
        "C(-4p^r-1,2p^r-2k-2) == 5  (mod p) for 1 <= k <= (p^r-3)/2",
        lambda p, r: 1, _binrow_range,
        lambda p, r, k: (1, 0, (6 * p ** r - 2 * k - 2, 2 * p ** r - 2 * k - 2, 1)),
        lambda p, r, k: (5, 0))

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


def list_cases(status: str | None = None, glob: str | None = None
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
    """Refuse the residue backend for a case it does not take, saying why: a
    series has a residue path when its kernel is a spec, a scalar when its
    left side is a binomial product (member_lhs), and a family always."""
    if case.kind == "identity":
        raise BackendIneligible(f"{case.id} is an exact identity; residue "
                                "reduction cannot certify equality")
    if case.kind == "series" and case.kernel not in SERIES or \
            case.kind == "scalar" and case.member_lhs is None:
        why = ("has no residue kernel: its terms depend on (p, r)" if case.kind == "series"
               else "has no residue path: its residue would only be its exact value reduced")
        raise BackendIneligible(f"{case.id} {why}; use the exact backend")


def series_sum_exact(case, params: CheckParams) -> Rational:
    """Exact value of a series case's truncated sum, a prefix of the running
    pass (_series_exact) over its kernel: a SERIES spec, or LEM-2.1's _SUMS
    entry at the point's (p, r)."""
    case = get_case(case)
    if case.kind != "series":
        raise ValueError(f"{case.id} is not a series case")
    at = () if case.kernel in SERIES else (params.p, params.r)
    return _series_exact(case.kernel, _series_upper(case, params), at)


def series_sum_residue(case, params: CheckParams, m: int) -> int:
    """Termwise residue of a series case's truncated sum in Z/p^m, p the
    point's prime."""
    case = get_case(case)
    if case.kind != "series":
        raise ValueError(f"{case.id} is not a series case")
    _require_residue(case)
    try:
        return _series_residue(case.kernel, _series_upper(case, params), params.p, m)
    except BackendIneligible as e:
        raise BackendIneligible(f"{case.id}: {e}; use the exact backend") from None


_table: Factorials | None = None     # the one factorial table kept (_factorials)


def _factorials(p: int, M: int, n: int) -> Factorials:
    """A factorial table at p to precision p^M and to n: the kept one when it
    is at p and as precise, run on in place to n if it falls short
    (Factorials.extend), else a new one, which replaces it.  So the points
    at one p and precision share a table; at most one table lives at a
    time."""
    global _table
    t = _table
    if t is not None and t.p == p and t.M >= M:
        if t.n < n:
            t.extend(n)
        return t
    _table = None                           # the old one goes before the new is built
    _table = t = Factorials(p, M, n)
    return t


def _family_items(case: CongruenceCase, params: CheckParams, M: int
                  ) -> tuple[list[tuple], int]:
    """(k, lhs, rhs) per member, all of them or the one --k selects, or
    (None, lhs, lhs) for a binomial scalar's one description: each side's
    (v, u) pair from one factorial table with units mod p^M or finer
    (Factorials.pair), and its M.  Binomial arguments are linear in k, so
    the first and last members bound its reach and show 0 <= m <= n."""
    p, r = params.p, params.r
    keys, descs = [None], (case.member_lhs,)
    if case.kind == "family":
        rng, descs = case.members(p, r), (case.member_lhs, case.member_rhs)
        if params.k is not None and params.k not in rng:
            raise ValueError(
                f"{case.id}: member index {params.k} outside admissible range "
                f"[{rng.start}, {rng.stop - 1}] at p={p}, r={r}")
        keys = list(rng) if params.k is None else [params.k]
    reach = 0
    for k in keys[:1] + keys[-1:]:
        for desc in descs:
            for n, m, _ in desc(p, r, k)[2:]:
                if not 0 <= m <= n:
                    where = "its left side" if k is None else f"member k={k}"
                    raise ValueError(f"{case.id}: {where} at p={p}, r={r} has a "
                                     f"binomial C({n}, {m}) outside 0 <= m <= n")
                reach = max(reach, n)
    table = _factorials(p, M, reach)
    pair, lhs, rhs = table.pair, descs[0], descs[-1]
    return [(k, pair(*lhs(p, r, k)), pair(*rhs(p, r, k))) for k in keys], table.M


def _exact_valuation(a: int, b: int, c: int, d: int, p: int) -> Valuation:
    """vp(a / b - c / d), b, d > 0, in integers: vp(a d - c b) - vp(b d)."""
    return _vp_int(a * d - c * b, p) - _vp_int(b * d, p)


def _pair_valuation(lhs: tuple, rhs: tuple, p: int, mod: int) -> Valuation | None:
    """vp(lhs - rhs) for two (v, u) pairs with units mod p^M, mod = p^M, or
    None when their units agree mod p^M (see _score)."""
    (vl, ul), (vr, ur) = lhs, rhs
    if vl != vr or vl == INFINITE:
        return min(vl, vr)
    d = (ul - ur) % mod
    if not d:
        return None
    while d % p == 0:
        d, vl = d // p, vl + 1
    return vl


def _score(items: list, p: int, M: int,
           exact: Callable[[int], tuple] | None = None) -> tuple:
    """(k, lhs, rhs, valuation) of the first family member of least
    valuation, with k None and valuation INFINITE (M without exact) for no
    members.  p is the point's odd prime, checked once by CheckParams, so
    no member pays a prime check.  A member (k, lhs, rhs) has (v, u) pairs
    for sides, p^v times a unit known mod p^M or finer (see _family_items),
    and is scored in small integers (_pair_valuation).  Sides of different
    v give the smaller v, and a side of 0 (v INFINITE) the other side's v,
    exactly.  Sides of equal v give v + vp((u_l - u_r) mod p^M), exact when
    that difference is not 0 mod p^M.  When it is, the member is
    undetermined: its valuation is only known to be at least v + M.

    Without exact (backend "residue", M = claimed, every v >= 0, as
    _family_point checks) valuations
    are read in Z/p^M: one of M or more, and an undetermined member, read
    as M, which is min(vp((L - R) mod p^M), M) for the residues L, R of the
    two sides.  With exact, an undetermined member is resolved in integers
    from exact(k), its two sides as binomial_product pairs, only if it could
    still be the first of least valuation: if v + M is at most every
    determined valuation and below every valuation before it.  A side that
    divides by a multiple of p (FACT-INV and DAO-HB divide by binomials)
    carries its v as an integer, negative when more p divide below the line
    than above; its unit is still exact mod p^M, so the rule holds
    unchanged, with a bound v + M that may fall below M."""
    if not items:
        return None, None, None, M if exact is None else INFINITE
    mod = p ** M
    found = [_pair_valuation(lhs, rhs, p, mod) for _, lhs, rhs in items]
    least = min((v for v in found if v is not None), default=INFINITE)
    worst = None
    for (k, lhs, rhs), obs in zip(items, found):
        if exact is None:
            obs = M if obs is None else min(obs, M)
        elif obs is None:
            bound = lhs[0] + M
            if bound > least or worst is not None and bound >= worst[3]:
                continue            # not the first of least valuation
            obs = _exact_valuation(*exact(k), p)
        if worst is None or obs < worst[3]:
            worst = (k, lhs, rhs, obs)
    return worst


def _check_lucas(case: CongruenceCase, params: CheckParams, found: Iterable,
                 source: str) -> None:
    """Raise BackendDisagreement, naming the case, point and member, unless
    each (k, exact) of found, a left side mod p read from source, equals
    lucas_product of its description member_lhs(p, r, k), k None for a
    binomial scalar: two independent arithmetic paths.  A point whose first
    description divides by a binomial (FACT-INV, DAO-HB) is not checked."""
    p, r, lhs = params.p, params.r, case.member_lhs
    for i, (k, exact) in enumerate(found):
        desc = lhs(p, r, k)
        if not i and any(j < 0 for *_, j in desc[2:]):
            return
        lucas = lucas_product(p, *desc)
        if exact != lucas:
            member = "" if k is None else f", member k={k}"
            raise BackendDisagreement(
                f"{case.id}: exact and digitwise values disagree at {params}"
                f"{member}: lhs reduces to {exact} mod {params.p} on the "
                f"{source}, {lucas} by Lucas' theorem")


def _family_point(case: CongruenceCase, params: CheckParams, backend: str,
                  claimed: int) -> tuple:
    """(lhs, rhs, valuation, note) of a family point: its members' (v, u)
    pairs from the factorial table (_family_items), scored by _score.  On
    "both" each member's left side, 0 mod p when v > 0 and u mod p
    otherwise, is first checked against its Lucas product unless the first
    divides by a binomial (_check_lucas): Legendre's tables against base-p
    digits.  On "residue" the members are scored at M = claimed, the
    reported member's sides are written p^v u mod p^claimed, and no member
    is built exact; BackendIneligible names the first member with a side
    of v < 0, p in its denominator, which no residue carries.  Otherwise
    they are scored at the table's own M, claimed + 2 or finer; only the
    reported member, and any undetermined one that _score resolves, is
    built exact by binomial_product, and on "both" must match the table's."""
    p, r = params.p, params.r
    on_residue = backend == "residue"
    items, M = _family_items(case, params, claimed if on_residue else claimed + 2)
    if on_residue:
        for k, lhs, rhs in items:
            for side, (v, _) in (("left", lhs), ("right", rhs)):
                if v < 0:
                    raise BackendIneligible(f"{case.id}: the {side} side of member k={k} has "
                                            f"p = {p} in its denominator; use the exact backend")
    if backend == "both":
        _check_lucas(case, params, ((k, 0 if v > 0 else u % p) for k, (v, u), _ in items),
                     "factorial table")

    def exact(k):
        return (*binomial_product(*case.member_lhs(p, r, k)),
                *binomial_product(*case.member_rhs(p, r, k)))
    k, lhs, rhs, observed = (_score(items, p, claimed) if on_residue
                             else _score(items, p, M, exact))
    if k is None:
        lhs = rhs = 0 if on_residue else Fraction(0)
    elif on_residue:
        lhs, rhs = (0 if v >= claimed else u * p ** v % p ** claimed for v, u in (lhs, rhs))
    else:
        a, b, c, d = exact(k)
        if backend == "both":
            v = _exact_valuation(a, b, c, d, p)
            if v != observed:
                raise BackendDisagreement(
                    f"{case.id}: factorial table and exact values disagree at "
                    f"{params}, member k={k}: valuation {observed} from the "
                    f"table, {v} from the exact member")
        lhs, rhs = Fraction(a, b), Fraction(c, d)
    note = ("empty member range" if k is None else f"k={k}" if params.k is not None
            else f"worst member k={k} of {len(items)}")
    return lhs, rhs, observed, note


def evaluate_case(case, params: CheckParams, backend: str = "exact", *,
                  include_p3: bool = False) -> CheckResult:
    """Compute LHS and RHS at the given point and score the congruence.

    backend "both" runs the exact path and reports its values, checking
    each value that has an independent modular path where it is computed:
    a series sum over a spec against the termwise residue kernel mod p^m,
    and the left side of a binomial scalar, or of each member of a family,
    when it divides by no binomial, mod p against its Lucas product
    (_check_lucas).
    Every family point also checks its reported member against the table
    (see _family_point).  The row and cell lemmas, the identity and LEM-2.1
    have no second path and run no check.  backend "residue" reads a
    binomial scalar's left side from the factorial table (_family_items).
    """
    case = get_case(case)
    if backend not in BACKENDS:
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

    if backend == "residue":
        _require_residue(case)
    if case.kind == "family":
        lhs, rhs, observed, member_note = _family_point(case, params, backend, claimed)
        note = f"{member_note}; {note}" if note else member_note
    elif backend == "residue":
        if case.kind == "series":
            lhs = series_sum_residue(case, params, claimed)
        else:
            [(_, (v, u), _)], _ = _family_items(case, params, claimed)
            lhs = 0 if v >= claimed else residue(u * Fraction(p) ** v, p, claimed)
        rhs = residue(case.rhs(p, params.r), p, claimed)
        observed = min(_vp_int((lhs - rhs) % p ** claimed, p), claimed)
    else:
        lhs = (series_sum_exact(case, params) if case.kind == "series"
               else case.lhs_scalar(p, params.r))
        rhs = case.rhs(p, params.r)
        if backend == "both" and case.kind == "series" and case.kernel in SERIES:
            # the kernel runs first: it refuses a p in a denominator by name,
            # where reducing the exact sum would fail with PNotIntegral
            kernel = series_sum_residue(case, params, claimed)
            exact = residue(lhs, p, claimed)
            if exact != kernel:
                raise BackendDisagreement(
                    f"{case.id}: exact and residue backends disagree at {params} "
                    f"mod {p}^{claimed}: the sum reduces to {exact} on the exact "
                    f"backend, {kernel} on the termwise residue kernel")
        elif backend == "both" and case.member_lhs is not None:
            _check_lucas(case, params, [(None, lhs % p)], "exact backend")
        observed = _exact_valuation(*lhs.as_integer_ratio(), *rhs.as_integer_ratio(), p)

    elapsed = (time.perf_counter() - t0) * 1000.0
    return CheckResult(case_id=case.id, params=params, lhs=lhs, rhs=rhs,
                       observed_valuation=observed, claimed_exponent=claimed,
                       passed=_passes(observed, claimed), backend=backend,
                       elapsed_ms=elapsed, status=case.status,
                       informational=informational, note=note)


def _passes(observed: Valuation, claimed: int | None) -> bool:
    if claimed is None:
        return observed == INFINITE
    return observed >= claimed
