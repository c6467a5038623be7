"""Registry of four WZ pairs and mechanical checks of their identities.

A WZ pair is two bivariate rational functions F, G satisfying the
telescoping relation F(n,k-1) - F(n,k) = G(n+1,k) - G(n,k). Summing it
over a rectangle yields the boundary identity

    sum_{n=0}^{N} F(n,0) = sum_{n=0}^{N} F(n,K)
                           + sum_{k=1}^{K} [G(N+1,k) - G(0,k)],

and each pair's F(n,0) is the summand of one of the congruence-series
cases in the catalog. All evaluation is exact; the grid checks tolerate
zero violations.

Each pair's `definition` string is the paper's form of F and G, in
Pochhammer symbols or binomials. `CELLS` holds the same terms as data: each
F and G is a binomial product (n, k) -> (c, e, *factors) meaning
c 2^e prod C(n_i, m_i)^j_i (combinat.binomial_product), with e and every
binomial argument linear in (n, k) and a linear factor x below the line
written C(x, 1)^-1. combinat.binomial_product evaluates every description,
taking a binomial that occurs twice once, with its powers summed, to an
unreduced (numerator, denominator) pair: a pair's f and g return that pair,
which the grid check compares as it is, and eval_F and eval_G make it one
Fraction. The tests check every cell against its definition string.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from .combinat import binomial_product
from .exactnum import Rational


class WzPair(namedtuple("WzPair", "id f g series definition")):
    """A registered pair: evaluators plus the summand linkage.  f and g
    give a cell as an unreduced (numerator, denominator) pair, the
    denominator nonzero and of either sign; eval_F and eval_G give it as a
    Fraction.  series is the catalog series (congruences.SERIES) whose
    terms F(n,0) gives."""

    __slots__ = ()


class GridReport:
    """Outcome of an exhaustive grid check; pass means no violations."""

    def __init__(self, pair_id: str, n_max: int, k_max: int):
        self.pair_id, self.n_max, self.k_max = pair_id, n_max, k_max
        self.cells_checked = 0
        self.violations: list = []      # (n, k, lhs, rhs)

    @property
    def passed(self) -> bool:
        return not self.violations


# Each pair's (F, G): its registered definition as two descriptions (module
# docstring), where c holds the sign and the linear factors above the line.
# Every description has one factor layout; with C(m, j) = 0 for j < 0 or
# j > m >= 0, the cells vanish on their own at n = 0 and off the support.
CELLS: dict[str, tuple[Callable[[int, int], tuple], Callable[[int, int], tuple]]] = {
    "GZ10N2": (
        lambda n, k: ((-1) ** n * (10 * n * n + 12 * n * k + 6 * n + 4 * k * k + 4 * k + 1),
                      -8 * n, (2 * n, n, 1), (2 * n + 2 * k, n + k, 4), (n + k, k, 4),
                      (2 * k, k, -4)),
        lambda n, k: ((-1) ** n * n * (n + 2 * k - 1), 9 - 8 * n, (2 * n, n, 1),
                      (2 * n + 2 * k - 2, n + k - 1, 4), (n + k - 1, k, 4), (2 * k, k, -4)),
    ),
    "GUO64": (
        lambda n, k: ((-1) ** (n + k) * (4 * n + 1), 2 * k - 6 * n, (2 * n, n, 2),
                      (2 * n + 2 * k, n + k, 1), (n + k, 2 * k, 1), (2 * k, k, -1)),
        lambda n, k: ((-1) ** (n + k) * (2 * n - 1) ** 2, 2 * k - 6 * n + 5,
                      (2 * n - 2, n - 1, 2), (2 * n + 2 * k - 2, n + k - 1, 1),
                      (n + k - 1, 2 * k - 1, 1), (2 * k, 1, -1), (2 * k, k, -1)),
    ),
    "GL4K1": (
        lambda n, k: ((-1) ** (n + k + 1) * (4 * n - 1) * (2 * k - 1) ** 2, 2 * k - 6 * n,
                      (2 * n, n, 2), (2 * n + 2 * k, n + k, 1), (n + k, 2 * k, 1),
                      (2 * n - 1, 1, -2), (2 * n + 2 * k - 1, 1, -1), (2 * k, k, -1)),
        lambda n, k: ((-1) ** (n + k + 1) * n * n * (2 * k - 1) ** 2, 2 * k - 6 * n + 2,
                      (2 * n, n, 2), (2 * n + 2 * k - 2, n + k - 1, 1),
                      (n + k - 1, 2 * k - 1, 1), (2 * n - 1, 1, -2),
                      (2 * n + 2 * k - 3, 1, -1), (k, 1, -1), (2 * k, k, -1)),
    ),
    "Z20N3": (
        lambda n, k: ((-1) ** (n + k) * (20 * n - 2 * k + 3), 2 * k - 10 * n, (2 * n, n, 1),
                      (4 * n + 2 * k, 2 * n + k, 1), (2 * n + k, 2 * k, 1),
                      (2 * n - k, n, 1), (2 * k, k, -1)),
        lambda n, k: ((-1) ** (n + k) * n, 2 * k - 10 * n + 8, (2 * n - 1, n - 1, 1),
                      (4 * n + 2 * k - 2, 2 * n + k - 1, 1), (2 * n + k - 1, 2 * k, 1),
                      (2 * n - k - 1, n - 1, 1), (2 * k, k, -1)),
    ),
}


def _pair(id: str, series: str, definition: str) -> WzPair:
    """The pair id with its f and g evaluating its CELLS descriptions at each call."""
    f, g = (lambda n, k, i=i: binomial_product(*CELLS[id][i](n, k)) for i in (0, 1))
    return WzPair(id, f, g, series, definition)


PAIRS: dict[str, WzPair] = {pair.id: pair for pair in (
    _pair("GZ10N2", "gz10n2",
          ("F(n,k) = (10n^2+12nk+6n+4k^2+4k+1) (1/2)_n (1/2+k)_n^4 / (1)_n^5 * (-1)^n 4^n ; "
           "G(n,k) = (n+2k-1) (1/2)_n (1/2+k)_(n-1)^4 / (1)_(n-1)^5 * (-1)^n 2^(2n+1) ; "
           "F(n,0) = (10n^2+6n+1) (-4)^n (1/2)_n^5 / (1)_n^5")),
    _pair("GUO64", "guo64",
          ("F(n,k) = (-1)^(n+k) (4n+1) 4^(k-3n) C(2n,n)^2 C(2n+2k,n+k) C(n+k,2k) / C(2k,k) ; "
           "G(n,k) = (-1)^(n+k) (2n-1)^2 C(2n-2,n-1)^2 4^(k-3(n-1))/2 C(2n-2+2k,n-1+k) "
           "C(n-1+k,2k)/(n-k) / C(2k,k), the singular factor taken in cancelled form "
           "prod_{j=1}^{2k-1}(n-k+j)/(2k)! ; F(n,0) = (4n+1) C(2n,n)^3 / (-64)^n")),
    _pair("GL4K1", "glr",
          ("F(n,k) = (-1)^(n+k) (4n-1) (-1/2)_n^2 (-1/2)_(n+k) / ((1)_n^2 (1)_(n-k) (-1/2)_k^2) ; "
           "G(n,k) = (-1)^(n+k) 2 (-1/2)_n^2 (-1/2)_(n+k-1) / ((1)_(n-1)^2 (1)_(n-k) (-1/2)_k^2), "
           "with 1/(1)_m = 0 for m < 0 ; F(n,0) = (-1)^n (4n-1) (-1/2)_n^3 / (1)_n^3")),
    _pair("Z20N3", "z20n3-signed",
          ("F(n,k) = (-1)^(n+k) (20n-2k+3) 4^(k-5n) C(2n,n) C(4n+2k,2n+k) C(2n+k,2k) "
           "C(2n-k,n) / C(2k,k) ; "
           "G(n,k) = (-1)^(n+k) 4^(k-5n+4) n C(2n-1,n-1) C(4n-2+2k,2n-1+k) C(2n-1+k,2k) "
           "C(2n-1-k,n-1) / C(2k,k) ; "
           "F(n,0) = (-1)^n (20n+3) (1/2)_n (1/2)_(2n) / ((1)_n^3 16^n)")),
)}


def get_pair(pair) -> WzPair:
    if isinstance(pair, WzPair):
        return pair
    try:
        return PAIRS[pair]
    except KeyError:
        raise ValueError(f"unknown WZ pair {pair!r}; known: {sorted(PAIRS)}") from None


def eval_F(pair, n: int, k: int) -> Rational:
    """Exact value of F at a grid cell; n, k >= 0."""
    if n < 0 or k < 0:
        raise ValueError(f"F needs n, k >= 0, got ({n}, {k})")
    return Fraction(*get_pair(pair).f(n, k))


def eval_G(pair, n: int, k: int) -> Rational:
    """Exact value of G at a grid cell; n >= 0, k >= 1. G(0, k) = 0."""
    if n < 0 or k < 1:
        raise ValueError(f"G needs n >= 0 and k >= 1, got ({n}, {k})")
    return Fraction(*get_pair(pair).g(n, k))


def _differ(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int],
            d: tuple[int, int]) -> bool:
    """a - b != c - d for cells as unreduced (numerator, denominator) pairs,
    compared cross-multiplied: no gcd and no Fraction."""
    (p, q), (r, s), (t, u), (v, w) = a, b, c, d
    return (p * s - r * q) * u * w != (t * w - v * u) * q * s


def check_telescoping(pair, n_max: int, k_max: int) -> GridReport:
    """Assert F(n,k-1) - F(n,k) = G(n+1,k) - G(n,k) on the full grid.

    Each cell is evaluated once, as the pair's unreduced (numerator,
    denominator): F(n,k) is carried to the next column as F(n,k-1), and the
    row G(n+1, .) to the next row as G(n, .). The cells are compared as
    those pairs (_differ), and a violation alone builds Fractions, for its
    two differences; a passing grid builds none."""
    pair = get_pair(pair)
    if n_max < 1 or k_max < 1:
        raise ValueError("grid bounds must be >= 1")
    report = GridReport(pair.id, n_max, k_max)
    g_row = [pair.g(0, k) for k in range(1, k_max + 1)]
    for n in range(n_max + 1):
        f_prev, g_next = pair.f(n, 0), []
        for k, g in enumerate(g_row, start=1):
            f, g1 = pair.f(n, k), pair.g(n + 1, k)
            report.cells_checked += 1
            if _differ(f_prev, f, g1, g):
                report.violations.append((n, k, Fraction(*f_prev) - Fraction(*f),
                                          Fraction(*g1) - Fraction(*g)))
            f_prev = f
            g_next.append(g1)
        g_row = g_next
    return report


def check_summand(pair, n_max: int) -> GridReport:
    """Assert F(n,0) = t_n for 0 <= n <= n_max, where t_n is the n-th term
    of the pair's catalog series (SeriesSpec.terms)."""
    from .congruences import SERIES     # congruences imports this module
    pair = get_pair(pair)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    report = GridReport(pair.id, n_max, 0)
    for n, term in enumerate(SERIES[pair.series].terms(n_max)):
        lhs = Fraction(*pair.f(n, 0))
        report.cells_checked += 1
        if lhs != term:
            report.violations.append((n, 0, lhs, term))
    return report


def boundary_identity(pair, N: int, K: int) -> bool:
    """Exact double-telescoping consequence over the rectangle [0,N]x[1,K]."""
    if N < 0 or K < 1:
        raise ValueError(f"need N >= 0 and K >= 1, got ({N}, {K})")
    pair = get_pair(pair)
    f, g = (lambda n, k, cell=cell: Fraction(*cell(n, k)) for cell in (pair.f, pair.g))
    return (sum(f(n, 0) for n in range(N + 1))
            == sum(f(n, K) for n in range(N + 1))
            + sum(g(N + 1, k) - g(0, k) for k in range(1, K + 1)))
