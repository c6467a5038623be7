"""Registry of four WZ pairs and mechanical checks of their identities.

A WZ pair is two bivariate rational functions F, G satisfying the
telescoping relation F(n,k-1) - F(n,k) = G(n+1,k) - G(n,k). Summing it
over a rectangle yields the boundary identity

    sum_{n=0}^{N} F(n,0) = sum_{n=0}^{N} F(n,K)
                           + sum_{k=1}^{K} [G(N+1,k) - G(0,k)],

and each pair's F(n,0) reproduces (up to a registered sign) the summand
of one of the congruence-series cases in the catalog. All evaluation is
exact; the grid checks tolerate zero violations.

Each pair's `definition` string is the paper's form of F and G, in
Pochhammer symbols or binomials. The cells evaluate the same terms in one
form: a signed product of binomials with linear arguments and linear
factors, over one integer, times a power of two, built as one Fraction by
`_cell`. The tests check every cell against its definition string.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .combinat import binomial
from .exactnum import Rational

Cell = Callable[[int, int], Rational]


@dataclass(frozen=True)
class WzPair:
    """A registered pair: evaluators plus the summand linkage."""

    id: str
    f: Cell
    g: Cell
    series: str         # catalog series (congruences.SERIES) whose terms F(n,0) gives
    alternating: bool   # True when F(n,0) = (-1)^n * term(n)
    definition: str


@dataclass
class GridReport:
    """Outcome of an exhaustive grid check; pass means no violations."""

    pair_id: str
    n_max: int
    k_max: int
    cells_checked: int = 0
    violations: list = field(default_factory=list)  # (n, k, lhs, rhs)

    @property
    def passed(self) -> bool:
        return not self.violations


def _cell(num: int, den: int, e: int) -> Fraction:
    """num 2^e / den as one Fraction: its only gcd."""
    return Fraction(num << e, den) if e >= 0 else Fraction(num, den << -e)


# Each cell below is its registered definition rewritten over binomials with
# linear arguments, with C(m, j) = 0 for j < 0 or j > m >= 0: these vanish on
# their own at n = 0 and off the support, so no cell has a special case.

def _f_gz(n: int, k: int) -> Fraction:
    c = 10 * n * n + 12 * n * k + 6 * n + 4 * k * k + 4 * k + 1
    return _cell((-1) ** n * c * binomial(2 * n, n)
                 * (binomial(2 * n + 2 * k, n + k) * binomial(n + k, k)) ** 4,
                 binomial(2 * k, k) ** 4, -8 * n)


def _g_gz(n: int, k: int) -> Fraction:
    return _cell((-1) ** n * n * (n + 2 * k - 1) * binomial(2 * n, n)
                 * (binomial(2 * n + 2 * k - 2, n + k - 1) * binomial(n + k - 1, k)) ** 4,
                 binomial(2 * k, k) ** 4, 9 - 8 * n)


def _f_guo(n: int, k: int) -> Fraction:
    return _cell((-1) ** (n + k) * (4 * n + 1) * binomial(2 * n, n) ** 2
                 * binomial(2 * n + 2 * k, n + k) * binomial(n + k, 2 * k),
                 binomial(2 * k, k), 2 * k - 6 * n)


def _g_guo(n: int, k: int) -> Fraction:
    return _cell((-1) ** (n + k) * (2 * n - 1) ** 2 * binomial(2 * n - 2, n - 1) ** 2
                 * binomial(2 * n + 2 * k - 2, n + k - 1) * binomial(n + k - 1, 2 * k - 1),
                 2 * k * binomial(2 * k, k), 2 * k - 6 * n + 5)


def _f_gl(n: int, k: int) -> Fraction:
    return _cell((-1) ** (n + k + 1) * (4 * n - 1) * (2 * k - 1) ** 2 * binomial(2 * n, n) ** 2
                 * binomial(2 * n + 2 * k, n + k) * binomial(n + k, 2 * k),
                 (2 * n - 1) ** 2 * (2 * n + 2 * k - 1) * binomial(2 * k, k), 2 * k - 6 * n)


def _g_gl(n: int, k: int) -> Fraction:
    return _cell((-1) ** (n + k + 1) * n * n * (2 * k - 1) ** 2 * binomial(2 * n, n) ** 2
                 * binomial(2 * n + 2 * k - 2, n + k - 1) * binomial(n + k - 1, 2 * k - 1),
                 (2 * n - 1) ** 2 * (2 * n + 2 * k - 3) * k * binomial(2 * k, k),
                 2 * k - 6 * n + 2)


def _f_z20(n: int, k: int) -> Fraction:
    return _cell((-1) ** (n + k) * (20 * n - 2 * k + 3) * binomial(2 * n, n)
                 * binomial(4 * n + 2 * k, 2 * n + k) * binomial(2 * n + k, 2 * k)
                 * binomial(2 * n - k, n),
                 binomial(2 * k, k), 2 * k - 10 * n)


def _g_z20(n: int, k: int) -> Fraction:
    return _cell((-1) ** (n + k) * n * binomial(2 * n - 1, n - 1)
                 * binomial(4 * n + 2 * k - 2, 2 * n + k - 1) * binomial(2 * n + k - 1, 2 * k)
                 * binomial(2 * n - k - 1, n - 1),
                 binomial(2 * k, k), 2 * k - 10 * n + 8)


PAIRS: dict[str, WzPair] = {
    "GZ10N2": WzPair(
        id="GZ10N2",
        f=_f_gz, g=_g_gz, series="gz10n2", alternating=False,
        definition=("F(n,k) = (10n^2+12nk+6n+4k^2+4k+1) (1/2)_n (1/2+k)_n^4 / (1)_n^5 * (-1)^n 4^n ; "
                    "G(n,k) = (n+2k-1) (1/2)_n (1/2+k)_(n-1)^4 / (1)_(n-1)^5 * (-1)^n 2^(2n+1) ; "
                    "F(n,0) = (10n^2+6n+1) (-4)^n (1/2)_n^5 / (1)_n^5"),
    ),
    "GUO64": WzPair(
        id="GUO64",
        f=_f_guo, g=_g_guo, series="guo64", alternating=False,
        definition=("F(n,k) = (-1)^(n+k) (4n+1) 4^(k-3n) C(2n,n)^2 C(2n+2k,n+k) C(n+k,2k) / C(2k,k) ; "
                    "G(n,k) = (-1)^(n+k) (2n-1)^2 C(2n-2,n-1)^2 4^(k-3(n-1))/2 C(2n-2+2k,n-1+k) "
                    "C(n-1+k,2k)/(n-k) / C(2k,k), the singular factor taken in cancelled form "
                    "prod_{j=1}^{2k-1}(n-k+j)/(2k)! ; F(n,0) = (4n+1) C(2n,n)^3 / (-64)^n"),
    ),
    "GL4K1": WzPair(
        id="GL4K1",
        f=_f_gl, g=_g_gl, series="glr", alternating=False,
        definition=("F(n,k) = (-1)^(n+k) (4n-1) (-1/2)_n^2 (-1/2)_(n+k) / ((1)_n^2 (1)_(n-k) (-1/2)_k^2) ; "
                    "G(n,k) = (-1)^(n+k) 2 (-1/2)_n^2 (-1/2)_(n+k-1) / ((1)_(n-1)^2 (1)_(n-k) (-1/2)_k^2), "
                    "with 1/(1)_m = 0 for m < 0 ; F(n,0) = (-1)^n (4n-1) (-1/2)_n^3 / (1)_n^3"),
    ),
    "Z20N3": WzPair(
        id="Z20N3",
        f=_f_z20, g=_g_z20, series="z20n3-raw", alternating=True,
        definition=("F(n,k) = (-1)^(n+k) (20n-2k+3) 4^(k-5n) C(2n,n) C(4n+2k,2n+k) C(2n+k,2k) "
                    "C(2n-k,n) / C(2k,k) ; "
                    "G(n,k) = (-1)^(n+k) 4^(k-5n+4) n C(2n-1,n-1) C(4n-2+2k,2n-1+k) C(2n-1+k,2k) "
                    "C(2n-1-k,n-1) / C(2k,k) ; "
                    "F(n,0) = (-1)^n (20n+3) (1/2)_n (1/2)_(2n) / ((1)_n^3 16^n)"),
    ),
}


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
    return get_pair(pair).f(n, k)


def eval_G(pair, n: int, k: int) -> Rational:
    """Exact value of G at a grid cell; n >= 0, k >= 1. G(0, k) = 0."""
    if n < 0 or k < 1:
        raise ValueError(f"G needs n >= 0 and k >= 1, got ({n}, {k})")
    return get_pair(pair).g(n, k)


def summand_sign(pair, n: int) -> int:
    """Sign linking F(n,0) to the congruence-series summand at n."""
    return -1 if (get_pair(pair).alternating and n % 2) else 1


def check_telescoping(pair, n_max: int, k_max: int) -> GridReport:
    """Assert F(n,k-1) - F(n,k) = G(n+1,k) - G(n,k) on the full grid.

    Each cell is evaluated once: F(n,k) is carried to the next column as
    F(n,k-1), and the row G(n+1, .) to the next row as G(n, .)."""
    pair = get_pair(pair)
    if n_max < 1 or k_max < 1:
        raise ValueError("grid bounds must be >= 1")
    report = GridReport(pair.id, n_max, k_max)
    g_row = [pair.g(0, k) for k in range(1, k_max + 1)]
    for n in range(n_max + 1):
        f_prev, g_next = pair.f(n, 0), []
        for k, g in enumerate(g_row, start=1):
            f, g1 = pair.f(n, k), pair.g(n + 1, k)
            lhs, rhs = f_prev - f, g1 - g
            report.cells_checked += 1
            if lhs != rhs:
                report.violations.append((n, k, lhs, rhs))
            f_prev = f
            g_next.append(g1)
        g_row = g_next
    return report


def check_summand(pair, n_max: int) -> GridReport:
    """Assert F(n,0) = summand_sign(n) * t_n for 0 <= n <= n_max, where t_n
    is the n-th term of the pair's catalog series (SeriesSpec.terms)."""
    from .congruences import SERIES     # congruences imports this module
    pair = get_pair(pair)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    report = GridReport(pair.id, n_max, 0)
    for n, term in enumerate(SERIES[pair.series].terms(n_max)):
        lhs = pair.f(n, 0)
        rhs = summand_sign(pair, n) * term
        report.cells_checked += 1
        if lhs != rhs:
            report.violations.append((n, 0, lhs, rhs))
    return report


def _boundary_sides(pair, N: int, K: int) -> tuple[Rational, Rational]:
    pair = get_pair(pair)
    lhs = sum(pair.f(n, 0) for n in range(N + 1))
    rhs = (sum(pair.f(n, K) for n in range(N + 1))
           + sum(pair.g(N + 1, k) - pair.g(0, k) for k in range(1, K + 1)))
    return lhs, rhs


def boundary_identity(pair, N: int, K: int) -> bool:
    """Exact double-telescoping consequence over the rectangle [0,N]x[1,K]."""
    if N < 0 or K < 1:
        raise ValueError(f"need N >= 0 and K >= 1, got ({N}, {K})")
    lhs, rhs = _boundary_sides(pair, N, K)
    return lhs == rhs
