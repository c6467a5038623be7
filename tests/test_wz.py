from fractions import Fraction as F
from math import factorial, prod

import pytest

from supercong import combinat, wz
from supercong.combinat import binomial
from supercong.wz import (PAIRS, boundary_identity, check_summand,
                          check_telescoping, eval_F, eval_G, get_pair)
from supercong.congruences import SERIES

from helpers import pochhammer

ALL = sorted(PAIRS)


def test_pair_registry():
    assert ALL == ["GL4K1", "GUO64", "GZ10N2", "Z20N3"]
    assert get_pair("GUO64").id == "GUO64"
    assert get_pair(PAIRS["GZ10N2"]) is PAIRS["GZ10N2"]
    with pytest.raises(ValueError):
        get_pair("nope")


def test_known_cells_five_factor_pair():
    for k in range(11):
        assert eval_F("GZ10N2", 0, k) == (2 * k + 1) ** 2
    assert eval_G("GZ10N2", 1, 1) == -8
    assert eval_F("GZ10N2", 2, 1) == F(12909375, 2048)
    assert eval_G("GZ10N2", 2, 2) == F(9375, 2)
    assert eval_G("GZ10N2", 0, 3) == 0


def test_known_cells_4n_plus_1_pair():
    assert eval_F("GUO64", 1, 1) == F(15, 4)
    assert eval_G("GUO64", 1, 1) == 1
    assert eval_G("GUO64", 2, 1) == F(-27, 8)
    assert eval_F("GUO64", 2, 1) == F(-1215, 128)
    assert eval_G("GUO64", 3, 2) == F(-2625, 128)


def test_known_cells_4n_minus_1_pair():
    assert eval_F("GL4K1", 2, 1) == F(21, 128)
    assert eval_G("GL4K1", 2, 1) == F(1, 8)
    assert eval_G("GL4K1", 1, 1) == -1


HALF, NEG_HALF = F(1, 2), F(-1, 2)


def recip_fact(m):
    """1/(1)_m, with 1/(1)_m = 0 for m < 0 as the definitions state."""
    return 0 if m < 0 else F(1, factorial(m))


def gz_f(n, k):
    c = 10 * n * n + 12 * n * k + 6 * n + 4 * k * k + 4 * k + 1
    return (c * pochhammer(HALF, n) * pochhammer(HALF + k, n) ** 4 * recip_fact(n) ** 5
            * (-1) ** n * 4 ** n)


def gz_g(n, k):
    if n == 0:
        return 0    # 1/(1)_(-1) = 0
    return ((n + 2 * k - 1) * pochhammer(HALF, n) * pochhammer(HALF + k, n - 1) ** 4
            * recip_fact(n - 1) ** 5 * (-1) ** n * F(2) ** (2 * n + 1))


def guo_f(n, k):
    return ((-1) ** (n + k) * (4 * n + 1) * F(4) ** (k - 3 * n) * binomial(2 * n, n) ** 2
            * binomial(2 * n + 2 * k, n + k) * binomial(n + k, 2 * k) / binomial(2 * k, k))


def guo_g(n, k):
    # C(n-1+k, 2k)/(n-k) in the cancelled form the definition states
    cancelled = F(prod(n - k + j for j in range(1, 2 * k)), factorial(2 * k))
    return ((-1) ** (n + k) * (2 * n - 1) ** 2 * binomial(2 * n - 2, n - 1) ** 2
            * F(4) ** (k - 3 * (n - 1)) / 2 * binomial(2 * n - 2 + 2 * k, n - 1 + k)
            * cancelled / binomial(2 * k, k))


def gl_f(n, k):
    return ((-1) ** (n + k) * (4 * n - 1) * pochhammer(NEG_HALF, n) ** 2
            * pochhammer(NEG_HALF, n + k) * recip_fact(n) ** 2 * recip_fact(n - k)
            / pochhammer(NEG_HALF, k) ** 2)


def gl_g(n, k):
    return ((-1) ** (n + k) * 2 * pochhammer(NEG_HALF, n) ** 2
            * pochhammer(NEG_HALF, n + k - 1) * recip_fact(n - 1) ** 2 * recip_fact(n - k)
            / pochhammer(NEG_HALF, k) ** 2)


def z20_f(n, k):
    return ((-1) ** (n + k) * (20 * n - 2 * k + 3) * F(4) ** (k - 5 * n) * binomial(2 * n, n)
            * binomial(4 * n + 2 * k, 2 * n + k) * binomial(2 * n + k, 2 * k)
            * binomial(2 * n - k, n) / binomial(2 * k, k))


def z20_g(n, k):
    return ((-1) ** (n + k) * F(4) ** (k - 5 * n + 4) * n * binomial(2 * n - 1, n - 1)
            * binomial(4 * n - 2 + 2 * k, 2 * n - 1 + k) * binomial(2 * n - 1 + k, 2 * k)
            * binomial(2 * n - 1 - k, n - 1) / binomial(2 * k, k))


# each pair's F and G as its registered definition states them
DEFINITIONS = {"GZ10N2": (gz_f, gz_g), "GUO64": (guo_f, guo_g),
               "GL4K1": (gl_f, gl_g), "Z20N3": (z20_f, z20_g)}

# k <= n <= 24, the first cells past the diagonal, and a few at n = 300; with
# n = 0, GUO64's n = k cells, and Z20N3's k > 2n cell (0, 1), where C(2n-k, n)
# has a negative upper index; and the diagonal cells F(P-1, P-1) that LEM-3.1,
# 4.1 and 5.1 read at P = 7^2 and 11^2
DEFINITION_CELLS = ([(n, k) for n in range(25) for k in range(n + 1)]
                    + [(n, n + 1) for n in range(6)]
                    + [(300, k) for k in (0, 1, 2, 150, 299, 300, 301)]
                    + [(48, 48), (120, 120)])


@pytest.mark.parametrize("pid", ALL)
def test_cells_equal_registered_definition(pid):
    f_def, g_def = DEFINITIONS[pid]
    for n, k in DEFINITION_CELLS:
        assert eval_F(pid, n, k) == f_def(n, k), (pid, n, k)
        if k >= 1:
            assert eval_G(pid, n, k) == g_def(n, k), (pid, n, k)


@pytest.mark.parametrize("pid", ALL)
def test_one_fraction_per_cell(monkeypatch, pid):
    """Each eval_F and eval_G call builds exactly one Fraction, and returns
    it; the pair's f and g return the unreduced (numerator, denominator)."""
    built = []

    class Counted(F):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(wz, "Fraction", Counted)
    assert not hasattr(combinat, "Fraction")    # combinat builds no Fraction
    pair = PAIRS[pid]
    for n in range(8):
        for k in range(10):
            for name, cell, public in (("f", pair.f, eval_F),
                                       ("g", pair.g, eval_G))[:1 + (k > 0)]:
                built.clear()
                value = public(pid, n, k)
                assert len(built) == 1 and type(value) is Counted, (name, n, k, built)
                num, den = cell(n, k)
                assert type(num) is int and type(den) is int and value == F(num, den)


def layout(desc, n, k):
    """e and the factors (n_i, m_i, j_i) of a description at (n, k), flattened."""
    c, e, *factors = desc(n, k)
    assert all(len(f) == 3 for f in factors)
    return [e, *(x for f in factors for x in f)]


@pytest.mark.parametrize("pid", ALL)
def test_cell_descriptions_are_linear(pid):
    """Each description keeps one factor layout, and e and every binomial
    argument are linear in (n, k): equal to their interpolation from the
    descriptions at (0, 0), (1, 0) and (0, 1)."""
    for desc in wz.CELLS[pid]:
        at0, at_n, at_k = layout(desc, 0, 0), layout(desc, 1, 0), layout(desc, 0, 1)
        for n in range(13):
            for k in range(13):
                assert layout(desc, n, k) == [a + n * (b - a) + k * (c - a) for a, b, c
                                              in zip(at0, at_n, at_k)], (pid, n, k)


@pytest.mark.parametrize("pid", ALL)
def test_diagonal_cell_builds_its_central_binomial_at_most_once(monkeypatch, pid):
    # at n = k the C(2n, n) above the line and the C(2k, k) below it cancel
    # before any binomial is built
    args = []

    def counted(n, m):
        args.append((n, m))
        return binomial(n, m)

    monkeypatch.setattr(combinat, "binomial", counted)
    assert eval_F(pid, 30, 30) == DEFINITIONS[pid][0](30, 30)
    assert args.count((60, 30)) <= 1, args


def test_known_cells_20n_plus_3_pair():
    assert eval_F("Z20N3", 1, 0) == F(-69, 128)
    assert eval_F("Z20N3", 2, 1) == F(-116235, 32768)
    assert eval_G("Z20N3", 1, 1) == 3
    assert eval_G("Z20N3", 2, 2) == F(315, 64)


def test_g_vanishes_at_n_zero():
    for pid in ALL:
        for k in range(1, 7):
            assert eval_G(pid, 0, k) == 0, (pid, k)


def test_support_vanishes_below_diagonal():
    # the binomial-product pairs are supported on k <= n
    for pid in ("GUO64", "Z20N3"):
        for n in range(8):
            for k in range(n + 1, 9):
                assert eval_F(pid, n, k) == 0, (pid, n, k)
                if n >= 1:
                    assert eval_G(pid, n, k + 1) == 0, (pid, n, k)


def test_argument_validation():
    with pytest.raises(ValueError):
        eval_F("GUO64", -1, 0)
    with pytest.raises(ValueError):
        eval_F("GUO64", 0, -1)
    with pytest.raises(ValueError):
        eval_G("GUO64", -1, 1)
    with pytest.raises(ValueError):
        eval_G("GUO64", 0, 0)
    with pytest.raises(ValueError):
        check_telescoping("GUO64", 0, 5)


def test_telescoping_small_grids():
    for pid in ALL:
        report = check_telescoping(pid, 12, 12)
        assert report.passed, (pid, report.violations[:3])
        assert report.cells_checked > 0


def counted(pair):
    """The pair with f and g wrapped to count their calls."""
    calls = {"f": 0, "g": 0}

    def count(name, fn):
        def cell(n, k):
            calls[name] += 1
            return fn(n, k)
        return cell

    return pair._replace(f=count("f", pair.f), g=count("g", pair.g)), calls


def test_telescoping_evaluates_each_cell_once():
    # F on [0,40]x[0,40] and G on [0,41]x[1,40]: 41^2 and 42 * 40 cells
    for pid in ALL:
        pair, calls = counted(PAIRS[pid])
        assert check_telescoping(pair, 40, 40).passed, pid
        assert calls == {"f": 1681, "g": 1680}, pid


def naive_violations(pair, n_max, k_max):
    """The telescoping check cell by cell, evaluating both sides afresh."""
    out = []
    for n in range(n_max + 1):
        for k in range(1, k_max + 1):
            lhs = eval_F(pair, n, k - 1) - eval_F(pair, n, k)
            rhs = eval_G(pair, n + 1, k) - eval_G(pair, n, k)
            if lhs != rhs:
                out.append((n, k, lhs, rhs))
    return out


def shifted(cell, cells, d):
    """cell, an unreduced (num, den) evaluator, plus d at the given cells."""
    def out(n, k):
        num, den = cell(n, k)
        return (num + d * den, den) if (n, k) in cells else (num, den)
    return out


def test_telescoping_violations_in_grid_order():
    good = PAIRS["GUO64"]
    bad = good._replace(f=shifted(good.f, ((3, 5), (7, 0)), 1),
                        g=shifted(good.g, ((4, 2),), -1))
    report = check_telescoping(bad, 12, 12)
    assert [v[:2] for v in report.violations] == \
        [(3, 2), (3, 5), (3, 6), (4, 2), (7, 1)]
    assert report.violations == naive_violations(bad, 12, 12)
    assert report.cells_checked == 13 * 12


def test_passing_grid_builds_no_fraction(monkeypatch):
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    eval_F("GUO64", 2, 1)
    assert len(built) == 1          # the count sees a cell's Fraction
    built.clear()
    for pid in ALL:
        assert check_telescoping(pid, 40, 40).passed, pid
    assert built == []


def test_summand_column_linkage():
    for pid in ALL:
        assert check_summand(pid, 60).passed, pid


def test_series_terms_equal_boundary_column():
    # the congruence-catalog generators are the k = 0 column of each pair
    checks = [("gz10n2", "GZ10N2"), ("guo64", "GUO64"), ("glr", "GL4K1"),
              ("z20n3-signed", "Z20N3")]
    for gen_name, pid in checks:
        terms = list(SERIES[gen_name].terms(40))
        for n, t in enumerate(terms):
            assert t == eval_F(pid, n, 0), (gen_name, n)
    # the unsigned variant differs from the column by (-1)^n
    raw = list(SERIES["z20n3-raw"].terms(40))
    for n, t in enumerate(raw):
        assert t == (-1) ** n * eval_F("Z20N3", n, 0), n


def test_boundary_identity_full_window():
    # sum_{n<=N} F(n,0) = sum_{n<=N} F(n,K) + sum_{k<=K} [G(N+1,k) - G(0,k)]
    # checked for every 0 <= N <= 30, 1 <= K <= 30 via cached tables
    for pid in ALL:
        f = [[eval_F(pid, n, k) for k in range(31)] for n in range(32)]
        g = [[None] + [eval_G(pid, n, k) for k in range(1, 31)] for n in range(32)]
        for K in range(1, 31):
            lhs = rhs_f = F(0)
            for N in range(31):
                lhs += f[N][0]
                rhs_f += f[N][K]
                rhs = rhs_f + sum(g[N + 1][k] for k in range(1, K + 1))
                assert lhs == rhs, (pid, N, K)


def test_boundary_identity_api():
    assert boundary_identity("GZ10N2", 2, 2)
    assert boundary_identity("GUO64", 3, 2)
    assert boundary_identity("Z20N3", 5, 3)
    assert boundary_identity("GL4K1", 6, 4)
    with pytest.raises(ValueError):
        boundary_identity("GUO64", -1, 1)
    with pytest.raises(ValueError):
        boundary_identity("GUO64", 3, 0)
