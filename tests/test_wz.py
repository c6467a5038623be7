import dataclasses
from fractions import Fraction as F
from math import prod

import pytest

from supercong import combinat, wz
from supercong.combinat import binomial, factorial, pochhammer, recip_pochhammer
from supercong.wz import (PAIRS, boundary_identity, check_summand,
                          check_telescoping, eval_F, eval_G, get_pair,
                          summand_sign)
from supercong.congruences import SERIES

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
    return recip_pochhammer(1, m)


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
# has a negative upper index
DEFINITION_CELLS = ([(n, k) for n in range(25) for k in range(n + 1)]
                    + [(n, n + 1) for n in range(6)]
                    + [(300, k) for k in (0, 1, 2, 150, 299, 300, 301)])


@pytest.mark.parametrize("pid", ALL)
def test_cells_equal_registered_definition(pid):
    f_def, g_def = DEFINITIONS[pid]
    for n, k in DEFINITION_CELLS:
        assert eval_F(pid, n, k) == f_def(n, k), (pid, n, k)
        if k >= 1:
            assert eval_G(pid, n, k) == g_def(n, k), (pid, n, k)


@pytest.mark.parametrize("pid", ALL)
def test_one_fraction_per_cell(monkeypatch, pid):
    """Each f and g call builds exactly one Fraction, and returns it."""
    built = []

    class Counted(F):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(wz, "Fraction", Counted)
    monkeypatch.setattr(combinat, "Fraction", Counted)
    pair = PAIRS[pid]
    for n in range(8):
        for k in range(10):
            for name, cell in (("f", pair.f), ("g", pair.g))[:1 + (k > 0)]:
                built.clear()
                value = cell(n, k)
                assert len(built) == 1 and type(value) is Counted, (name, n, k, built)


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

    return dataclasses.replace(pair, f=count("f", pair.f), g=count("g", pair.g)), calls


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
            lhs = pair.f(n, k - 1) - pair.f(n, k)
            rhs = pair.g(n + 1, k) - pair.g(n, k)
            if lhs != rhs:
                out.append((n, k, lhs, rhs))
    return out


def test_telescoping_violations_in_grid_order():
    good = PAIRS["GUO64"]
    bad = dataclasses.replace(
        good, f=lambda n, k: good.f(n, k) + ((n, k) in ((3, 5), (7, 0))),
        g=lambda n, k: good.g(n, k) - ((n, k) == (4, 2)))
    report = check_telescoping(bad, 12, 12)
    assert [v[:2] for v in report.violations] == \
        [(3, 2), (3, 5), (3, 6), (4, 2), (7, 1)]
    assert report.violations == naive_violations(bad, 12, 12)
    assert report.cells_checked == 13 * 12


def test_summand_column_linkage():
    for pid in ALL:
        assert check_summand(pid, 60).passed, pid


def test_summand_sign():
    for n in range(10):
        assert summand_sign("Z20N3", n) == (-1) ** n
        for pid in ("GZ10N2", "GUO64", "GL4K1"):
            assert summand_sign(pid, n) == 1


def test_series_terms_equal_boundary_column():
    # the congruence-catalog generators are the k = 0 column of each pair
    checks = [("gz10n2", "GZ10N2"), ("guo64", "GUO64"), ("glr", "GL4K1"),
              ("z20n3-signed", "Z20N3")]
    for gen_name, pid in checks:
        terms = list(SERIES[gen_name].terms(40))
        for n, t in enumerate(terms):
            assert t == eval_F(pid, n, 0), (gen_name, n)
    # the unsigned variant differs from the column by the registered sign
    raw = list(SERIES["z20n3-raw"].terms(40))
    for n, t in enumerate(raw):
        assert t == summand_sign("Z20N3", n) * eval_F("Z20N3", n, 0), n


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
