"""The ratio-stepped slice kernel behind every certificate sum in _SUMS,
against sums known in closed form and against the WZ cells."""
from fractions import Fraction
from math import comb

import pytest

from supercong import wz
from supercong.congruences import CheckParams, _ratio_slices, series_sum_exact


def binomial_step(n):
    # C(n, k+1) = C(n, k) (n - k) / (k + 1)
    return lambda k: (n - k, k + 1)


def test_binomial_row_sums_to_power_of_two():
    for n in (0, 1, 7, 40):
        assert tuple(_ratio_slices(1, binomial_step(n), 0, (n,), (1,))) == (2 ** n,)
    # sum k C(n,k) = n 2^(n-1), and t0 scales every slice
    assert tuple(_ratio_slices(Fraction(1, 3), binomial_step(12), 0, (12,), (0, 1))) \
        == (Fraction(12 * 2 ** 11, 3),)


def test_slices_partition_the_range():
    n = 30
    got = tuple(_ratio_slices(1, binomial_step(n), 0, (9, 10, n), (1,)))
    assert got == (sum(comb(n, k) for k in range(10)), comb(n, 10),
                   sum(comb(n, k) for k in range(11, n + 1)))
    # a nonzero start: the sequence starts at lo with u_lo = 1
    assert tuple(_ratio_slices(comb(n, 5), binomial_step(n), 5, (8,), (1,))) \
        == (sum(comb(n, k) for k in range(5, 9)),)


def test_empty_and_single_term_slices():
    step = binomial_step(10)
    assert tuple(_ratio_slices(1, step, 3, (2,), (1,))) == (0,)
    assert tuple(_ratio_slices(1, step, 0, (4, 4, 6), (1,))) \
        == (sum(comb(10, k) for k in range(5)), 0, comb(10, 5) + comb(10, 6))
    assert tuple(_ratio_slices(1, step, 0, range(11), (1,))) \
        == tuple(comb(10, k) for k in range(11))
    assert tuple(_ratio_slices(7, step, 0, (0,), (1,))) == (7,)
    assert all(isinstance(s, Fraction) for s in _ratio_slices(1, step, 0, (0, 2), (1,)))


def test_step_is_called_below_the_last_end_only():
    calls = []

    def step(k):
        calls.append(k)
        return (1, 0) if k == 5 else (2, 1)     # a zero b_k past the range

    assert tuple(_ratio_slices(1, step, 0, (2, 5), (1,))) == (7, 56)
    assert calls == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (5, 2)])
def test_lem21_sum_matches_wz_cells(p, r):
    P = p ** r
    K = (P - 1) // 2
    cells = [wz.eval_F("GZ10N2", n, K) for n in range(P)]
    for delta in (1, 2):
        got = series_sum_exact("LEM-2.1", CheckParams(p=p, r=r, delta=delta))
        assert got == sum(cells[:(P - 1) // delta + 1]), (p, r, delta)
    cap = P // 3
    got = series_sum_exact("LEM-2.1", CheckParams(p=p, r=r, delta=1, upper_override=cap))
    assert got == sum(cells[:cap + 1])
