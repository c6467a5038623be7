import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from supercong.combinat import (DivisionByZero, UnsupportedConvention, binomial,
                                binomial_rat, central_binomial, euler_number,
                                factorial, fermat_quotient, harmonic,
                                lucas_residue, neg_half, odd_product, pochhammer,
                                pochhammer_half, pochhammer_neg_half,
                                recip_pochhammer)
from supercong.exactnum import PadicContext, congruent, is_prime, vp


def test_factorial_table():
    assert [factorial(n) for n in range(7)] == [1, 1, 2, 6, 24, 120, 720]
    assert factorial(40) == math.factorial(40)
    with pytest.raises(ValueError):
        factorial(-1)


def test_odd_product_matches_double_factorial():
    for m in range(200):
        assert odd_product(m) == math.prod(range(1, 2 * m, 2))
    with pytest.raises(ValueError):
        odd_product(-1)


def test_central_binomial_table():
    for m in range(80):
        assert central_binomial(m) == math.comb(2 * m, m)
    with pytest.raises(ValueError):
        central_binomial(-1)


@pytest.mark.parametrize("fn", [factorial, central_binomial, odd_product])
def test_large_arguments_retain_no_memory(fn):
    # a table of every value up to n = 10 000 would hold hundreds of MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert fn(10_000) > 0
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, retained


def test_binomial_nonnegative_agrees_with_stdlib():
    for n in range(40):
        for k in range(45):
            assert binomial(n, k) == (math.comb(n, k) if k <= n else 0)


def test_binomial_negative_upper_reflection():
    assert binomial(-3, 2) == 6
    assert binomial(-1, 5) == -1
    for n in range(1, 30):
        for k in range(30):
            assert binomial(-n, k) == (-1) ** k * math.comb(n + k - 1, k)


def test_binomial_negative_lower_vanishes():
    for n in (-7, -1, 0, 3, 12):
        assert binomial(n, -1) == 0
        assert binomial(n, -4) == 0


def test_pascal_rule_holds_including_negative_upper():
    # 200 x 50 window crossing into negative upper arguments
    for n in range(-50, 150):
        for k in range(1, 50):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_rat_frozen_values():
    assert binomial_rat(F(-1, 2), 2) == F(3, 8)
    assert binomial_rat(F(-3, 2), 2) == F(15, 8)
    assert binomial_rat(F(1, 2), 0) == 1
    with pytest.raises(ValueError):
        binomial_rat(F(1, 2), -1)


def test_binomial_rat_agrees_on_integer_upper():
    for a in range(-30, 31):
        for k in range(21):
            assert binomial_rat(a, k) == binomial(a, k)


def test_subset_of_subset_identity():
    # C(n,k) C(k,j) = C(n,j) C(n-j,k-j)
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(0, 80)
        k = rng.randint(0, n)
        j = rng.randint(0, k)
        assert binomial(n, k) * binomial(k, j) == \
            binomial(n, j) * binomial(n - j, k - j)


def test_pochhammer_basics():
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert pochhammer(5, 0) == 1
    assert pochhammer(-2, 4) == 0
    with pytest.raises(ValueError):
        pochhammer(1, -1)


def test_pochhammer_half_closed_form():
    for n in range(101):
        assert pochhammer_half(n) / factorial(n) == F(central_binomial(n), 4 ** n)
        assert pochhammer_half(n) == pochhammer(F(1, 2), n)


def test_pochhammer_neg_half_matches_generic():
    for n in range(60):
        assert pochhammer_neg_half(n) == pochhammer(F(-1, 2), n)
        assert neg_half(n) == pochhammer(F(-1, 2), n) * 2 ** n
    with pytest.raises(ValueError):
        neg_half(-1)


def test_recip_pochhammer_conventions():
    for n in range(1, 20):
        assert recip_pochhammer(1, n) == F(1, factorial(n))
    for n in (-1, -2, -9):
        assert recip_pochhammer(1, n) == 0
    with pytest.raises(UnsupportedConvention):
        recip_pochhammer(F(1, 2), -1)
    with pytest.raises(DivisionByZero):
        recip_pochhammer(-2, 4)


def test_harmonic_frozen_values():
    assert harmonic(0) == 0
    assert harmonic(4) == F(25, 12)
    assert harmonic(4, 2) == F(205, 144)
    with pytest.raises(ValueError):
        harmonic(-1)
    with pytest.raises(ValueError):
        harmonic(3, 0)


def test_euler_numbers():
    # out of order: the largest index first, then smaller ones
    assert euler_number(44) == 7947579422597592703608040510088070619519273805
    assert [euler_number(n) for n in (0, 2, 4, 6, 8)] == [1, -1, 5, -61, 1385]
    for n in range(1, 16, 2):
        assert euler_number(n) == 0
    with pytest.raises(ValueError):
        euler_number(-1)


def test_fermat_quotient():
    assert fermat_quotient(5) == 3
    assert fermat_quotient(7) == 9
    assert fermat_quotient(11) == 93
    assert fermat_quotient(13) == 315
    for p in range(3, 100):
        if is_prime(p):
            assert fermat_quotient(p) * p == 2 ** (p - 1) - 1
    with pytest.raises(ValueError):
        fermat_quotient(9)


def test_lucas_residue_frozen():
    assert lucas_residue(10, 5, 5) == 2
    assert lucas_residue(6, 4, 3) == 0
    with pytest.raises(ValueError):
        lucas_residue(-1, 0, 5)


def test_lucas_residue_matches_binomial():
    for p in (3, 5, 7):
        for n in range(200):
            for k in range(n + 1):
                assert lucas_residue(n, k, p) == math.comb(n, k) % p, (n, k, p)


def test_wolstenholme_harmonic():
    # H_(p-1) = 0 (mod p^2) and H_(p-1)^(2) = 0 (mod p) for p > 3
    for p in range(5, 101):
        if not is_prime(p):
            continue
        assert vp(harmonic(p - 1), p) >= 2, p
        assert vp(harmonic(p - 1, 2), p) >= 1, p


def test_half_harmonic_vs_fermat_quotient():
    for p in range(3, 101):
        if not is_prime(p):
            continue
        ctx = PadicContext(p, 1)
        assert congruent(harmonic((p - 1) // 2), -2 * fermat_quotient(p), ctx), p
