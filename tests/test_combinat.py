import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from supercong.combinat import (binomial, central_binomial, euler_number,
                                fermat_quotient, lucas_product)
from supercong.congruences import _series_exact, get_case
from supercong.exactnum import is_prime, vp

from helpers import binomial_rat, harmonic


def spec_harmonic(n, order=1):
    """H_n^(order), order 1 or 2, as the verifier sums it: the h1 or h2 spec."""
    return _series_exact.__wrapped__("h1" if order == 1 else "h2", n, ())


def test_central_binomial_table():
    for m in range(80):
        assert central_binomial(m) == math.comb(2 * m, m)
    with pytest.raises(ValueError):
        central_binomial(-1)


@pytest.mark.parametrize("fn", [central_binomial])
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


def test_binomial_rat_agrees_on_integer_upper():
    # the falling-factorial definition against the signed integer binomial
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


def test_harmonic_frozen_values():
    # the h1 and h2 specs against frozen values and the plain-sum reference
    for H in (harmonic, spec_harmonic):
        assert H(0) == 0 and H(0, 2) == 0
        assert H(4) == F(25, 12)
        assert H(4, 2) == F(205, 144)
    for n in (1, 2, 7, 30, 200):
        assert spec_harmonic(n) == harmonic(n) and spec_harmonic(n, 2) == harmonic(n, 2), n


def test_binomial_scalars_read_the_h1_sum():
    # BIN-3.5 and BIN-3.7 state their right sides through H_(p^r-1) and
    # H_((p-1)/2), which the verifier reads from the h1 spec's pass
    for p in (5, 7, 11, 13):
        for r in (1, 2):
            P = p ** r
            sign = -1 if (P - 1) // 2 % 2 else 1
            assert get_case("BIN-3.5").rhs(p, r) == 2 * (1 - 3 * P * harmonic(P - 1))
            assert get_case("BIN-3.7").rhs(p, r) == \
                sign * (1 - 2 * p * harmonic((p - 1) // 2)), (p, r)


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
    # C(n, k) mod p as lucas_product reads the single factor (n, k, 1)
    assert lucas_product(5, 1, 0, (10, 5, 1)) == 2
    assert lucas_product(3, 1, 0, (6, 4, 1)) == 0


def test_lucas_residue_matches_binomial():
    for p in (3, 5, 7):
        for n in range(200):
            for k in range(n + 1):
                assert lucas_product(p, 1, 0, (n, k, 1)) == math.comb(n, k) % p, (n, k, p)


def test_wolstenholme_harmonic():
    # H_(p-1) = 0 (mod p^2) and H_(p-1)^(2) = 0 (mod p) for p > 3
    for p in range(5, 101):
        if not is_prime(p):
            continue
        assert vp(spec_harmonic(p - 1), p) >= 2, p
        assert vp(spec_harmonic(p - 1, 2), p) >= 1, p


def test_half_harmonic_vs_fermat_quotient():
    for p in range(3, 101):
        if not is_prime(p):
            continue
        assert vp(spec_harmonic((p - 1) // 2) + 2 * fermat_quotient(p), p) >= 1, p
