import pickle
import random
from fractions import Fraction as F

import pytest

from supercong.exactnum import INFINITE, PNotIntegral, is_prime, residue, vp


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes), n


def test_vp_basics():
    assert vp(0, 5) == INFINITE
    assert vp(50, 5) == 2
    assert vp(-50, 5) == 2
    assert vp(F(7, 50), 5) == -2
    assert vp(F(125, 3), 5) == 3
    assert vp(F(6, 7), 5) == 0


def test_vp_rejects_bad_p():
    for p in (1, 4, 6, 9, -5, 2):
        with pytest.raises(ValueError):
            vp(10, p)


def test_infinite_ordering():
    assert INFINITE > 10 ** 100
    assert INFINITE >= INFINITE
    assert not (INFINITE < 0)
    assert INFINITE == INFINITE
    assert 5 < INFINITE
    assert not (INFINITE <= 7)
    # min() over mixed valuations picks the finite one
    assert min([INFINITE, 5, 9]) == 5
    assert min([3, INFINITE]) == 3


def test_infinite_survives_pickling():
    clone = pickle.loads(pickle.dumps(INFINITE))
    assert clone == INFINITE


def test_vp_is_additive():
    rng = random.Random(7)
    for p in (3, 5, 7):
        for _ in range(200):
            x = F(rng.randint(-400, 400), rng.randint(1, 400))
            y = F(rng.randint(-400, 400), rng.randint(1, 400))
            if x == 0 or y == 0:
                continue
            assert vp(x * y, p) == vp(x, p) + vp(y, p)


def test_residue_validation():
    assert residue(F(-1), 5, 2) == 24
    with pytest.raises(ValueError):
        residue(F(1), 4, 2)
    with pytest.raises(ValueError):
        residue(F(1), 2, 2)
    with pytest.raises(ValueError):
        residue(F(1), 5, 0)


def test_residue_worked_example():
    assert residue(F(7, 6), 5, 2) == 22


def test_residue_matches_valuation_congruence():
    rng = random.Random(11)
    for _ in range(200):
        x = F(rng.randint(-500, 500), rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 10]))
        y = F(rng.randint(-500, 500), rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 10]))
        assert (vp(x - y, 7) >= 3) == (residue(x, 7, 3) == residue(y, 7, 3))


def test_residue_rejects_p_in_denominator():
    with pytest.raises(PNotIntegral):
        residue(F(1, 5), 5, 1)
    with pytest.raises(PNotIntegral):
        residue(F(3, 50), 5, 4)

