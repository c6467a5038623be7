"""The binary-split kernel (_Pass) behind every certificate sum in _SUMS,
against sums known in closed form and against the WZ cells; the step each
sum and each series spec derives from its description (_derive), against
the ratio of its terms; and the exact division that ends each of its sums."""
from fractions import Fraction
from math import comb
from unittest import mock

import pytest

from supercong import congruences, harness, wz
from supercong.combinat import binomial_product
from supercong.congruences import (_SUMS, SERIES, CheckParams, _derive, _over_power_of_two,
                                   _poly, series_sum_exact)
from supercong.exactnum import is_prime

from helpers import ratio_slices


def binomial_step(n):
    # C(n, k+1) = C(n, k) (n - k) / (k + 1)
    return lambda k: (n - k, k + 1)


def test_binomial_row_sums_to_power_of_two():
    for n in (0, 1, 7, 40):
        assert ratio_slices(1, binomial_step(n), 0, (n,), (1,)) == (2 ** n,)
    # sum k C(n,k) = n 2^(n-1), and t0 scales every slice
    assert ratio_slices(Fraction(1, 3), binomial_step(12), 0, (12,), (0, 1)) \
        == (Fraction(12 * 2 ** 11, 3),)


def test_slices_partition_the_range():
    n = 30
    got = ratio_slices(1, binomial_step(n), 0, (9, 10, n), (1,))
    assert got == (sum(comb(n, k) for k in range(10)), comb(n, 10),
                   sum(comb(n, k) for k in range(11, n + 1)))
    # a nonzero start: the sequence starts at lo with u_lo = 1
    assert ratio_slices(comb(n, 5), binomial_step(n), 5, (8,), (1,)) \
        == (sum(comb(n, k) for k in range(5, 9)),)


def test_empty_and_single_term_slices():
    step = binomial_step(10)
    assert ratio_slices(1, step, 3, (2,), (1,)) == (0,)
    assert ratio_slices(1, step, 0, (4, 4, 6), (1,)) \
        == (sum(comb(10, k) for k in range(5)), 0, comb(10, 5) + comb(10, 6))
    assert ratio_slices(1, step, 0, range(11), (1,)) \
        == tuple(comb(10, k) for k in range(11))
    assert ratio_slices(7, step, 0, (0,), (1,)) == (7,)
    assert all(isinstance(s, Fraction) for s in ratio_slices(1, step, 0, (0, 2), (1,)))


def test_step_is_called_below_the_last_end_only():
    calls = []

    def step(k):
        calls.append(k)
        return (1, 0) if k == 5 else (2, 1)     # a zero b_k past the range

    assert ratio_slices(1, step, 0, (2, 5), (1,)) == (7, 56)
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


@pytest.mark.parametrize("order", [(1, 2, 1, 2), (2, 1, 2, 1)],
                         ids=["delta1-first", "delta2-first"])
def test_lem21_window_is_one_prefix(monkeypatch, order):
    """Each LEM-2.1 window is one prefix of the one pass at its (p, r): one
    _over_power_of_two per window read, no Fraction addition, in either
    order; a window read again divides nothing."""
    points = ((5, 2), (7, 1), (11, 1))
    want = {(p, r, d): sum(wz.eval_F("GZ10N2", n, (p ** r - 1) // 2)
                           for n in range((p ** r - 1) // d + 1))
            for p, r in points for d in (1, 2)}
    passes, divisions = [], []
    real_pass, real_division = congruences._Pass, congruences._over_power_of_two

    def counted_pass(*args):
        passes.append(args)
        return real_pass(*args)

    def counted_division(x, b):
        divisions.append(b)
        return real_division(x, b)

    def refuse(*args):
        raise AssertionError("Fraction addition in a LEM-2.1 window")

    monkeypatch.setattr(congruences, "_Pass", counted_pass)
    monkeypatch.setattr(congruences, "_over_power_of_two", counted_division)
    monkeypatch.setattr(Fraction, "__add__", refuse)
    congruences._sums.cache_clear()
    try:
        for p, r in points:
            for i, delta in enumerate(order):
                got = series_sum_exact("LEM-2.1", CheckParams(p=p, r=r, delta=delta))
                assert got == want[p, r, delta] and type(got) is Fraction, (p, r, delta)
                assert len(divisions) == min(i + 1, 2), (p, r, i)
            assert len(passes) == 1, (p, r)
            passes.clear(), divisions.clear()
    finally:
        congruences._sums.cache_clear()


class RaisingProduct:
    """A T whose every product raises, as a product too large for memory does."""

    def __mul__(self, other):
        raise MemoryError

    __rmul__ = __mul__


def test_stretch_that_raises_leaves_the_cached_pass_as_it_was(monkeypatch):
    """The outermost tree of the first stretch of _sums("GUO64", 7, 2)
    returns a T whose product raises: the unit's point that read it is an
    error, and every slice and every point of the unit, read from the same
    cached pass, equals a fresh pass's."""
    unit = next(u for u in harness._units(harness.SweepConfig(primes=(7,), glob="LEM-3.*"))
                if u[0][1:3] == (7, 2) and congruences.get_case(u[0][0]).kernel == "GUO64")
    real_split, depth, armed = congruences._split, [0], [True]

    def split(*args):
        depth[0] += 1
        try:
            a, b, t = real_split(*args)
        finally:
            depth[0] -= 1
        if depth[0] == 0 and armed:
            armed.clear()
            return a, b, RaisingProduct()
        return a, b, t

    def outcome(res):
        return (res.case_id, res.params, res.lhs, res.rhs, res.observed_valuation, res.passed)

    congruences._sums.cache_clear()
    try:
        fresh = [outcome(res) for res in harness._run_unit(unit, "both", False)]
        congruences._sums.cache_clear()
        monkeypatch.setattr(congruences, "_split", split)
        first, *rest = harness._run_unit(unit, "both", False)
        assert not armed and first == (unit[0], "MemoryError: ")
        assert [outcome(res) for res in rest] == fresh[1:]
        assert [outcome(res) for res in harness._run_unit(unit, "both", False)] == fresh
        run, want = congruences._sums("GUO64", 7, 2), congruences._sums.__wrapped__("GUO64", 7, 2)
        assert [run[i] for i in range(3)] == [want[i] for i in range(3)]
    finally:
        congruences._sums.cache_clear()


def test_certificate_slices_divide_exactly():
    """Every range and prefix sum of every _SUMS entry, at primes 5-47 with
    r <= 2 and at primes 5-13 with r = 3, has an X that the odd part of its
    B divides, so _over_power_of_two never falls back to Fraction(X, B)
    there."""
    grid = [(p, r) for p in range(5, 48) if is_prime(p) for r in (1, 2)]
    grid += [(p, 3) for p in (5, 7, 11, 13)]
    divided = []

    def recorded(x, b):
        divided.append((x, abs(b)))
        return _over_power_of_two(x, b)

    with mock.patch.object(congruences, "_over_power_of_two", recorded):
        for p, r in grid:
            for name in _SUMS:
                run = congruences._sums.__wrapped__(name, p, r)
                for i in range(len(run.ends)):
                    run[i], run.prefix(run.ends[i])
    assert len(divided) == 2 * 390
    assert all(x % (b >> (b & -b).bit_length() - 1) == 0 for x, b in divided)


def test_exact_division_examples():
    # an odd B: the quotient is an integer; a power-of-two B: no odd part
    assert _over_power_of_two(3 * 12345, 3) == 12345
    assert _over_power_of_two(-7 * 10 ** 40, -7) == 10 ** 40
    assert _over_power_of_two(5, 1 << 70) == Fraction(5, 1 << 70)
    assert _over_power_of_two(-12, 16) == Fraction(-3, 4)
    assert _over_power_of_two(0, 3 << 9) == 0
    # odd part not dividing X: the exact value all the same
    assert _over_power_of_two(10, 6) == Fraction(5, 3)
    assert _over_power_of_two(1, 3) == Fraction(1, 3)
    assert all(isinstance(_over_power_of_two(x, b), Fraction) for x, b in ((6, 3), (1, 3)))


def assert_steps_are_term_ratios(name, desc, poly, lo, last):
    """The derived seed is t_lo / poly(lo), and step(k) for k = last - 1
    down to lo is t_(k+1) / t_k over poly(k+1) / poly(k), t_k the binomial
    product of desc(k): in reverse order, so each step is read with no step
    before it."""
    seed, step = _derive(name, desc, poly, lo)
    terms = [Fraction(*binomial_product(*desc(k))) for k in range(lo, last + 1)]
    assert Fraction(*seed) == terms[0] / _poly(poly, lo), name
    for k in reversed(range(lo, last)):
        a, b = step(k)
        assert all(isinstance(x, int) for x in (a, b)), (name, k)
        assert Fraction(a, b) == terms[k + 1 - lo] / terms[k - lo] \
            * Fraction(_poly(poly, k), _poly(poly, k + 1)), (name, k)


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_step_is_the_term_ratio(name):
    spec = SERIES[name]
    assert_steps_are_term_ratios(name, spec.desc, spec.poly, spec.start, 60)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 2), (13, 2)])
def test_certificate_step_is_the_cell_ratio(p, r):
    for name, entry in _SUMS.items():
        desc, poly, lo, ends = entry(p, r)
        assert_steps_are_term_ratios(name, desc, poly, lo, ends[-1])


def test_derive_refuses_a_description_it_cannot_step():
    with pytest.raises(ValueError, match=r"^quadratic: e or a binomial argument .* "
                                         r"not linear in k over k = 0 \.\. 2$"):
        _derive("quadratic", lambda k: (1, 0, (k * k, k, 1)), (1,), 0)
    # c = (k+1) (2k+1) with poly(k) = 2k+1: c / poly(k) = k+1 is not geometric
    with pytest.raises(ValueError, match=r"^not-geometric: c / poly\(k\) .* not geometric"):
        _derive("not-geometric", lambda k: ((k + 1) * (2 * k + 1), 0, (2 * k, k, 1)),
                (1, 2), 0)
    with pytest.raises(ValueError, match=r"^layout: the factor layout .* changes over k = 1"):
        _derive("layout", lambda k: (1, 0, (2 * k, k, 1 if k < 2 else 2)), (1,), 1)
    seed, step = _derive("fine", lambda k: ((-1) ** k * (4 * k + 1), -6 * k, (2 * k, k, 3)),
                         (1, 4), 0)
    assert seed == (1, 1) and step(0) == (-1, 8)


def test_rows_are_read_from_the_cells(monkeypatch):
    """The GUO64 row sums the G of wz.CELLS["GUO64"] as that table states
    it: with one linear coefficient of G changed, the pair no longer
    telescopes, and every slice of the row is the sum of the changed
    cells."""
    f, g = wz.CELLS["GUO64"]

    def changed(n, k):
        c, e, *factors = g(n, k)
        assert factors[2] == (n + k - 1, 2 * k - 1, 1)
        factors[2] = (n + 2 * k - 1, 2 * k - 1, 1)
        return (c, e, *factors)

    P = 49
    cells = {k: Fraction(*binomial_product(*changed(P, k))) for k in range(1, P)}
    assert cells[2] / cells[1] != wz.eval_G("GUO64", P, 2) / wz.eval_G("GUO64", P, 1)
    monkeypatch.setitem(wz.CELLS, "GUO64", (f, changed))
    assert not wz.check_telescoping("GUO64", 10, 10).passed
    congruences._sums.cache_clear()
    try:
        run = congruences._sums("GUO64", 7, 2)
        assert [run[i] for i in range(3)] == [
            sum(cells[k] for k in range(1, 25)), cells[25], sum(cells[k] for k in range(26, P))]
    finally:
        congruences._sums.cache_clear()
