"""The binary-split kernel (_Pass) behind every sum, a series spec's or a
certificate sum's in _SUMS, against sums known in closed form and against
the WZ cells; the step each sum and each series spec derives from its
description (_derive), against the ratio of its terms; and the exact
division that ends each of its reads."""
from fractions import Fraction
from math import comb
from unittest import mock

import pytest

from supercong import congruences, harness, wz
from supercong.combinat import binomial_product
from supercong.congruences import (_SUMS, CATALOG, SERIES, CheckParams, _derive,
                                   _over_power_of_two, _Pass, _poly, get_case, list_cases,
                                   series_sum_exact)
from supercong.exactnum import is_prime


def binomial_step(n):
    # C(n, k+1) = C(n, k) (n - k) / (k + 1)
    return lambda k: (n - k, k + 1)


def test_binomial_row_sums_to_power_of_two():
    for n in (0, 1, 7, 40):
        assert _Pass(1, binomial_step(n), 0, (1,)).read(0, n) == 2 ** n
    # sum k C(n,k) = n 2^(n-1), and t0 scales every read
    assert _Pass(Fraction(1, 3), binomial_step(12), 0, (0, 1)).read(0, 12) \
        == Fraction(12 * 2 ** 11, 3)
    # a nonzero start: the sequence starts at lo with u_lo = 1
    assert _Pass(comb(30, 5), binomial_step(30), 5, (1,)).read(5, 8) \
        == sum(comb(30, k) for k in range(5, 9))


def test_slices_partition_the_range():
    # consecutive ranges read from one pass sum the terms they cover, each once
    n = 30
    run = _Pass(1, binomial_step(n), 0, (1,))
    assert (run.read(0, 9), run.read(10, 10), run.read(11, n)) == (
        sum(comb(n, k) for k in range(10)), comb(n, 10),
        sum(comb(n, k) for k in range(11, n + 1)))
    # a range past the pass's position steps over the terms before it
    assert _Pass(1, binomial_step(n), 0, (1,)).read(5, 8) \
        == sum(comb(n, k) for k in range(5, 9))


def test_empty_and_single_term_slices():
    step = binomial_step(10)
    assert _Pass(1, step, 3, (1,)).read(3, 2) == 0
    run = _Pass(1, step, 0, (1,))
    assert (run.read(0, 4), run.read(5, 4), run.read(5, 6)) \
        == (sum(comb(10, k) for k in range(5)), 0, comb(10, 5) + comb(10, 6))
    run = _Pass(1, step, 0, (1,))
    assert [run.read(k, k) for k in range(11)] == [comb(10, k) for k in range(11)]
    assert _Pass(7, step, 0, (1,)).read(0, 0) == 7
    run = _Pass(1, step, 0, (1,))
    assert all(isinstance(s, Fraction) for s in (run.read(0, 0), run.read(1, 2), run.read(3, 2)))


def test_step_is_called_below_the_last_end_only():
    # the pass steps to the last term it reads, upper, and no further
    calls = []

    def step(k):
        calls.append(k)
        return (1, 0) if k == 5 else (2, 1)     # a zero b_k past the range

    run = _Pass(1, step, 0, (1,))
    assert (run.read(0, 2), run.read(3, 5)) == (7, 56)
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


@pytest.mark.parametrize("order", [(1, 2), (2, 1)], ids=["delta1-first", "delta2-first"])
def test_lem21_window_is_one_prefix(monkeypatch, fresh_kernels, order):
    """Each LEM-2.1 window is one prefix of the running pass at its (p, r),
    with no Fraction addition.  In the sweep's order, delta = 2 then
    delta = 1 (harness._units), one pass serves both: the first window is
    one division, the second one more and one of the seed, as the pass
    renormalises before it steps on.  Read delta = 1 first, the delta = 2
    cap is behind the pass, so it starts a fresh pass."""
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
    in_order = order == (2, 1)
    for p, r in points:
        for i, delta in enumerate(order):
            got = series_sum_exact("LEM-2.1", CheckParams(p=p, r=r, delta=delta))
            assert got == want[p, r, delta] and type(got) is Fraction, (p, r, delta)
            assert len(passes) == (1 if in_order else i + 1), (p, r, i)
            assert len(divisions) == (2 * i + 1 if in_order else i + 1), (p, r, i)
        passes.clear(), divisions.clear()


class RaisingProduct:
    """A T whose every product raises, as a product too large for memory does."""

    def __mul__(self, other):
        raise MemoryError

    __rmul__ = __mul__


def test_stretch_that_raises_leaves_the_cached_pass_as_it_was(monkeypatch, fresh_kernels):
    """The outermost tree of the first stretch of the GUO64 row at (7, 2)
    returns a T whose product raises.  A pass read directly is left as it
    was, and reads on as a fresh pass does.  In a sweep unit the point that
    read it is an error; the running pass is dropped (_series_exact), and
    every later point of the unit equals a fresh run's."""
    unit = next(u for u in harness._units(harness.SweepConfig(primes=(7,), glob="LEM-3.*"))
                if u[0][1:3] == (7, 2) and get_case(u[0][0]).kernel == "GUO64")
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

    slices = ((1, 24), (25, 25), (26, 48))
    fresh = [outcome(res) for res in harness._run_unit(unit, "both", False)]
    fresh_kernels()
    monkeypatch.setattr(congruences, "_split", split)
    run = congruences._open("GUO64", (7, 2))
    held = dict(vars(run))
    with pytest.raises(MemoryError):
        run.read(*slices[0])
    assert not armed and vars(run) == held
    want = [congruences._open("GUO64", (7, 2)).read(*s) for s in slices]
    assert [run.read(*s) for s in slices] == want
    armed.append(True)
    first, *rest = harness._run_unit(unit, "both", False)
    assert not armed and first == (unit[0], "MemoryError: ")
    assert [outcome(res) for res in rest] == fresh[1:]
    assert [outcome(res) for res in harness._run_unit(unit, "both", False)] == fresh


@pytest.mark.parametrize("part", ["A", "B", "T"])
@pytest.mark.parametrize("kernel, at, first, upper", [("GUO64", (7, 2), 1, 24),
                                                      ("guo64", (), 0, 30)])
def test_any_product_that_raises_leaves_the_pass_as_it_was(monkeypatch, part, kernel, at,
                                                           first, upper):
    """Whichever of A, B and T the outermost tree of a stretch returns
    raises when multiplied, a fresh pass, a certificate row's or a spec's
    (which keeps its ratios), holds what it held, and then reads as a
    fresh pass does."""
    real_split, depth, armed = congruences._split, [0], [True]

    def split(*args):
        depth[0] += 1
        try:
            tree = list(real_split(*args))
        finally:
            depth[0] -= 1
        if depth[0] == 0 and armed:
            armed.clear()
            tree["ABT".index(part)] = RaisingProduct()
        return tuple(tree)

    want = congruences._open(kernel, at).read(first, upper)
    run = congruences._open(kernel, at)
    held = {key: list(v) if isinstance(v, list) else v for key, v in vars(run).items()}
    monkeypatch.setattr(congruences, "_split", split)
    with pytest.raises(MemoryError):
        run.read(first, upper)
    assert not armed and vars(run) == held
    assert run.read(first, upper) == want


def test_certificate_slices_divide_exactly(fresh_kernels):
    """Every slice of every certificate row, and LEM-2.1's two windows, read
    as the sweep reads them (in ascending upper, harness._units), at primes
    5-47 with r <= 2 and at primes 5-13 with r = 3: each division, the
    seed's when a pass steps on after a read among them, has an X that the
    odd part of its B divides, so _over_power_of_two never falls back to
    Fraction(X, B) there."""
    grid = [(p, r) for p in range(5, 48) if is_prime(p) for r in (1, 2)]
    grid += [(p, 3) for p in (5, 7, 11, 13)]
    rows = sorted((c for c in list_cases(status="lemma") if c.kind == "scalar" and c.upper),
                  key=lambda c: (c.kernel, c.upper(7, 2, 1)))
    assert len(rows) == 11 and {c.kernel for c in rows} == set(_SUMS) - {"LEM-2.1"}
    divided = []

    def recorded(x, b):
        divided.append((x, abs(b)))
        return _over_power_of_two(x, b)

    with mock.patch.object(congruences, "_over_power_of_two", recorded):
        for p, r in grid:
            for case in rows:
                case.lhs_scalar(p, r)
            for delta in (2, 1):
                series_sum_exact("LEM-2.1", CheckParams(p=p, r=r, delta=delta))
    # 30 points: 11 row slices, 2 seeds on each three-slice row (3 of them),
    # and 2 windows with the seed between them
    assert len(divided) == 30 * (11 + 3 * 2 + 2 + 1)
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
        # to the last index the catalog reads of the sum
        last = max(c.upper(p, r, 1) for c in CATALOG.values() if c.kernel == name)
        assert_steps_are_term_ratios(name, *entry(p, r), last)


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


def test_rows_are_read_from_the_cells(monkeypatch, fresh_kernels):
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
    assert [get_case(c).lhs_scalar(7, 2) for c in ("LEM-3.2", "LEM-3.3", "LEM-3.5")] == [
        sum(cells[k] for k in range(1, 25)), cells[25], sum(cells[k] for k in range(26, P))]
