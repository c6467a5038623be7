"""The two series kernels against the Fraction term view of the same spec."""
from collections import Counter
from fractions import Fraction
from math import comb, lcm
from unittest import mock

import pytest

from supercong import congruences
from supercong.cli import main
from supercong.congruences import (_SUMS, SERIES, BackendDisagreement,
                                   BackendIneligible, CheckParams, _poly,
                                   _series_exact, _series_residue, evaluate_case,
                                   get_case, list_cases, series_sum_exact,
                                   series_sum_residue)
from supercong.combinat import binomial_product
from supercong.exactnum import residue, vp
from supercong.harness import SweepConfig, run_sweep

# a spec whose reduced terms k <= 60 all have power-of-two denominators
POWER_OF_TWO = sorted(name for name, spec in SERIES.items()
                      if all(t.denominator & (t.denominator - 1) == 0 for t in spec.terms(60)))
ODD_DENOMINATOR = sorted(set(SERIES) - set(POWER_OF_TWO))


def exact(name, upper):
    return _series_exact.__wrapped__(name, upper, ())


def residue_kernel(name, upper, p, m):
    return _series_residue.__wrapped__(name, upper, p, m)


def test_specs_cover_the_catalog_series():
    assert sorted(SERIES) == ["glr", "guo64", "gz10n2", "h1", "h2", "mao",
                              "suncat", "z120n2", "z20n3-raw", "z20n3-signed"]
    # mao's terms are Catalan numbers times C(2k,k) / 16^k
    assert POWER_OF_TWO == ["glr", "guo64", "gz10n2", "mao", "z120n2", "z20n3-raw",
                            "z20n3-signed"]
    # LEM-2.1's terms depend on (p, r), so it has no spec: its kernel is a _SUMS entry
    names = {case.id: case.kernel for case in list_cases() if case.kind == "series"}
    assert names.pop("LEM-2.1") == "LEM-2.1" and "LEM-2.1" in _SUMS
    assert "LEM-2.1" not in SERIES
    assert set(names.values()) == set(SERIES)
    with pytest.raises(BackendIneligible,
                       match=r"LEM-2.1 has no residue kernel: its terms depend on \(p, r\)"):
        series_sum_residue("LEM-2.1", CheckParams(p=5, delta=1), 5)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (5, 2), (7, 2)])
def test_lem21_terms_are_p_integral(p, r):
    # its residue refusal is for want of a spec, not for its denominators:
    # every term of the column has vp = 2r or more (Legendre's formula)
    desc, poly, lo = _SUMS["LEM-2.1"](p, r)
    vals = [vp(Fraction(*binomial_product(*desc(k))), p) for k in range(lo, p ** r)]
    assert min(vals) == 2 * r


def test_rewritten_specs_equal_their_closed_forms():
    # each linear factor below the line, (x, 1, -j), against the series as stated
    closed = {"mao": lambda k: Fraction(comb(2 * k, k) ** 2, (k + 1) * 16 ** k),
              "suncat": lambda k: Fraction(comb(2 * k, k), (2 * k + 1) * 4 ** k),
              "h1": lambda k: Fraction(1, k),
              "h2": lambda k: Fraction(1, k * k)}
    for name, term in closed.items():
        spec = SERIES[name]
        assert list(spec.terms(60)) == [term(k) for k in range(spec.start, 61)], name


@pytest.mark.parametrize("name", sorted(SERIES))
def test_exact_kernel_equals_sum_of_terms(name):
    spec = SERIES[name]
    terms = list(spec.terms(60))
    for upper in range(61):
        got = exact(name, upper)
        assert isinstance(got, Fraction)
        assert got == sum(terms[:upper + 1 - spec.start], Fraction(0)), upper
    # p^2 - 1 for p = 43, 47: the same sum over the terms' common denominator
    terms = list(spec.terms(47 ** 2 - 1))
    for upper in (43 ** 2 - 1, 47 ** 2 - 1):
        den = lcm(*(t.denominator for t in terms[:upper + 1 - spec.start]))
        ref = Fraction(sum(t.numerator * (den // t.denominator)
                           for t in terms[:upper + 1 - spec.start]), den)
        assert exact(name, upper) == ref, upper


@pytest.mark.parametrize("name", POWER_OF_TWO)
def test_residue_kernel_power_of_two_series(name):
    # p-integral at every cap, including caps >= p and >= p^2
    for p, m in ((5, 1), (5, 4), (7, 3), (11, 6), (43, 2)):
        for upper in (0, 1, p - 1, p, 2 * p + 3, p * p - 1, p * p + 2):
            assert residue_kernel(name, upper, p, m) == \
                residue(exact(name, upper), p, m), (p, m, upper)


@pytest.mark.parametrize("name", ODD_DENOMINATOR)
def test_residue_kernel_odd_denominator_series(name):
    # the kernel refuses the first term with p in its denominator
    spec = SERIES[name]
    for p, m in ((5, 2), (7, 3), (13, 1)):
        first_bad = next(k for k, t in enumerate(spec.terms(5 * p), spec.start)
                         if vp(t, p) < 0)
        for upper in range(first_bad):
            assert residue_kernel(name, upper, p, m) == \
                residue(exact(name, upper), p, m), (p, m, upper)
        with pytest.raises(BackendIneligible, match=f"term k={first_bad} "):
            residue_kernel(name, first_bad, p, m)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_residue_kernel_sums_mao_past_p(p):
    # a denominator k + 1 divisible by p cancels into C(2k,k)^2: mao's terms
    # are p-integral at every k, so the kernel refuses none of them
    for m in (1, 4):
        for upper in range(3 * p * p + 1):
            assert residue_kernel("mao", upper, p, m) == \
                residue(exact("mao", upper), p, m), (m, upper)


def test_mao_past_p_on_both(capsys):
    # checked by the kernel, not refused: the truncated sum is no congruence
    code = main(["verify", "--case", "MAO-I2", "--p", "5", "--upper", "10",
                 "--backend", "both"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert captured.out.startswith("MAO-I2 p=5 r=1 backend=both:")
    assert captured.out.rstrip().endswith("observed=0 claimed>=4 -> FAIL")


def test_residue_kernel_builds_no_fraction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built in the residue kernel")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2)
    for name in SERIES:
        residue_kernel(name, 20, 43, 3)


def test_residue_kernel_never_steps_the_exact_parts(monkeypatch, fresh_kernels):
    # with the Fraction test above: the two sides of `both` share no Fraction
    # code and no big-integer stepping
    expected = {name: residue(exact(name, 20), 43, 3) for name in SERIES}

    def refuse(*args, **kwargs):
        raise AssertionError("exact kernel run by the residue kernel")

    monkeypatch.setattr(congruences, "_Pass", refuse)
    monkeypatch.setattr(congruences, "_split", refuse)
    # the running passes above already stand at 20; a fresh one is a _Pass
    fresh_kernels()
    for name in SERIES:
        with pytest.raises(AssertionError):
            exact(name, 20)
        assert residue_kernel(name, 20, 43, 3) == expected[name], name


def test_a_pass_that_raises_is_dropped(monkeypatch, fresh_kernels):
    # a spec's step raises once, mid-pass: the half-stepped pass must not be
    # read again, for every spec, the start = 1 ones among them
    fresh, raised = congruences._open, []

    def flaky(name, *args):
        run = fresh(name, *args)
        step = run.step

        def flaky_step(k):
            if k == 15 and len(raised) < len(done):
                raised.append(k)
                raise MemoryError("mid-pass")
            return step(k)
        run.step = flaky_step
        return run
    monkeypatch.setattr(congruences, "_open", flaky)
    done = []
    for name, spec in SERIES.items():
        done.append(name)
        assert exact(name, 10) == sum(spec.terms(10)), name
        with pytest.raises(MemoryError):
            exact(name, 20)
        assert not congruences._running
        for cap in (20, 30):
            assert exact(name, cap) == sum(spec.terms(cap)), (name, cap)
            # read from the pass at cap 20, stepped by the kernel past it
            for upper in (20, 30):
                assert residue_kernel(name, upper, 67, 2) == \
                    residue(sum(spec.terms(upper)), 67, 2), (name, cap, upper)
    assert raised == [15] * len(SERIES)


def test_residue_kernel_reads_only_a_pass_that_reaches_its_cap(monkeypatch, fresh_kernels):
    """Public reads of two specs, interleaved, and one range read of a
    spec's pass.  Every value equals the sum of SeriesSpec.terms or its
    residue.  The residue kernel reads the running pass's step pairs when
    that pass is its spec's and has stepped to its cap, and calls no step
    then; otherwise it calls the step once per term after the first and
    stores nothing, so the pass holds one ratio per term it has stepped."""
    derive, steps = congruences._derive, Counter()

    def counted_derive(name, *args):
        seed, step = derive(name, *args)

        def counted_step(k):
            steps[name] += 1
            return step(k)
        return seed, counted_step
    monkeypatch.setattr(congruences, "_derive", counted_derive)
    p, m = 7, 3
    reads = [("exact", "GUO-64", 30, 30),       # a fresh pass: step(0) .. step(29)
             ("residue", "Z-20N3", 40, 40),     # another spec's pass is running
             ("exact", "GUO-64", 50, 20),       # on past the pass: step(30) .. step(49)
             ("residue", "GUO-64", 45, 0),      # read from the pass
             ("residue", "GUO-64", 50, 0),
             ("residue", "GUO-64", 60, 60),     # beyond the pass's reach
             ("exact", "GUO-64", 20, 20),       # a cap behind the pass: a fresh one
             ("residue", "GUO-64", 35, 35),     # within the dropped pass's reach only
             ("residue", "GUO-64", 20, 0),
             ("range", "GUO-64", 40, 20),       # steps over 21 .. 29, then sums 30 .. 40
             ("residue", "GUO-64", 40, 0)]
    for kind, case_id, cap, stepped in reads:
        spec, before = SERIES[get_case(case_id).kernel], sum(steps.values())
        want = sum(spec.terms(cap))
        params = CheckParams(p, upper_override=cap)
        if kind == "exact":
            assert series_sum_exact(case_id, params) == want, cap
        elif kind == "range":
            assert _series_exact("guo64", cap, (), 30) == want - sum(spec.terms(29))
        else:
            assert series_sum_residue(case_id, params, m) == residue(want, p, m), cap
        assert sum(steps.values()) - before == stepped, (kind, case_id, cap)
        (run,) = congruences._running.values()
        assert len(run.ratios) == run.k - run.lo


@pytest.mark.parametrize("name", sorted(SERIES))
def test_pass_renormalises_after_each_read(name):
    """After each prefix read the pass holds its prefix x / d and its seed
    s / d, the term at the cap over poly(cap).  It renormalises when it next
    steps on, and only then: d becomes the lcm of their reduced
    denominators, so no factor that cancels is carried into the next
    stretch, and a pass read once divides its seed zero times."""
    spec = SERIES[name]
    terms = list(spec.terms(200))
    run = congruences._open(name)
    renormalise, done = run._renormalise, []

    def checked():
        before = run.total, Fraction(run.x, run.d), Fraction(run.s, run.d)
        renormalise()
        if before[0] is not None:
            prefix, seed = Fraction(run.x, run.d), Fraction(run.s, run.d)
            assert (prefix, seed) == before[1:] and prefix == before[0]
            assert run.d == lcm(prefix.denominator, seed.denominator)
            done.append(run.k)
    run._renormalise = checked
    caps = (0, 1, 2, 3, 7, 8, 40, 41, 41, 120, 200)
    for cap in caps:
        got = run.read(spec.start, cap)
        assert got == sum(terms[:cap + 1 - spec.start], Fraction(0)), cap
        assert run.k == cap + 1
        assert Fraction(run.x, run.d) == got == run.total
        if cap >= spec.start:
            assert Fraction(run.s, run.d) == terms[cap - spec.start] / _poly(spec.poly, cap), cap
    # once after each cap but the last: the repeated read at 41 steps nothing
    assert done == sorted({cap + 1 for cap in caps[:-1]})


@pytest.mark.parametrize("name", POWER_OF_TWO)
def test_power_of_two_reads_divide_exactly(name):
    # a power-of-two spec's prefix and seed have reduced denominators that
    # are powers of two, so every division of its reads takes the 2-adic
    # path: one per read, and one of the seed each time the pass steps on
    spec = SERIES[name]
    with mock.patch.object(congruences, "_Lowest", wraps=congruences._Lowest) as lowest:
        run = congruences._open(name)
        for cap in (0, 5, 6, 100, 47 ** 2 - 1):
            run.read(spec.start, cap)
    assert lowest.call_count == 5 + 4


def _binomial_part_valuations(spec, p, upper):
    """vp of the binomials of the spec's description, prod C(n, m)^j, for
    k = start .. upper, by Legendre's formula; an upper argument n < 0 is
    first reflected, C(n, m) = (-1)^m C(m - n - 1, m)."""
    def fact(n):
        digits, q = 0, n
        while q:
            digits, q = digits + q % p, q // p
        return (n - digits) // (p - 1)

    def binom(n, m):
        if n < 0:
            n = m - n - 1
        return fact(n) - fact(m) - fact(n - m)

    return [sum(j * binom(n, m) for n, m, j in spec.desc(k)[2:])
            for k in range(spec.start, upper + 1)]


def _first_refused(spec, p, upper):
    """The first k <= upper whose term has vp < 0, or None: vp(c) plus the
    Legendre valuation of its binomials (2^e is a unit at odd p).  The
    Fraction terms at large k cost too much to build, so this reads the
    description; test_term_valuations_by_legendre checks it against them."""
    vals = _binomial_part_valuations(spec, p, upper)
    return next((k for k, v in enumerate(vals, spec.start)
                 if v + vp(spec.desc(k)[0], p) < 0), None)


@pytest.mark.parametrize("name", sorted(SERIES))
def test_term_valuations_by_legendre(name):
    spec = SERIES[name]
    for p in (5, 7, 13):
        vals = _binomial_part_valuations(spec, p, 60)
        assert [v + vp(spec.desc(k)[0], p) for k, v in enumerate(vals, spec.start)] == \
            [vp(t, p) for t in spec.terms(60)], p


@pytest.mark.parametrize("name", POWER_OF_TWO)
def test_residue_kernel_deep_valuations(name):
    # at p = 5 up to r = 6 many terms vanish mod 5^m (v >= m), and the running
    # valuation of the binomial part falls back below m after them; at r = 6
    # only the half window, since the exact reference at 5^6 - 1 takes seconds
    p, spec = 5, SERIES[name]
    uppers = [(p ** r - 1) // 2 for r in range(1, 7)] + [p ** r - 1 for r in range(1, 6)]
    for upper in uppers:
        ref = exact(name, upper)
        for m in (1, 2, 3, 5, 8, 10):
            assert residue_kernel(name, upper, p, m) == \
                residue(ref, p, m), (upper, m)
    vals = _binomial_part_valuations(spec, p, (p ** 6 - 1) // 2)
    deep = [k for k, v in enumerate(vals) if v >= 10]
    assert len(deep) > 100
    assert any(v < 10 for v in vals[deep[0]:])
    assert min(vals) >= 0


def test_residue_kernel_matches_exact_sums_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    primes = [q for q in range(5, 98) if all(q % d for d in range(2, q))]

    # derandomized: one exact reference near 3p^2 costs seconds at p near 97,
    # so a fixed draw keeps the suite's time stable
    @hypothesis.settings(max_examples=8, deadline=None, database=None, derandomize=True)
    @hypothesis.given(p=st.sampled_from(primes), m=st.integers(1, 8), data=st.data())
    def check(p, m, data):
        upper = data.draw(st.integers(0, 3 * p * p), label="upper")
        for name, spec in SERIES.items():
            bad = _first_refused(spec, p, upper)
            if bad is not None:
                with pytest.raises(BackendIneligible, match=f"term k={bad} "):
                    residue_kernel(name, upper, p, m)
            else:
                assert residue_kernel(name, upper, p, m) == \
                    residue(exact(name, upper), p, m), name

    check()


def test_guo64_reach_point_on_residue(capsys):
    # p = 47, r = 3: 103 823 terms, each a (valuation, unit) step mod 47^5
    assert main(["verify", "--case", "GUO-64", "--p", "47", "--r", "3",
                 "--backend", "residue"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("GUO-64 p=47 r=3 backend=residue:")
    assert out.rstrip().endswith("PASS")


def test_upper_cap_past_p_is_ineligible_on_residue(capsys):
    for backend in ("residue", "both"):
        code = main(["verify", "--case", "WOLST-H1", "--p", "5", "--upper", "7",
                     "--backend", backend])
        err = capsys.readouterr().err
        assert code == 2
        assert "WOLST-H1" in err and "k=5" in err
        assert "not invertible" not in err
    code = main(["verify", "--case", "WOLST-H1", "--p", "5", "--upper", "7",
                 "--backend", "exact"])
    assert code == 1
    assert "observed=-1" in capsys.readouterr().out


def test_backend_disagreement_is_reported(monkeypatch):
    def wrong(name, upper, p, m):
        return 1

    monkeypatch.setattr(congruences, "_series_residue", wrong)
    with pytest.raises(BackendDisagreement, match=r"GUO-64.*p=5, r=1") as exc:
        evaluate_case("GUO-64", CheckParams(p=5), "both")
    assert isinstance(exc.value, AssertionError)
    report = run_sweep(SweepConfig(primes=(5,), r_max=1, glob="GUO-64",
                                   backend="both"))
    assert report.results == []
    assert [e["case_id"] for e in report.errors] == ["GUO-64"]
    assert report.errors[0]["error"].startswith("BackendDisagreement: GUO-64")
    assert report.failed


def test_verify_reports_backend_disagreement(monkeypatch, capsys):
    # a failed check, not a usage error: exit 1 and one line on stderr
    monkeypatch.setattr(congruences, "_series_residue", lambda *args: 1)
    assert main(["verify", "--case", "GUO-64", "--p", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: GUO-64: exact and residue backends disagree")
    assert captured.err.count("\n") == 1


def test_each_case_reads_its_spec_once_at_its_cap(monkeypatch):
    """Every case whose kernel is a spec reads _series_exact once per point,
    at its declared cap, on "both": one-entry caching and a sweep unit's
    ascending caps (harness._units) rely on it.  BIN-3.5, BIN-3.7 and
    MAO-I2-IDENT state their cap in their closures as well."""
    calls = []
    kernel = congruences._series_exact

    def recorded(name, upper, at):
        calls.append((name, upper, at))
        return kernel(name, upper, at)
    monkeypatch.setattr(congruences, "_series_exact", recorded)
    cases = [case for case in list_cases() if case.kernel in SERIES]
    assert len(cases) == 19
    for case in cases:
        for p in (5, 7, 11):
            for r in ((1, 2) if case.uses_r else (1,)):
                for delta in ((1, 2) if case.uses_delta else (None,)):
                    calls.clear()
                    evaluate_case(case, CheckParams(p=p, r=r, delta=delta), "both")
                    assert calls == [(case.kernel, case.upper(p, r, delta or 1), ())], \
                        (case.id, p, r, delta)
