"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and runnable standalone; the terminal summary
hook prints one PASS/FAIL line per criterion. Wall-clock limits are asserted
where a criterion states one.
"""
import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from supercong import wz
from supercong.combinat import binomial_rat, euler_number
from supercong.congruences import (CheckParams, cross_validate, evaluate_case,
                                   get_case, list_cases)
from supercong.exactnum import INFINITE, PadicContext, residue, vp
from supercong.harness import SweepConfig, run_sweep

BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"
PRIMES_31 = (5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIMES_97 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
             67, 71, 73, 79, 83, 89, 97)


def run(case_id, backend="exact", **kw):
    return evaluate_case(get_case(case_id), CheckParams(**kw), backend)


def test_c01_half_window_cubes_series():
    """VH-4K1: frozen value at p=5 and a mod-p^3 pass for every p <= 31,
    all within one second."""
    t0 = time.perf_counter()
    res = run("VH-4K1", p=5)
    assert res.lhs == F(435, 512)
    assert vp(res.lhs - 5, 5) == 3
    assert res.passed and res.claimed_exponent == 3
    for p in PRIMES_31[1:]:
        res = run("VH-4K1", p=p)
        assert res.passed and res.claimed_exponent == 3, p
    assert time.perf_counter() - t0 < 1.0


def test_c02_quintic_series_both_windows():
    """GZ-10N2: frozen half-window value at p=5, full-window pass at the
    same modulus, and the sharper conjectured exponent with slack recorded."""
    half = run("GZ-10N2", p=5, delta=2)
    assert half.lhs == F(10575, 2048)
    assert half.rhs == 25
    assert vp(half.lhs - 25, 5) == 5
    assert half.passed and half.claimed_exponent == 5

    full = run("GZ-10N2", p=5, delta=1)
    assert full.passed and full.claimed_exponent == 5

    for delta in (1, 2):
        conj = run("CONJ-10N2", p=5, delta=delta)
        assert conj.claimed_exponent == 5
        assert conj.observed_valuation >= conj.claimed_exponent, delta
        slack = conj.observed_valuation - conj.claimed_exponent
        assert slack >= 0


def test_c03_signed_cubes_series_and_refinement():
    """GUO-64 at p=5 plus its mod-p^4 refinement through the Euler number."""
    res = run("GUO-64", p=5)
    assert res.lhs == F(1678635, 2097152)
    assert vp(res.lhs - 5, 5) == 3
    assert res.passed

    refined = run("SUN-64-P4", p=5)
    assert euler_number(2) == -1
    assert refined.rhs == 5 + 125 * euler_number(2) == -120
    assert refined.lhs == res.lhs
    assert vp(refined.lhs - refined.rhs, 5) == 4
    assert refined.passed and refined.claimed_exponent == 4


def test_c04_4k_minus_1_series():
    """GL-R: frozen value at p=5 with valuation exactly 3 against -p."""
    res = run("GL-R", p=5)
    assert res.lhs == F(-1335635, 2097152)
    assert res.rhs == -5
    assert vp(res.lhs + 5, 5) == 3
    assert res.passed


def test_c05_alternating_vs_unsigned_form():
    """Z-20N3: the alternating form passes mod p^3 at p=5; the unsigned form
    is reported informational and lands on a different residue."""
    signed = run("Z-20N3", p=5)
    assert signed.lhs == F(350105460705, 137438953472)
    assert vp(signed.lhs - 15, 5) == 3
    assert signed.passed and not signed.informational

    raw = run("Z-20N3-RAW", p=5)
    assert raw.informational and not raw.passed
    ctx = PadicContext(5, 3)
    assert residue(raw.lhs, ctx) == 86
    assert residue(signed.lhs, ctx) == 15
    assert residue(raw.lhs, ctx) != residue(F(15), ctx)


def test_c06_square_over_kplus1_series_and_identity():
    """MAO-I2 at p=5: congruence mod p^4 plus the closed form holding with
    exact equality."""
    res = run("MAO-I2", p=5)
    assert res.lhs == F(75, 64)
    assert res.rhs == 1300
    assert vp(res.lhs - res.rhs, 5) == 4
    assert res.passed

    ident = run("MAO-I2-IDENT", p=5)
    assert ident.lhs == ident.rhs == binomial_rat(F(-3, 2), 2) ** 2 / 3
    assert ident.observed_valuation is INFINITE
    assert ident.passed


def test_c07_telescoping_grids():
    """All four certificate pairs telescope exactly on [0,40]x[1,40] in
    under thirty seconds."""
    t0 = time.perf_counter()
    for pid in sorted(wz.PAIRS):
        report = wz.check_telescoping(pid, 40, 40)
        assert report.cells_checked == 41 * 40
        assert report.passed, (pid, report.violations[:3])
    assert time.perf_counter() - t0 < 30.0


def test_c08_boundary_identities_at_proof_windows():
    """Summing the telescoping relation over the rectangles the congruence
    proofs use: (N,K) built from P = p^r for p in {5,7}, r in {1,2}."""
    for pid in sorted(wz.PAIRS):
        for p in (5, 7):
            for r in (1, 2):
                P = p ** r
                half = (P - 1) // 2
                for N, K in ((half, half), (P - 1, half), (P - 1, P - 1)):
                    assert wz.boundary_identity(pid, N, K), (pid, p, r, N, K)


def test_c09_factorial_families_all_members():
    """FACT-2LL (mod p^(r+1)), FACT-2KK (mod p), FACT-INV (mod p^2) hold for
    every member over p in {5,7,11}, r in {1,2}; frozen spot at p=5, k=4."""
    for cid in ("FACT-2LL", "FACT-2KK", "FACT-INV"):
        for p in (5, 7, 11):
            for r in (1, 2):
                res = run(cid, p=p, r=r)
                assert res.passed, (cid, p, r, res.observed_valuation)
    spot = run("FACT-INV", p=5, k=4)
    assert (spot.lhs, spot.rhs) == (-5, 70)
    assert vp(spot.lhs - spot.rhs, 5) == 2


INFORMATIONAL_R1 = {
    ("LEM-3.1", 5): 2, ("LEM-3.5", 5): 2, ("LEM-4.1", 5): 2,
    ("LEM-4.3", 5): 2, ("LEM-4.4", 5): 2, ("LEM-5.1", 5): 3,
    ("LEM-5.4", 5): 3,
    ("LEM-3.1", 7): 2, ("LEM-3.5", 7): 2, ("LEM-4.1", 7): 2,
    ("LEM-4.3", 7): 2, ("LEM-4.4", 7): 2, ("LEM-5.1", 7): 2,
    ("LEM-5.4", 7): 2,
}


def test_c10_lemma_suite():
    """Every auxiliary congruence holds on the exact backend for p in {5,7},
    r in {1,2} wherever its hypotheses apply; r=1 points below an r>=2
    hypothesis are informational with frozen valuations. Spot: the middle
    certificate cell at p=5 has residue 30 mod 125."""
    suite = list_cases(status="lemma") + list_cases(glob="BIN-3.*")
    for case in suite:
        for p in (5, 7):
            for r in (1, 2) if case.uses_r else (1,):
                kw = {"p": p, "r": r}
                if case.uses_delta:
                    kw["delta"] = 2
                res = evaluate_case(case, CheckParams(**kw))
                if r >= case.r_floor:
                    assert res.passed and not res.informational, (case.id, p, r)
                else:
                    assert res.informational, (case.id, p, r)
                    expect = INFORMATIONAL_R1[(case.id, p)]
                    assert res.observed_valuation == expect, (case.id, p)

    mid = run("LEM-3.3", p=5)
    ctx = PadicContext(5, 3)
    assert mid.rhs == -220
    assert residue(mid.lhs, ctx) == residue(F(-220), ctx) == 30


def test_c11_backend_cross_validation():
    """Residue backend output equals the reduction of the exact output for
    every eligible case across the whole default grid: a full default sweep
    with backend 'both' hard-asserts agreement pointwise and must come back
    error-free, and the explicit cross-check passes for p <= 31."""
    for case in list_cases():
        if not case.p_integral:
            continue
        for p in PRIMES_31:
            for r in (1, 2) if case.uses_r else (1,):
                kw = {"p": p, "r": r}
                if case.uses_delta:
                    kw["delta"] = 2
                params = CheckParams(**kw)
                claimed = case.claimed(p, r)
                if claimed is None:
                    continue
                ctx = PadicContext(p, claimed)
                assert cross_validate(case, params, ctx), (case.id, p, r)

    report = run_sweep(SweepConfig())
    assert report.errors == []
    assert not report.failed
    assert report.summary()["fail"] == 0
    assert all(r.backend == "both" for r in report.results)


def test_c12_harmonic_and_catalan_block():
    """WOLST-H1/H2/BIN, SUN-CAT, H-HALF pass for all primes up to 97; the
    p=5 SUN-CAT difference is 25/6 with valuation exactly 2."""
    for cid in ("WOLST-H1", "WOLST-H2", "WOLST-BIN", "SUN-CAT", "H-HALF"):
        for p in PRIMES_97:
            res = run(cid, p=p)
            assert res.passed, (cid, p)
    spot = run("SUN-CAT", p=5)
    assert spot.lhs - spot.rhs == F(7, 6) + 3 == F(25, 6)
    assert vp(spot.lhs - spot.rhs, 5) == 2
    assert spot.claimed_exponent == 2


def test_c13_residue_backend_reach():
    """Deep point p=5, r=5 on the residue backend: 1563 terms reduced mod
    5^9 against the zero branch of the right side, in under a minute."""
    t0 = time.perf_counter()
    res = run("GZ-10N2", backend="residue", p=5, r=5, delta=2)
    elapsed = time.perf_counter() - t0
    assert res.rhs == 0
    assert res.claimed_exponent == 9
    assert res.observed_valuation >= 9
    assert res.passed
    assert elapsed < 60.0


def _strip_timing(path: Path):
    meta = None
    records = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        if "tool" in obj:
            meta = obj
            continue
        obj.pop("elapsed_ms")
        records.append(obj)
    return meta, records


def test_c14_sweep_determinism(tmp_path):
    """Two cold serial default sweeps agree byte-for-byte apart from timing,
    and a parallel run reproduces the same records and summary."""
    out = []
    for name, jobs in (("a.jsonl", None), ("b.jsonl", None),
                       ("c.jsonl", "4")):
        path = tmp_path / name
        cmd = [sys.executable, "-m", "supercong.cli", "sweep",
               "--report", str(path)]
        if jobs:
            cmd += ["--jobs", jobs]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "0 fail" in proc.stdout and "0 error(s)" in proc.stdout
        out.append(path)

    meta_a, recs_a = _strip_timing(out[0])
    meta_b, recs_b = _strip_timing(out[1])
    meta_c, recs_c = _strip_timing(out[2])
    assert meta_a == meta_b
    assert recs_a == recs_b
    assert len(recs_a) == 1157

    assert recs_c == recs_a
    assert meta_c["summary"] == meta_a["summary"]
    assert meta_c["config"]["jobs"] == 4

    # the records hash to the default-sweep digest the benchmark pins
    pinned = json.loads(BASELINE.read_text())["default_sweep"]
    h = hashlib.sha256()
    for rec in recs_a:
        h.update((json.dumps(rec) + "\n").encode())
    assert (h.hexdigest(), len(recs_a)) == (pinned["digest"], pinned["points"])
