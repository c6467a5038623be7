"""Self-tests of the benchmark itself.

usage (from the repository root): python3 perfbench/selftest.py

They run small sweeps in fresh processes, as the benchmark does, and take
a few seconds.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))      # for the in-process tracer test
REFS = workloads.load_refs()
SMALL = [workloads.Sweep("theorem", (5, 7, 11), 1),
         workloads.Sweep("lemma", (5, 7), 1)]
SECTIONS = [REFS["theorem-series"], REFS["certificates"]]


def _records(name: str, i: int) -> list[str]:
    """Report lines of command i with the elapsed_ms field cut out."""
    text = run.report_path(name, i).read_text()
    return [re.sub(r', "elapsed_ms": [0-9.e+-]+', "", line) for line in text.splitlines()]


class OutputCheck(unittest.TestCase):
    def test_untouched_report_passes_and_altered_valuation_fails_one_point(self):
        res = run.run_child(SMALL[:1], "selftest")
        self.assertNotIn("error", res)
        expected = SMALL[0].expected(SECTIONS[0])
        report = run.report_path("selftest", 0)
        observed = SMALL[0].observed("", report)
        self.assertEqual(workloads.count_failed(expected, observed, 0), 0)

        lines = report.read_text().splitlines()
        rec = json.loads(lines[5])
        rec["observed_valuation"] = rec["observed_valuation"] + 1
        lines[5] = json.dumps(rec)
        report.write_text("\n".join(lines) + "\n")
        observed = SMALL[0].observed("", report)
        self.assertEqual(workloads.count_failed(expected, observed, 0), 1)

    def test_wrong_exit_code_fails(self):
        expected = {"a": "x"}
        self.assertEqual(workloads.count_failed(expected, {"a": "x"}, 1), 1)
        self.assertEqual(workloads.count_failed(expected, {}, None), 1)


class Tracing(unittest.TestCase):
    def test_traced_reports_equal_untraced_apart_from_elapsed_ms(self):
        plain = run.run_child(SMALL, "selftest-plain")
        traced = run.run_child(SMALL, "selftest-traced", trace=True)
        self.assertNotIn("error", plain)
        self.assertGreater(traced["layers"]["congruences.series_sum_exact.calls"], 0)
        for i in range(len(SMALL)):
            self.assertEqual(_records("selftest-plain", i), _records("selftest-traced", i))
            observed = SMALL[i].observed("", run.report_path("selftest-traced", i))
            self.assertEqual(
                workloads.count_failed(SMALL[i].expected(SECTIONS[i]), observed, 0), 0)

    def test_wrapped_attributes_are_restored(self):
        from supercong import congruences, harness
        import tracer
        before = (congruences.vp, harness.evaluate_case)
        t = tracer.trace_supercong()
        self.assertIsNot(congruences.vp, before[0])
        t.restore()
        self.assertEqual((congruences.vp, harness.evaluate_case), before)


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs_and_every_draw_has_references(self):
        for name in workloads.WORKLOADS:
            refs = REFS[name]
            canonical = workloads.plan(name, 0, refs)
            for seed in range(1, 6):
                commands = workloads.plan(name, seed, refs)
                self.assertEqual(commands, workloads.plan(name, seed, refs))
                self.assertNotEqual(commands, canonical)
                for cmd in commands:            # every drawn point has a reference
                    self.assertTrue(cmd.expected(refs))

    def test_digests_match_refs(self):
        import make_refs
        for name in workloads.WORKLOADS:
            self.assertEqual(make_refs.canonical_digest(name, REFS), REFS["digests"][name])


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = run.WORK_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "residue-deep", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
