"""supercong benchmark: cold-process workloads, checked outputs, traced layers.

usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration of a workload is one fresh Python process (child.py) that
imports supercong and runs the workload's CLI commands, so every iteration
pays for cold `lru_cache`s and cold combinatorial tables, as every CLI run
does. The load is a closed loop from this one client process: the next
iteration starts when the previous one has ended, and no workload uses more
than two worker processes.

--trace 0 runs whole iterations for up to S seconds (at least one) and
reports the medians of the end-to-end metrics named in BENCHMARK.json, plus
`setup_s`, the median import time over the iterations and the import-only
processes run before each of them. --trace 1 runs one untraced and one traced iteration of
the workload's serial form (the certificates workload also runs its untraced
two-worker form, for the pool metrics) and reports the per-layer metrics;
`trace.overhead_s` is the traced wall time minus the untraced one.

Every iteration's outputs are compared with refs.json; `failed` counts the
points or pairs that errored, exited wrongly, or differ from the reference,
and `correct` is true only when none did. The last line of standard output is
the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench-work"
PROBES_PER_ITERATION = 4               # import-only processes before each iteration
RUN_LIMIT_S = 170                       # every run ends well within 180 s


class ProgramMissing(RuntimeError):
    """The supercong sources are not in this checkout."""


def report_path(name: str, i: int) -> Path:
    """Where command `i` of a `name` iteration writes its report."""
    return WORK_DIR / f"{name}.{i}.jsonl"


def run_child(commands, name: str, trace: bool = False, deadline: float = None
              ) -> dict:
    """Run `commands` in one fresh process; returns child.py's result, or
    {"error": ...} if it did not finish."""
    WORK_DIR.mkdir(exist_ok=True)
    argvs = []
    for i, cmd in enumerate(commands):
        report_path(name, i).unlink(missing_ok=True)
        argvs.append(cmd.argv(report_path(name, i)))
    spec = {"commands": argvs, "trace": trace,
            "spans": str(WORK_DIR / f"{name}.spans.tsv")}
    spec_path, out_path = WORK_DIR / f"{name}.spec.json", WORK_DIR / f"{name}.out.json"
    spec_path.write_text(json.dumps(spec))
    out_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from bytecode, as installed
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"),
                             str(spec_path), str(out_path)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the child and its pool workers
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        return {"error": err.strip().splitlines()[-1] if err.strip()
                else f"exit code {proc.returncode}"}
    return json.loads(out_path.read_text())


def check(commands, result: dict, refs: dict, name: str) -> tuple[int, int]:
    """(attempted, failed) points and pairs of one iteration."""
    attempted = failed = 0
    for i, cmd in enumerate(commands):
        expected = cmd.expected(refs)
        attempted += len(expected)
        if "error" in result:
            failed += len(expected)
            continue
        out = result["commands"][i]
        observed = cmd.observed(out["stdout"], report_path(name, i))
        failed += workloads.count_failed(expected, observed, out["exit"])
    return attempted, failed


def pool_metrics(commands, result: dict, name: str) -> dict[str, float]:
    """Sum of the sweep's per-point elapsed_ms, and its share of jobs x wall."""
    for i, (cmd, out) in enumerate(zip(commands, result.get("commands", []))):
        if isinstance(cmd, workloads.Sweep):
            try:
                lines = report_path(name, i).read_text().splitlines()[1:]
            except OSError:
                break
            point_s = sum(json.loads(line)["elapsed_ms"] for line in lines) / 1000
            return {"harness.pool.point_s_sum": point_s,
                    "harness.pool.busy_share": point_s / (cmd.jobs * out["wall_s"])}
    return {"harness.pool.point_s_sum": 0.0, "harness.pool.busy_share": 0.0}


def probe(deadline: float) -> float:
    """Import time of supercong in a fresh process."""
    res = run_child([], "probe", deadline=deadline)
    if "error" in res:
        raise ProgramMissing(res["error"])
    return res["setup_s"]


def measure(name: str, seed: int, seconds: int, trace: bool, refs: dict,
            metric_units: dict[str, str]) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    commands = workloads.plan(name, seed, refs)
    probe(deadline)                          # compiles bytecode; not counted
    setups: list[float] = []
    attempted = failed = 0

    def iteration(cmds, trace_it=False):
        nonlocal attempted, failed
        setups.extend(probe(deadline) for _ in range(PROBES_PER_ITERATION))
        res = run_child(cmds, name, trace_it, deadline)
        a, f = check(cmds, res, refs, name)
        attempted, failed = attempted + a, failed + f
        if "error" in res:
            print(f"  iteration failed: {res['error']}")
        else:
            setups.append(res["setup_s"])
        return res

    values: dict[str, float] = {}
    if trace:
        plain = workloads.serial(commands)
        pooled = iteration(commands)
        values.update(pool_metrics(commands, pooled, name))
        untraced = pooled if plain == commands else iteration(plain)
        traced = iteration(plain, trace_it=True)
        values.update(traced.get("layers", {}))
        if "wall_s" in untraced and "wall_s" in traced:
            values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        iterations = 2 + (plain != commands)
    else:
        results = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            res = iteration(commands)
            results.append(res)
            spent = time.monotonic() - start
            if spent + (time.monotonic() - t0) > seconds or "error" in res:
                break
        ok = [r for r in results if "error" not in r]
        if ok:
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                values[key] = statistics.median(r[key] for r in ok)
        iterations = len(results)
    values["setup_s"] = statistics.median(setups)

    print(f"perfbench: workload={name} seed={seed} trace={int(trace)} "
          f"iterations={iterations} attempted={attempted} failed={failed} "
          f"fail_share={failed / max(attempted, 1):.4f}")
    metrics = {}
    for metric, unit in metric_units.items():
        if metric in values:
            metrics[metric] = {"value": values[metric], "unit": unit}
            print(f"  {metric} = {values[metric]:.6g} {unit}")
        else:
            failed = max(failed, 1)
            print(f"  {metric}: not measured")
    return {"correct": failed == 0, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "supercong" / "__init__.py").is_file():
        print(f"perfbench: no supercong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         workloads.load_refs()[args.workload], units)
    except ProgramMissing as e:
        print(f"perfbench: the program does not start: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
