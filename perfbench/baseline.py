"""Record the machine, the default-sweep digest and baseline numbers.

usage (from the repository root):
  python3 perfbench/baseline.py --digest          # ~45 s on 2 cores
  python3 perfbench/baseline.py --runs 10         # every workload, seeds 1..10

--digest runs the full default sweep once (1157 points, two workers) and
stores the sha256 of its records, `elapsed_ms` removed, one record per line
in report order. This is the digest that must not change.

--runs N runs the benchmark command N times per workload with seeds 1..N
(untraced) and once with seed 0 traced, and stores the median and quartiles
of each end-to-end metric and the per-layer metrics. Both write into
baseline.json next to this file, with the machine they ran on.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

BASELINE_PATH = run.BENCH_DIR / "baseline.json"


class DefaultSweep:
    """`supercong sweep` on its default grid, two workers."""

    def argv(self, report: Path) -> list[str]:
        return ["sweep", "--jobs", "2", "--report", str(report)]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def digest() -> dict:
    res = run.run_child([DefaultSweep()], "digest")
    if "error" in res or res["commands"][0]["exit"] != 0:
        raise SystemExit(f"default sweep failed: {res.get('error') or res['commands'][0]}")
    lines = run.report_path("digest", 0).read_text().splitlines()[1:]
    h = hashlib.sha256()
    for line in lines:
        rec = json.loads(line)
        del rec["elapsed_ms"]
        h.update((json.dumps(rec) + "\n").encode())
    return {"digest": h.hexdigest(), "points": len(lines), "jobs": 2,
            "wall_s": round(res["wall_s"], 3)}


def bench(name: str, seed: int, trace: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"),
                          "--workload", name, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed}: outputs differ from refs.json")
    return {k: v["value"] for k, v in result["metrics"].items()}


def baseline(runs: int, seconds: int) -> dict:
    out = {}
    for name in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(1, runs + 1):
            for metric, v in bench(name, seed, 0, seconds).items():
                values.setdefault(metric, []).append(v)
            print(f"{name} seed {seed}: done", flush=True)
        e2e = {}
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            e2e[metric] = {"median": round(med, 4), "q1": round(q1, 4),
                           "q3": round(q3, 4), "spread": round((q3 - q1) / med, 4),
                           "values": [round(v, 4) for v in vs]}
        layers = {k: round(v, 6) for k, v in bench(name, 0, 1, seconds).items()}
        out[name] = {"runs": runs, "seeds": f"1-{runs}", "end_to_end": e2e,
                     "per_layer_seed0": layers}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digest", action="store_true")
    parser.add_argument("--runs", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    data = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    data["machine"] = machine()
    if args.digest:
        data["default_sweep"] = digest()
        print(json.dumps(data["default_sweep"]))
    if args.runs:
        data["workloads"] = baseline(args.runs, args.seconds)
    BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
