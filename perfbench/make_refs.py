"""Regenerate refs.json, the reference outputs and cost tables.

usage (from the repository root): python3 perfbench/make_refs.py

Run it only at a commit whose outputs are known to be right: every benchmark
run is checked against what it writes, so regenerating at a wrong commit
hides the error. It runs, each in one fresh process:

- each sweep workload's status over its whole prime band, serially: a sha256
  per record (elapsed_ms removed), and per prime the summed elapsed_ms, the
  cost table that seeded draws are matched against;
- the workload's wz-check: its output lines per pair;
- every residue-deep candidate point: its verify output line and wall time.
  Points that do not pass are left out, so no draw can include them.

Each is run REPEATS times and a cost is the minimum over the repeats: on a
shared machine a single timing can read up to half again too slow, which
would bias which inputs the seeds draw.

It also stores, per workload, the digest of the seed-0 outputs.
"""
from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict

import run
import workloads

REPEATS = 3


def _run(commands, name: str) -> dict:
    res = run.run_child(commands, name)
    if "error" in res:
        raise SystemExit(f"{name}: {res['error']}")
    return res


def _same(outputs: list) -> object:
    if any(o != outputs[0] for o in outputs):
        raise SystemExit("outputs differ between repeats of the same inputs")
    return outputs[0]


def sweep_refs(name: str, w: workloads.SweepWorkload) -> dict:
    commands = ([w.wz] if w.wz else []) + [workloads.Sweep(w.status, w.band, 1)]
    wz_lines, records, costs = [], [], []
    for _ in range(REPEATS):
        res = _run(commands, name)
        if w.wz:
            wz_lines.append(w.wz.observed(res["commands"][0]["stdout"], None))
        report = run.report_path(name, len(commands) - 1)
        recs, cost = {}, defaultdict(float)
        for line in report.read_text().splitlines()[1:]:
            rec = json.loads(line)
            key = workloads.point_key(rec["case_id"], rec["p"], rec["r"], rec["delta"])
            recs[key] = workloads.record_digest(rec)
            cost[str(rec["p"])] += rec["elapsed_ms"] / 1000
        records.append(recs)
        costs.append(cost)
    out: dict = {"records": _same(records),
                 "prime_cost_s": {p: round(min(c[p] for c in costs), 4) for p in costs[0]}}
    if w.wz:
        out["wz"] = _same(wz_lines)
    return out


def verify_refs(name: str, w: workloads.VerifyWorkload) -> dict:
    points = w.candidates()
    lines, costs = [], []
    for rep in range(REPEATS):
        order = points if rep % 2 == 0 else points[::-1]
        res = _run(order, name)
        by_key = {p.key: cmd for p, cmd in zip(order, res["commands"])}
        lines.append({k: (c["exit"], c["stdout"].rstrip("\n")) for k, c in by_key.items()})
        costs.append({k: c["wall_s"] for k, c in by_key.items()})
    out = {}
    for key, (code, line) in _same(lines).items():
        if code == 0 and line.endswith("-> PASS"):
            out[key] = {"line": line, "cost_s": round(min(c[key] for c in costs), 4)}
        else:
            print(f"{name}: leaving out {key}: {line}")
    return {"points": out}


def canonical_digest(name: str, refs: dict) -> str:
    h = hashlib.sha256()
    for cmd in workloads.plan(name, 0, refs[name]):
        for key, value in sorted(cmd.expected(refs[name]).items()):
            h.update(f"{key}\t{value}\n".encode())
    return h.hexdigest()


def main() -> int:
    refs: dict = {}
    for name, w in workloads.WORKLOADS.items():
        print(f"{name} ...", flush=True)
        refs[name] = (sweep_refs(name, w) if isinstance(w, workloads.SweepWorkload)
                      else verify_refs(name, w))
    refs["digests"] = {name: canonical_digest(name, refs) for name in workloads.WORKLOADS}
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
