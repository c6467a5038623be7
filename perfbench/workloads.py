"""The benchmark's workloads, their seeded inputs, and the output checks.

Seed 0 gives each workload its canonical inputs. Any other seed draws inputs
of the same kind that the canonical inputs do not contain, at the same
predicted cost (within COST_TOLERANCE), so that run times stay comparable
across seeds. The prediction adds up per-prime (sweeps) or per-point (verify)
costs stored in refs.json.

- A sweep keeps its case status and draws its primes from a wider band; at
  least one drawn prime is not in the canonical set. The canonical set is the
  cheapest of its size, so a cost-matched draw holds up to MAX_FEWER primes
  fewer (each prime is 16 to 32 points, r = 1 and 2).
- residue-deep keeps its five theorem series and replaces every point by
  another (p, r, delta) whose series has 2000 to 3200 terms.

Every run's outputs are compared with refs.json, which make_refs.py wrote at a
commit whose outputs were known to be right: a sha256 per sweep record with
`elapsed_ms` removed, the exact `verify` output line per point, and the exact
`wz-check` output lines per pair.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

REFS_PATH = Path(__file__).resolve().parent / "refs.json"
COST_TOLERANCE = 0.02
MAX_FEWER = 3


def primes_between(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(n for n in range(lo, hi + 1)
                 if n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1)))


def point_key(case_id: str, p: int, r: int, delta: Optional[int]) -> str:
    return f"{case_id}|{p}|{r}|{'' if delta is None else delta}"


def record_digest(record: dict) -> str:
    """sha256 of one report record with its timing field removed."""
    rec = {k: v for k, v in record.items() if k != "elapsed_ms"}
    return hashlib.sha256(json.dumps(rec).encode()).hexdigest()


# --------------------------------------------------------------------------
# commands: one `supercong` CLI invocation each, with its expected outputs

@dataclass(frozen=True)
class Sweep:
    status: str
    primes: tuple[int, ...]
    jobs: int

    def argv(self, report: Path) -> list[str]:
        return ["sweep", "--status", self.status,
                "--primes", ",".join(map(str, self.primes)), "--rmax", "2",
                "--backend", "both", "--jobs", str(self.jobs),
                "--report", str(report)]

    def expected(self, refs: dict) -> dict[str, str]:
        return {k: h for k, h in refs["records"].items()
                if int(k.split("|")[1]) in self.primes}

    @staticmethod
    def observed(stdout: str, report: Path) -> dict[str, str]:
        try:
            lines = report.read_text().splitlines()[1:]       # skip the meta line
        except OSError:
            return {}
        out = {}
        for line in lines:
            rec = json.loads(line)
            out[point_key(rec["case_id"], rec["p"], rec["r"], rec["delta"])] = \
                record_digest(rec)
        return out


@dataclass(frozen=True)
class WzCheck:
    nmax: int
    kmax: int

    def argv(self, report: Path) -> list[str]:
        return ["wz-check", "--pair", "all", "--nmax", str(self.nmax),
                "--kmax", str(self.kmax)]

    def expected(self, refs: dict) -> dict[str, str]:
        return refs["wz"]

    @staticmethod
    def observed(stdout: str, report: Path) -> dict[str, str]:
        pairs: dict[str, list[str]] = {}
        for line in stdout.splitlines():
            pairs.setdefault(line.split(":", 1)[0], []).append(line)
        return {pair: "\n".join(lines) for pair, lines in pairs.items()}


@dataclass(frozen=True)
class Verify:
    case_id: str
    p: int
    r: int
    delta: Optional[int]

    def argv(self, report: Path) -> list[str]:
        argv = ["verify", "--case", self.case_id, "--p", str(self.p),
                "--r", str(self.r), "--backend", "residue"]
        return argv if self.delta is None else argv + ["--delta", str(self.delta)]

    @property
    def key(self) -> str:
        return point_key(self.case_id, self.p, self.r, self.delta)

    def expected(self, refs: dict) -> dict[str, str]:
        return {self.key: refs["points"][self.key]["line"]}

    def observed(self, stdout: str, report: Path) -> dict[str, str]:
        return {self.key: stdout.rstrip("\n")} if stdout else {}


Command = Union[Sweep, WzCheck, Verify]


def count_failed(expected: dict[str, str], observed: dict[str, str],
                 exit_code: Optional[int]) -> int:
    """Points or pairs missing, differing from the reference, or unexpected;
    a command that did not exit with 0 fails at least one of them."""
    failed = sum(observed.get(k) != v for k, v in expected.items())
    failed += sum(k not in expected for k in observed)
    return max(failed, 1) if exit_code != 0 else failed


# --------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class SweepWorkload:
    status: str
    canonical: tuple[int, ...]           # primes at seed 0
    band: tuple[int, ...]                # primes other seeds draw from
    jobs: int
    wz: Optional[WzCheck] = None         # run before the sweep


@dataclass(frozen=True)
class VerifyWorkload:
    canonical: tuple[Verify, ...]        # one point per theorem series
    terms: tuple[int, int] = (2000, 3200)  # other seeds: series length band

    def candidates(self) -> list[Verify]:
        """Points of the canonical cases, r >= 2, whose series has a number
        of terms within `terms`: p^r in the full window, (p^r+1)/2 in the
        half window (delta = 2)."""
        lo, hi = self.terms
        out = []
        for point in self.canonical:
            for p in primes_between(5, 80):
                for r in range(2, 7):
                    q = p ** r
                    if lo <= q <= hi:
                        out.append(replace(point, p=p, r=r))
                    if point.delta is not None and lo <= (q + 1) // 2 <= hi:
                        out.append(replace(point, p=p, r=r, delta=2))
        return out


# Each band ends at the largest prime whose points alone cost less than the
# canonical inputs; a larger one could never be drawn.
WORKLOADS: dict[str, Union[SweepWorkload, VerifyWorkload]] = {
    # series summation, exact and residue cross-check; no family work
    "theorem-series": SweepWorkload("theorem", primes_between(5, 41),
                                    primes_between(5, 47), jobs=1),
    # family-member evaluation (binomials, valuations); no series summation
    "fact-families": SweepWorkload("fact-family", primes_between(5, 41),
                                   primes_between(5, 47), jobs=1),
    # the WZ layer and the process pool: certificate rows and columns
    "certificates": SweepWorkload("lemma", primes_between(5, 47),
                                  primes_between(5, 53), jobs=2,
                                  wz=WzCheck(40, 40)),
    # residue reduction and term generation only, series of 2000-3200 terms.
    # Not among the workloads BENCHMARK.json gates on: on a shared 2-vCPU host
    # its wall time swung by a third within minutes while theorem-series,
    # run alternately with it, swung by 5 %, so ten runs spread past any
    # allowed bound. Run it by name.
    "residue-deep": VerifyWorkload((Verify("GZ-10N2", 5, 5, 1),
                                    Verify("GUO-64", 5, 5, None),
                                    Verify("GL-R", 5, 5, None),
                                    Verify("Z-20N3", 7, 4, None),
                                    Verify("GZ-120N2-R", 7, 4, 1))),
}


def load_refs() -> dict:
    with open(REFS_PATH) as f:
        return json.load(f)


def _within(cost: float, target: float) -> bool:
    return abs(cost - target) <= COST_TOLERANCE * target


def _draw_primes(rng: random.Random, w: SweepWorkload, cost: dict[str, float]
                 ) -> tuple[int, ...]:
    target = sum(cost[str(p)] for p in w.canonical)
    n = len(w.canonical)
    options = [c for k in range(n - MAX_FEWER, n + 1)
               for c in itertools.combinations(w.band, k)
               if not set(c) <= set(w.canonical)
               and _within(sum(cost[str(p)] for p in c), target)]
    return rng.choice(options)


def _draw_points(rng: random.Random, w: VerifyWorkload, points: dict[str, dict]
                 ) -> tuple[Verify, ...]:
    slots = [[v for v in w.candidates()
              if v.case_id == c.case_id and v != c and v.key in points]
             for c in w.canonical]
    target = sum(points[v.key]["cost_s"] for v in w.canonical)
    options = [combo for combo in itertools.product(*slots)
               if _within(sum(points[v.key]["cost_s"] for v in combo), target)]
    return rng.choice(options)


def plan(name: str, seed: int, refs: dict) -> list[Command]:
    """The commands one run of workload `name` executes for `seed`; `refs` is
    the workload's section of refs.json."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    if isinstance(w, VerifyWorkload):
        return list(w.canonical if seed == 0 else _draw_points(rng, w, refs["points"]))
    primes = w.canonical if seed == 0 else _draw_primes(rng, w, refs["prime_cost_s"])
    return ([w.wz] if w.wz else []) + [Sweep(w.status, primes, w.jobs)]


def serial(commands: list[Command]) -> list[Command]:
    """The same commands with every sweep run on one process."""
    return [replace(c, jobs=1) if isinstance(c, Sweep) else c for c in commands]
