"""Sweep orchestration: enumerate (case, p, r, delta) tuples, evaluate each,
and serialize the outcomes so runs can be archived and diffed.

Report formats:
  json-lines -- one meta object (tool, version, config echo, summary counts)
                followed by one record per check
  csv        -- header row plus one record per check, same columns

Records carry exactly: case_id, p, r, delta, claimed_exponent,
observed_valuation ("inf" when LHS equals RHS), pass, backend, lhs, rhs,
elapsed_ms. Rationals serialize as "num/den" strings; residue-backend values
stay integers. Timing lives only in elapsed_ms, so two runs of the same grid
are byte-identical apart from that field.
"""
from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Optional, Union

from .congruences import (STATUSES, CheckParams, CheckResult, evaluate_case,
                          get_case, is_prime, list_cases)

TOOL = "supercong"
TOOL_VERSION = "0.1.0"

RECORD_FIELDS = ("case_id", "p", "r", "delta", "claimed_exponent",
                 "observed_valuation", "pass", "backend", "lhs", "rhs",
                 "elapsed_ms")


def allow_long_int_str() -> None:
    """Lift the interpreter's int-to-str digit limit for this process.

    Exact numerators and denominators at large p^r run to tens of thousands
    of digits; the entry points that print them call this, so importing the
    package leaves the interpreter as it was."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))


def demoted(res: CheckResult, strict_conjectures: bool) -> bool:
    """An informational result counts neither as a pass nor as a failure,
    except a conjecture's when strict_conjectures is set."""
    return res.informational and not (strict_conjectures and res.status == "conjecture")


class ConfigInvalid(ValueError):
    """Bad sweep configuration (file syntax, unknown key, or bad value)."""


@dataclass(frozen=True)
class SweepConfig:
    """Grid + reporting options; `primes` and `pmax` are mutually exclusive."""

    primes: Optional[tuple[int, ...]] = None
    pmax: Optional[int] = None
    r_max: int = 2
    deltas: tuple[int, ...] = (1, 2)
    glob: Optional[str] = None
    status: Optional[str] = None
    backend: str = "both"
    include_p3: bool = False
    strict_conjectures: bool = False
    report_path: Optional[str] = None
    report_format: str = "json-lines"
    jobs: int = 1

    def __post_init__(self):
        if self.primes is not None and self.pmax is not None:
            raise ConfigInvalid("give either primes or pmax, not both")
        if self.pmax is not None and self.pmax < 5:
            raise ConfigInvalid(f"pmax must be >= 5, got {self.pmax}")
        if self.primes is not None:
            if not self.primes:
                raise ConfigInvalid("primes must be non-empty")
            for p in self.primes:
                if not is_prime(p) or p < 3:
                    raise ConfigInvalid(f"{p} is not an odd prime")
                if p == 3 and not self.include_p3:
                    raise ConfigInvalid(
                        "p = 3 is below the default floor; set include_p3 = true "
                        "to run it (results are informational)")
        if self.r_max < 1:
            raise ConfigInvalid(f"r_max must be >= 1, got {self.r_max}")
        if not self.deltas or any(d not in (1, 2) for d in self.deltas):
            raise ConfigInvalid(f"deltas must be a non-empty subset of 1,2, "
                                f"got {self.deltas}")
        if len(set(self.deltas)) != len(self.deltas):
            raise ConfigInvalid("deltas must not repeat")
        if self.backend not in ("exact", "residue", "both"):
            raise ConfigInvalid(f"backend must be exact, residue, or both, "
                                f"got {self.backend!r}")
        if self.status is not None and self.status not in STATUSES:
            raise ConfigInvalid(f"unknown status {self.status!r}")
        if self.report_format not in ("json-lines", "csv"):
            raise ConfigInvalid(f"report_format must be json-lines or csv, "
                                f"got {self.report_format!r}")
        if self.jobs < 1:
            raise ConfigInvalid(f"jobs must be >= 1, got {self.jobs}")
        if self.report_path and not Path(self.report_path).parent.is_dir():
            raise ConfigInvalid(f"cannot write report {self.report_path}: no such directory")

    def resolved_primes(self) -> list[int]:
        if self.primes is not None:
            return sorted(set(self.primes))
        return [p for p in range(5, (self.pmax or 47) + 1) if is_prime(p)]

    def echo(self) -> dict:
        return {
            "primes": self.resolved_primes(),
            "r_max": self.r_max,
            "deltas": list(self.deltas),
            "glob": self.glob,
            "status": self.status,
            "backend": self.backend,
            "include_p3": self.include_p3,
            "strict_conjectures": self.strict_conjectures,
            "report_format": self.report_format,
            "jobs": self.jobs,
        }


_BOOL_KEYS = {"include_p3", "strict_conjectures"}
_INT_KEYS = {"pmax", "r_max", "jobs"}
_LIST_KEYS = {"primes", "deltas"}
_STR_KEYS = {"glob", "status", "backend", "report_path", "report_format"}
_ALL_KEYS = _BOOL_KEYS | _INT_KEYS | _LIST_KEYS | _STR_KEYS


def parse_int_list(value: str) -> tuple[int, ...]:
    """`primes` or `deltas`, from a config file or a flag; skips empty items."""
    return tuple(int(v) for v in value.split(",") if v.strip())


def parse_config(path: Union[str, Path]) -> SweepConfig:
    """Read a flat key = value config file; unknown keys and bad values error
    with their line number."""
    kwargs = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigInvalid(f"cannot read config {path}: {e}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}: line {lineno}: expected key = value, "
                                f"got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigInvalid(f"{path}: line {lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ConfigInvalid(f"{path}: line {lineno}: duplicate key {key!r}")
        try:
            if key in _BOOL_KEYS:
                if value not in ("true", "false"):
                    raise ValueError("expected true or false")
                kwargs[key] = value == "true"
            elif key in _INT_KEYS:
                kwargs[key] = int(value)
            elif key in _LIST_KEYS:
                kwargs[key] = parse_int_list(value)
            else:
                kwargs[key] = value
        except ValueError as e:
            raise ConfigInvalid(f"{path}: line {lineno}: bad value for {key}: {e}") from None
    try:
        return SweepConfig(**kwargs)
    except ConfigInvalid as e:
        raise ConfigInvalid(f"{path}: {e}") from None


@dataclass
class SweepReport:
    config: SweepConfig
    results: list[CheckResult]
    errors: list[dict] = field(default_factory=list)
    wall_s: float = 0.0                 # object-level only, never serialized
    version: str = TOOL_VERSION

    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "informational": 0, "error": len(self.errors)}
        for res in self.results:
            if demoted(res, self.config.strict_conjectures):
                counts["informational"] += 1
            elif res.passed:
                counts["pass"] += 1
            else:
                counts["fail"] += 1
        return counts

    @property
    def failed(self) -> bool:
        s = self.summary()
        return s["fail"] > 0 or s["error"] > 0

    def __repr__(self) -> str:
        """The summary counts and the first few failing and erroring points.
        No lhs or rhs: at large p^r their digits exceed the interpreter's
        int-to-str limit, and repr() would raise instead of naming the points."""
        fails = [(res.case_id, res.params.p, res.params.r, res.params.delta)
                 for res in self.results
                 if not res.passed and not demoted(res, self.config.strict_conjectures)]
        errs = [(e["case_id"], e["p"], e["r"], e["delta"]) for e in self.errors]
        return (f"SweepReport({self.summary()}, failing={fails[:5]}, "
                f"erroring={errs[:5]})")


def _plan(config: SweepConfig) -> list[tuple[str, int, int, Optional[int]]]:
    tasks = []
    for case in list_cases(status=config.status, glob=config.glob):
        for p in config.resolved_primes():
            r_range = range(1, config.r_max + 1) if case.uses_r else (1,)
            for r in r_range:
                deltas = config.deltas if case.uses_delta else (None,)
                for d in deltas:
                    tasks.append((case.id, p, r, d))
    return tasks


def _units(config: SweepConfig) -> list[list[tuple[str, int, int, Optional[int]]]]:
    """The planned tasks grouped into one unit per (p, r, kernel), where a
    case's kernel is the cached sum it reads (its series spec, its
    certificate sum in _SUMS) or else its id, so that every point reading
    one kernel at one (p, r) runs in one process and computes it once.
    Units come largest p^r first, so the longest start first; ties keep the
    plan's order."""
    units: dict[tuple, list] = {}
    for task in _plan(config):
        case_id, p, r, _ = task
        units.setdefault((p, r, get_case(case_id).kernel or case_id), []).append(task)
    return sorted(units.values(), key=lambda unit: -unit[0][1] ** unit[0][2])


def _run_task(task: tuple[str, int, int, Optional[int]], backend: str,
              include_p3: bool) -> Union[CheckResult, tuple]:
    case_id, p, r, d = task
    try:
        params = CheckParams(p=p, r=r, delta=d)
        return evaluate_case(case_id, params, backend, include_p3=include_p3)
    except Exception as e:                        # isolate per-tuple failures
        return (task, f"{type(e).__name__}: {e}")


def _run_unit(unit: list, backend: str, include_p3: bool) -> list:
    return [_run_task(task, backend, include_p3) for task in unit]


def run_sweep(config: SweepConfig) -> SweepReport:
    """Evaluate the whole grid; individual case errors are collected, never
    raised. Results come back sorted by (case_id, p, r, delta), so the
    records do not depend on the order of evaluation.  Serial and pooled
    runs walk the same units (_units): the pool is handed them largest p^r
    first, four to a chunk, and gets at most one worker per unit and per
    CPU (a fork pool starts every worker at the first submit); with one
    worker the sweep runs in this process."""
    t0 = time.perf_counter()
    units = _units(config)
    args = (repeat(config.backend), repeat(config.include_p3))
    workers = min(config.jobs, len(units), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_unit, units, *args, chunksize=4))
    else:
        done = list(map(_run_unit, units, *args))
    results, errors = [], []
    for out in (out for unit in done for out in unit):
        if isinstance(out, CheckResult):
            results.append(out)
        else:
            (case_id, p, r, d), msg = out
            errors.append({"case_id": case_id, "p": p, "r": r, "delta": d,
                           "error": msg})
    results.sort(key=lambda res: (res.case_id, res.params.p, res.params.r,
                                  res.params.delta or 0))
    errors.sort(key=lambda e: (e["case_id"], e["p"], e["r"], e["delta"] or 0))
    return SweepReport(config=config, results=results, errors=errors,
                       wall_s=time.perf_counter() - t0)


# --------------------------------------------------------------------------
# serialization

def _ser_value(x) -> Union[str, int]:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return int(x)


def _ser_record(res: CheckResult) -> dict:
    obs = res.observed_valuation
    return {
        "case_id": res.case_id,
        "p": res.params.p,
        "r": res.params.r,
        "delta": res.params.delta,
        "claimed_exponent": res.claimed_exponent,
        "observed_valuation": obs if isinstance(obs, int) else "inf",
        "pass": res.passed,
        "backend": res.backend,
        "lhs": _ser_value(res.lhs),
        "rhs": _ser_value(res.rhs),
        "elapsed_ms": round(res.elapsed_ms, 3),
    }


def write_report(report: SweepReport, path: Union[str, Path],
                 report_format: Optional[str] = None) -> Path:
    """Write the report; a path that cannot be written raises ConfigInvalid."""
    allow_long_int_str()
    path = Path(path)
    fmt = report_format or report.config.report_format
    records = [_ser_record(r) for r in report.results]
    if fmt == "json-lines":
        meta = {"tool": TOOL, "version": report.version,
                "config": report.config.echo(), "summary": report.summary()}
        lines = [json.dumps(meta)] + [json.dumps(r) for r in records]
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            row = {}
            for k, v in rec.items():
                if v is None:
                    row[k] = ""
                elif isinstance(v, bool):
                    row[k] = "true" if v else "false"
                else:
                    row[k] = v
            writer.writerow(row)
        text = buf.getvalue()
    else:
        raise ConfigInvalid(f"report_format must be json-lines or csv, got {fmt!r}")
    try:
        path.write_text(text)
    except OSError as e:
        raise ConfigInvalid(f"cannot write report {path}: {e}") from None
    return path


def _norm_record(rec: dict, where: str) -> dict:
    try:
        out = {
            "case_id": str(rec["case_id"]),
            "p": int(rec["p"]),
            "r": int(rec["r"]),
            "delta": None if rec["delta"] in (None, "") else int(rec["delta"]),
            "claimed_exponent": (None if rec["claimed_exponent"] in (None, "")
                                 else int(rec["claimed_exponent"])),
            "observed_valuation": ("inf" if rec["observed_valuation"] == "inf"
                                   else int(rec["observed_valuation"])),
            "pass": (rec["pass"] if isinstance(rec["pass"], bool)
                     else {"true": True, "false": False}[rec["pass"]]),
            "backend": str(rec["backend"]),
            "lhs": str(rec["lhs"]),
            "rhs": str(rec["rhs"]),
            "elapsed_ms": float(rec["elapsed_ms"]),
        }
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigInvalid(f"{where}: malformed record: {e}") from None
    return out


def read_report(path: Union[str, Path]) -> tuple[Optional[dict], list[dict]]:
    """Parse a report file (either format); returns (meta-or-None, records)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigInvalid(f"cannot read report {path}: {e}") from None
    if not text.strip():
        raise ConfigInvalid(f"{path}: empty report")
    first = text.lstrip()[0]
    records, meta = [], None
    if first == "{":
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ConfigInvalid(f"{path}: line {lineno}: {e}") from None
            if meta is None and not records and "tool" in obj:  # first non-blank line
                meta = obj
            else:
                records.append(_norm_record(obj, f"{path}: line {lineno}"))
    else:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames != list(RECORD_FIELDS):
            raise ConfigInvalid(f"{path}: bad csv header {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            records.append(_norm_record(row, f"{path}: line {lineno}"))
    return meta, records


# --------------------------------------------------------------------------
# baseline comparison

@dataclass
class BaselineDiff:
    changes: list[dict] = field(default_factory=list)
    new_keys: list[tuple] = field(default_factory=list)
    missing_keys: list[tuple] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        # added/removed grid points are reported but are not regressions
        return not self.changes


def _key(rec: dict) -> tuple:
    return (rec["case_id"], rec["p"], rec["r"], rec["delta"])


def _records_of(source) -> list[dict]:
    if isinstance(source, SweepReport):
        allow_long_int_str()
        return [_norm_record(_ser_record(r), "in-memory report")
                for r in source.results]
    if isinstance(source, (str, Path)):
        return read_report(source)[1]
    return [_norm_record(dict(r), "records") for r in source]


def compare_baseline(new, baseline) -> BaselineDiff:
    """Flag every (case, p, r, delta) whose pass flag or observed valuation
    moved in either direction; improvements count as changes too, so baselines
    stay in sync with behavior."""
    new_recs = {_key(r): r for r in _records_of(new)}
    base_recs = {_key(r): r for r in _records_of(baseline)}
    diff = BaselineDiff()
    for key in sorted(base_recs.keys() | new_recs.keys()):
        if key not in base_recs:
            diff.new_keys.append(key)
            continue
        if key not in new_recs:
            diff.missing_keys.append(key)
            continue
        old_r, new_r = base_recs[key], new_recs[key]
        for fld in ("pass", "observed_valuation"):
            if old_r[fld] != new_r[fld]:
                diff.changes.append({"key": key, "field": fld,
                                     "baseline": old_r[fld], "new": new_r[fld]})
    return diff
