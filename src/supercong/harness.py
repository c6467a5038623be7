"""Sweep orchestration: enumerate (case, p, r, delta) tuples, evaluate each,
and serialize the outcomes so runs can be archived and diffed.

Importing this module loads no process-pool machinery: concurrent.futures
(and with it multiprocessing, socket, pickle and logging) is imported by
_pool, when a sweep starts more than one worker, and csv and json by the
report functions that read or write them.  So importing the package, and
every command but a pooled sweep, never pays for them, nor for pathlib:
paths go through os.path and open().  Each sweep option is declared once,
in _OPTIONS with its default and its parser: its name is a SweepConfig
field, the config-file key, the report echo's key and the sweep flag's
dest.

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

import io
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from typing import Optional, Union

from .congruences import (BACKENDS, SERIES, STATUSES, CheckParams, CheckResult,
                          evaluate_case, get_case, is_prime, list_cases)

TOOL = "supercong"
TOOL_VERSION = "0.1.0"

RECORD_FIELDS = ("case_id", "p", "r", "delta", "claimed_exponent",
                 "observed_valuation", "pass", "backend", "lhs", "rhs",
                 "elapsed_ms")
REPORT_FORMATS = ("json-lines", "csv")


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


def parse_int_list(value: str) -> tuple[int, ...]:
    """`primes` or `deltas`, from a config file or a flag; skips empty items."""
    return tuple(int(v) for v in value.split(",") if v.strip())


def _parse_bool(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError("expected true or false")
    return value == "true"


# one entry per sweep option: (name, default, parser of its config-file
# value); a value has its parser's type, or is None where that is the default
_OPTIONS = (
    ("primes", None, parse_int_list),
    ("pmax", None, int),
    ("r_max", 2, int),
    ("deltas", (1, 2), parse_int_list),
    ("glob", None, str),
    ("status", None, str),
    ("backend", "both", str),
    ("include_p3", False, _parse_bool),
    ("strict_conjectures", False, _parse_bool),
    ("report_path", None, str),
    ("report_format", "json-lines", str),
    ("jobs", 1, int),
)


class SweepConfig(namedtuple("SweepConfig", [name for name, _, _ in _OPTIONS],
                             defaults=[default for _, default, _ in _OPTIONS])):
    """Grid + reporting options, one field per entry of _OPTIONS; `primes`
    and `pmax` are mutually exclusive.  Every construction validates,
    _replace's included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        if self.backend not in BACKENDS:
            raise ConfigInvalid(f"backend must be exact, residue, or both, "
                                f"got {self.backend!r}")
        if self.status is not None and self.status not in STATUSES:
            raise ConfigInvalid(f"unknown status {self.status!r}")
        if self.report_format not in REPORT_FORMATS:
            raise ConfigInvalid(f"report_format must be json-lines or csv, "
                                f"got {self.report_format!r}")
        if self.jobs < 1:
            raise ConfigInvalid(f"jobs must be >= 1, got {self.jobs}")
        # an unwritable report path fails here, before the sweep, and is not opened
        path = self.report_path
        parent = os.path.dirname(path or "") or "."
        if path and os.path.isdir(path):
            raise ConfigInvalid(f"cannot write report {path}: is a directory")
        if path and not os.path.isdir(parent):
            raise ConfigInvalid(f"cannot write report {path}: no such directory")
        if path and not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise ConfigInvalid(f"cannot write report {path}: permission denied")
        return self

    @classmethod
    def _make(cls, values):
        return cls(*values)

    def resolved_primes(self) -> list[int]:
        if self.primes is not None:
            return sorted(set(self.primes))
        return [p for p in range(5, (self.pmax or 47) + 1) if is_prime(p)]

    def echo(self) -> dict:
        """The report's config: every option but pmax and report_path, primes resolved."""
        options = {name: value for name, value in self._asdict().items()
                   if name not in ("pmax", "report_path")}
        return {**options, "primes": self.resolved_primes(), "deltas": list(self.deltas)}


def parse_config(path: Union[str, os.PathLike]) -> SweepConfig:
    """Read a flat key = value config file whose keys are the names in
    _OPTIONS; unknown keys and bad values error with their line number."""
    parsers = {name: parse for name, _, parse in _OPTIONS}
    kwargs = {}
    try:
        with open(path) as f:
            text = f.read()
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
        if key not in parsers:
            raise ConfigInvalid(f"{path}: line {lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ConfigInvalid(f"{path}: line {lineno}: duplicate key {key!r}")
        try:
            kwargs[key] = parsers[key](value)
        except ValueError as e:
            raise ConfigInvalid(f"{path}: line {lineno}: bad value for {key}: {e}") from None
    try:
        return SweepConfig(**kwargs)
    except ConfigInvalid as e:
        raise ConfigInvalid(f"{path}: {e}") from None


class SweepReport:
    def __init__(self, config: SweepConfig, results: list[CheckResult],
                 errors: Optional[list[dict]] = None, wall_s: float = 0.0):
        self.config, self.results = config, results
        self.errors = [] if errors is None else errors
        self.wall_s = wall_s            # object-level only, never serialized

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
    """The planned tasks grouped into units, each run in one process, so that
    a cached sum is computed once.  A case's kernel is the cached sum it
    reads (a series spec, a certificate sum in _SUMS) or else its id.  Every
    point reading one series spec is one unit for the whole sweep, as its
    terms do not depend on p; every other point is in one unit per (p, r,
    kernel).  A unit whose points have an upper runs in ascending upper
    (LEM-2.1's delta = 2 window first, a row's slices left to right), so
    its one running exact pass steps each term once.  Units are ordered by
    their largest p^r, largest first, so the longest start first; ties keep
    the plan's order."""
    units: dict[tuple, list] = {}
    for task in _plan(config):
        case_id, p, r, _ = task
        kernel = get_case(case_id).kernel or case_id
        units.setdefault((kernel,) if kernel in SERIES else (p, r, kernel), []).append(task)
    for unit in units.values():
        if get_case(unit[0][0]).upper is not None:
            unit.sort(key=lambda t: get_case(t[0]).upper(t[1], t[2], t[3] or 1))
    return sorted(units.values(), key=lambda unit: -max(p ** r for _, p, r, _ in unit))


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


def _pool(workers: int):
    """A process pool of `workers` workers.  Its modules are imported here,
    at the first sweep that starts a pool, not when this module loads."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def run_sweep(config: SweepConfig) -> SweepReport:
    """Evaluate the whole grid; individual case errors are collected, never
    raised. Results come back sorted by (case_id, p, r, delta), so the
    records do not depend on the order of evaluation.  Serial and pooled
    runs walk the same units (_units: one per series spec, one per (p, r)
    and other kernel): the pool is handed them largest p^r first, four to a
    chunk, and gets at most one worker per unit and per CPU (a fork pool
    starts every worker at the first submit); with one worker the sweep
    runs in this process, and the pool's modules are never imported
    (_pool)."""
    t0 = time.perf_counter()
    units = _units(config)
    args = (repeat(config.backend), repeat(config.include_p3))
    workers = min(config.jobs, len(units), os.cpu_count() or 1)
    if workers > 1:
        with _pool(workers) as pool:
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


def write_report(report: SweepReport, path: Union[str, os.PathLike]) -> Union[str, os.PathLike]:
    """Write the report in its config's report_format and return its path; a
    path that cannot be written raises ConfigInvalid."""
    allow_long_int_str()
    records = [_ser_record(r) for r in report.results]
    if report.config.report_format == "json-lines":
        import json
        meta = {"tool": TOOL, "version": TOOL_VERSION,
                "config": report.config.echo(), "summary": report.summary()}
        lines = [json.dumps(meta)] + [json.dumps(r) for r in records]
        text = "\n".join(lines) + "\n"
    else:
        import csv
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
    try:
        with open(path, "w") as f:
            f.write(text)
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


def read_report(path: Union[str, os.PathLike]) -> tuple[Optional[dict], list[dict]]:
    """Parse a report file (either format); returns (meta-or-None, records)."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigInvalid(f"cannot read report {path}: {e}") from None
    if not text.strip():
        raise ConfigInvalid(f"{path}: empty report")
    first = text.lstrip()[0]
    records, meta = [], None
    if first == "{":
        import json
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
        import csv
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames != list(RECORD_FIELDS):
            raise ConfigInvalid(f"{path}: bad csv header {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            records.append(_norm_record(row, f"{path}: line {lineno}"))
    return meta, records


# --------------------------------------------------------------------------
# baseline comparison

class BaselineDiff:
    def __init__(self):
        self.changes: list[dict] = []
        self.new_keys: list[tuple] = []
        self.missing_keys: list[tuple] = []

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
    if isinstance(source, (str, os.PathLike)):
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
