"""Command-line front end.

Subcommands:
  list      show the case catalog (filter by status or id glob)
  verify    evaluate one case at a chosen (p, r, delta) point
  wz-check  telescoping / summand / boundary checks for a certificate pair
  sweep     evaluate a whole grid and optionally write a report
  regress   diff a report against a stored baseline

Exit codes: 0 all checks passed, 1 a check failed or a baseline changed,
2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import sys

from . import congruences, wz
from .congruences import (BackendIneligible, CheckParams, PrimeBelowFloor,
                          UnknownCase, evaluate_case, list_cases)
from .harness import (REPORT_FORMATS, ConfigInvalid, SweepConfig, allow_long_int_str,
                      compare_baseline, demoted, parse_config, parse_int_list,
                      run_sweep, write_report)


def _int_list(value: str) -> tuple[int, ...]:
    """parse_int_list for a sweep flag; an error names the format expected."""
    try:
        return parse_int_list(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="exact verification of truncated-series congruences "
                    "modulo prime powers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the case catalog")
    p_list.add_argument("--status", choices=congruences.STATUSES)
    p_list.add_argument("--glob", help="filter case ids, e.g. 'LEM-3.*'")

    p_verify = sub.add_parser("verify", help="evaluate one case at one point")
    p_verify.add_argument("--case", required=True, help="case id from `list`")
    p_verify.add_argument("--p", required=True, type=int)
    p_verify.add_argument("--r", type=int, default=1)
    p_verify.add_argument("--delta", type=int, choices=(1, 2))
    p_verify.add_argument("--k", type=int, help="single family member")
    p_verify.add_argument("--upper", type=int, help="series summation cap")
    p_verify.add_argument("--backend", choices=congruences.BACKENDS,
                          default="both")
    p_verify.add_argument("--include-p3", action="store_true",
                          help="allow p = 3 (informational)")

    p_wz = sub.add_parser("wz-check", help="certificate pair validation")
    p_wz.add_argument("--pair", required=True,
                      help="pair id (%s) or 'all'" % ", ".join(sorted(wz.PAIRS)))
    p_wz.add_argument("--nmax", type=int, default=20)
    p_wz.add_argument("--kmax", type=int, default=20)

    p_sweep = sub.add_parser("sweep", help="evaluate a grid of cases")
    p_sweep.add_argument("--config", help="flat key = value config file")
    grid = p_sweep.add_mutually_exclusive_group()
    grid.add_argument("--pmax", type=int, help="primes 5..pmax (default 47)")
    grid.add_argument("--primes", type=_int_list, help="comma-separated primes, e.g. 5,7,11")
    p_sweep.add_argument("--rmax", type=int, dest="r_max", help="max exponent r (default 2)")
    p_sweep.add_argument("--deltas", type=_int_list, help="comma-separated subset of 1,2")
    p_sweep.add_argument("--glob", help="filter case ids")
    p_sweep.add_argument("--status", choices=congruences.STATUSES)
    p_sweep.add_argument("--backend", choices=congruences.BACKENDS)
    p_sweep.add_argument("--include-p3", action="store_const", const=True,
                         default=None)
    p_sweep.add_argument("--strict-conjectures", action="store_const",
                         const=True, default=None,
                         help="count conjecture failures in the exit code")
    p_sweep.add_argument("--jobs", type=int, help="parallel worker processes")
    p_sweep.add_argument("--report", dest="report_path", help="write a report to this path")
    p_sweep.add_argument("--format", choices=REPORT_FORMATS,
                         dest="report_format")

    p_regress = sub.add_parser("regress", help="diff a report against a baseline")
    p_regress.add_argument("--report", required=True)
    p_regress.add_argument("--baseline", required=True)
    return parser


def _cmd_list(args) -> int:
    cases = list_cases(status=args.status, glob=args.glob)
    for case in cases:
        print(f"{case.id:<13} [{case.status}]  {case.statement}")
    print(f"{len(cases)} case(s)")
    return 0


def _point(case_id: str, p: int, r: int, delta: int | None) -> str:
    return f"{case_id} p={p} r={r}" + (f" delta={delta}" if delta else "")


def _cmd_verify(args) -> int:
    params = CheckParams(p=args.p, r=args.r, delta=args.delta, k=args.k,
                         upper_override=args.upper)
    res = evaluate_case(args.case, params, args.backend,
                        include_p3=args.include_p3)
    verdict = "PASS" if res.passed else "FAIL"
    if res.informational:
        verdict += " (informational)"
    point = _point(res.case_id, args.p, args.r, args.delta)
    if args.k is not None:
        point += f" k={args.k}"
    claimed = "exact equality" if res.claimed_exponent is None \
        else f"claimed>={res.claimed_exponent}"
    print(f"{point} backend={res.backend}: lhs={res.lhs!s} rhs={res.rhs!s} "
          f"observed={res.observed_valuation} {claimed} -> {verdict}")
    if res.note:
        print(f"  note: {res.note}")
    if res.passed or res.informational:
        return 0
    return 1


def _check_pair(pair_id: str, nmax: int, kmax: int) -> bool:
    grid = wz.check_telescoping(pair_id, nmax, kmax)
    ok = grid.passed
    print(f"{pair_id}: telescoping on [0,{nmax}]x[1,{kmax}]: "
          f"{'ok' if grid.passed else f'{len(grid.violations)} violation(s)'} "
          f"({grid.cells_checked} cells)")
    summand = wz.check_summand(pair_id, nmax)
    ok = ok and summand.passed
    print(f"{pair_id}: boundary column F(n,0) matches the series summand "
          f"for n <= {nmax}: {'ok' if summand.passed else 'MISMATCH'}")
    for K in dict.fromkeys((max(1, kmax // 2), kmax)):     # once when kmax = 1
        good = wz.boundary_identity(pair_id, nmax, K)
        ok = ok and good
        print(f"{pair_id}: boundary identity at (N,K)=({nmax},{K}): "
              f"{'ok' if good else 'MISMATCH'}")
    return ok


def _cmd_wz_check(args) -> int:
    if args.nmax < 1 or args.kmax < 1:
        raise ValueError("nmax and kmax must be >= 1")
    pair_ids = sorted(wz.PAIRS) if args.pair == "all" else [args.pair]
    ok = True
    for pid in pair_ids:
        if pid not in wz.PAIRS:
            raise ValueError(f"unknown pair {pid!r}; known: "
                             + ", ".join(sorted(wz.PAIRS)))
        ok = _check_pair(pid, args.nmax, args.kmax) and ok
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    config = parse_config(args.config) if args.config else SweepConfig()
    # each sweep flag's dest is its option's name; a flag given overrides
    # the file, and --pmax or --primes replaces the file's grid
    overrides = {name: getattr(args, name) for name in SweepConfig._fields
                 if getattr(args, name) is not None}
    if "pmax" in overrides or "primes" in overrides:
        overrides = {"pmax": None, "primes": None, **overrides}
    config = config._replace(**overrides)

    report = run_sweep(config)
    for res in report.results:
        if not res.passed and not demoted(res, config.strict_conjectures):
            print(f"FAIL {_point(res.case_id, res.params.p, res.params.r, res.params.delta)}"
                  f": observed={res.observed_valuation} < claimed {res.claimed_exponent}")
    for err in report.errors:
        print(f"ERROR {_point(err['case_id'], err['p'], err['r'], err['delta'])}: "
              f"{err['error']}")
    s = report.summary()
    print(f"checked {len(report.results)} points: {s['pass']} pass, "
          f"{s['fail']} fail, {s['informational']} informational, "
          f"{s['error']} error(s) in {report.wall_s:.1f}s")
    if config.report_path:
        out = write_report(report, config.report_path)
        print(f"report written to {out}")
    return 1 if report.failed else 0


def _cmd_regress(args) -> int:
    diff = compare_baseline(args.report, args.baseline)
    for ch in diff.changes:
        print(f"CHANGE {_point(*ch['key'])} {ch['field']}: "
              f"{ch['baseline']} -> {ch['new']}")
    for key in diff.new_keys:
        print(f"NEW {_point(*key)}")
    for key in diff.missing_keys:
        print(f"MISSING {_point(*key)}")
    if diff.clean:
        print("no regressions")
        return 0
    print(f"{len(diff.changes)} regression(s)")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    allow_long_int_str()
    handlers = {"list": _cmd_list, "verify": _cmd_verify,
                "wz-check": _cmd_wz_check, "sweep": _cmd_sweep,
                "regress": _cmd_regress}
    try:
        return handlers[args.command](args)
    except congruences.BackendDisagreement as e:    # a check failed, not a usage error
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ConfigInvalid, UnknownCase, PrimeBelowFloor, BackendIneligible,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
