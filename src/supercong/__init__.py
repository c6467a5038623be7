"""Exact verification of truncated hypergeometric-series congruences modulo
prime powers, with certificate-pair telescoping checks and a sweep harness."""

from .exactnum import (INFINITE, PNotIntegral, Rational, Valuation, is_prime,
                       residue, vp)
from .combinat import (binomial, binomial_product, central_binomial,
                       euler_number, fermat_quotient, lucas_product)
from .wz import (PAIRS, GridReport, WzPair, boundary_identity,
                 check_summand, check_telescoping, eval_F, eval_G, get_pair)
from .congruences import (CATALOG, P_FLOOR, STATUSES, BackendDisagreement,
                          BackendIneligible, CheckParams, CheckResult,
                          CongruenceCase, PrimeBelowFloor, UnknownCase,
                          evaluate_case, get_case, list_cases,
                          series_sum_exact, series_sum_residue)
from .harness import (TOOL_VERSION as __version__, BaselineDiff, ConfigInvalid,
                      SweepConfig, SweepReport, compare_baseline, parse_config,
                      read_report, run_sweep, write_report)

__all__ = [
    "INFINITE", "PNotIntegral", "Rational", "Valuation",
    "is_prime", "residue", "vp",
    "binomial", "binomial_product", "central_binomial", "euler_number",
    "fermat_quotient", "lucas_product",
    "PAIRS", "GridReport", "WzPair", "boundary_identity", "check_summand",
    "check_telescoping", "eval_F", "eval_G", "get_pair",
    "CATALOG", "P_FLOOR", "STATUSES", "BackendDisagreement",
    "BackendIneligible", "CheckParams", "CheckResult", "CongruenceCase",
    "PrimeBelowFloor", "UnknownCase",
    "evaluate_case", "get_case", "list_cases",
    "series_sum_exact", "series_sum_residue",
    "BaselineDiff", "ConfigInvalid", "SweepConfig", "SweepReport",
    "compare_baseline", "parse_config", "read_report", "run_sweep",
    "write_report",
    "__version__",
]
