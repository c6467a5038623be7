"""Exact verification of truncated hypergeometric-series congruences modulo
prime powers, with certificate-pair telescoping checks and a sweep harness."""

from .exactnum import (INFINITE, PadicContext, PNotIntegral, Rational,
                       Valuation, congruent, is_prime, residue, vp)
from .combinat import (DivisionByZero, UnsupportedConvention, binomial,
                       binomial_rat, central_binomial, euler_number, factorial,
                       fermat_quotient, harmonic, lucas_residue, neg_half,
                       odd_product, pochhammer, pochhammer_half,
                       pochhammer_neg_half, recip_pochhammer)
from .wz import (PAIRS, GridReport, WzPair, boundary_identity,
                 check_summand, check_telescoping, eval_F, eval_G, get_pair,
                 summand_sign)
from .congruences import (CATALOG, P_FLOOR, STATUSES, BackendDisagreement,
                          BackendIneligible, CheckParams, CheckResult,
                          CongruenceCase, PrimeBelowFloor, UnknownCase,
                          cross_validate, evaluate_case, get_case, list_cases,
                          series_sum_exact, series_sum_residue)
from .harness import (BaselineDiff, ConfigInvalid, SweepConfig, SweepReport,
                      compare_baseline, parse_config, read_report, run_sweep,
                      write_report)

__version__ = "0.1.0"

__all__ = [
    "INFINITE", "PadicContext", "PNotIntegral", "Rational", "Valuation",
    "congruent", "is_prime", "residue", "vp",
    "DivisionByZero", "UnsupportedConvention", "binomial", "binomial_rat",
    "central_binomial", "euler_number", "factorial", "fermat_quotient",
    "harmonic", "lucas_residue", "neg_half", "odd_product", "pochhammer",
    "pochhammer_half", "pochhammer_neg_half", "recip_pochhammer",
    "PAIRS", "GridReport", "WzPair", "boundary_identity", "check_summand",
    "check_telescoping", "eval_F", "eval_G", "get_pair", "summand_sign",
    "CATALOG", "P_FLOOR", "STATUSES", "BackendDisagreement",
    "BackendIneligible", "CheckParams", "CheckResult", "CongruenceCase",
    "PrimeBelowFloor", "UnknownCase",
    "cross_validate", "evaluate_case", "get_case", "list_cases",
    "series_sum_exact", "series_sum_residue",
    "BaselineDiff", "ConfigInvalid", "SweepConfig", "SweepReport",
    "compare_baseline", "parse_config", "read_report", "run_sweep",
    "write_report",
    "__version__",
]
