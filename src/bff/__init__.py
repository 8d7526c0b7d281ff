"""Bayes factor functions: curves, maximum evidence estimates, and
k-support sets for a family of statistical models."""

from .engine import (
    BffCurve,
    BffModel,
    DensityFn,
    GridSpec,
    Interval,
    MeeResult,
    SupportSet,
    analyze,
    combine_sequential,
    evaluate_curve,
    find_mee,
    laplace_log_bff,
    relative_belief_ratio,
    savage_dickey_bff,
    support_region,
    support_set,
    universal_bound_pvalue,
)
from .errors import ContractError, DomainError, NumericalError

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BffCurve",
    "BffModel",
    "DensityFn",
    "GridSpec",
    "Interval",
    "MeeResult",
    "SupportSet",
    "analyze",
    "combine_sequential",
    "evaluate_curve",
    "find_mee",
    "laplace_log_bff",
    "relative_belief_ratio",
    "savage_dickey_bff",
    "support_region",
    "support_set",
    "universal_bound_pvalue",
    "ContractError",
    "DomainError",
    "NumericalError",
]
