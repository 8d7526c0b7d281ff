"""BFF for a binomial proportion with a truncated beta prior under H1."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import BffModel
from .errors import DomainError
from .quadrature import log_integrate
from .specfun import log_beta, log_trunc_beta_mass

__all__ = [
    "BinomialData",
    "TruncBetaPrior",
    "binomial_bff",
    "binomial_marginal_loglik_quadrature",
]


@dataclass(frozen=True)
class BinomialData:
    """y successes out of n trials."""

    y: int
    n: int

    def __post_init__(self):
        if self.n < 0 or not (0 <= self.y <= self.n):
            raise DomainError(f"need 0 <= y <= n, got y={self.y}, n={self.n}")


@dataclass(frozen=True)
class TruncBetaPrior:
    """Beta(a, b) restricted to [l, u] and renormalized."""

    a: float
    b: float
    l: float = 0.0
    u: float = 1.0

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(f"shape parameters must be positive, got a={self.a}, b={self.b}")
        if not (0.0 <= self.l < self.u <= 1.0):
            raise DomainError(f"need 0 <= l < u <= 1, got l={self.l}, u={self.u}")

    @cached_property
    def log_mass(self) -> float:
        """ln of the Beta(a,b) mass on [l, u]."""
        return log_trunc_beta_mass(self.a, self.b, self.l, self.u)

    def log_density(self, theta):
        t = np.asarray(theta, dtype=float)
        # a == 1 (or b == 1) would hit 0 * log(0) = nan at the endpoints
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.zeros_like(t) if self.a == 1.0 else (self.a - 1.0) * np.log(t)
            right = np.zeros_like(t) if self.b == 1.0 else (self.b - 1.0) * np.log1p(-t)
        out = left + right - log_beta(self.a, self.b) - self.log_mass
        out = np.where((t < self.l) | (t > self.u), -np.inf, out)
        return float(out) if np.ndim(theta) == 0 else out

    def describe(self) -> str:
        return f"trunc-beta(a={self.a:g}, b={self.b:g}, l={self.l:g}, u={self.u:g})"


def _binom_log_kernel(theta: np.ndarray, y: int, n: int) -> np.ndarray:
    """y ln(theta) + (n-y) ln(1-theta) with the 0*log(0) = 0 convention."""
    t = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(y == 0, 0.0, y * np.log(t))
        right = np.where(n - y == 0, 0.0, (n - y) * np.log1p(-t))
    return left + right


def binomial_bff(data: BinomialData, prior: TruncBetaPrior) -> BffModel:
    """Closed-form log BF01(theta0) for H0: theta = theta0.

    The alternative's marginal likelihood is a ratio of beta functions
    and truncated masses, constant in theta0, so the BFF is the binomial
    log kernel plus a constant and the MEE is the sample proportion.
    At theta0 in {0, 1} with 0 < y < n the value is -infinity (reported,
    not raised): such a theta0 is refuted outright by the data.
    """
    y, n = data.y, data.n
    a1, b1 = prior.a + y, prior.b + n - y
    log_denom = (
        log_beta(a1, b1)
        - log_beta(prior.a, prior.b)
        + log_trunc_beta_mass(a1, b1, prior.l, prior.u)
        - prior.log_mass
    )

    def log_bff(theta0):
        t = np.asarray(theta0, dtype=float)
        if np.any((t < 0.0) | (t > 1.0)):
            raise DomainError("theta0 must lie in [0, 1]")
        out = _binom_log_kernel(t, y, n) - log_denom
        return float(out) if np.ndim(theta0) == 0 else out

    return BffModel(
        log_bff=log_bff,
        lower=(0.0,),
        upper=(1.0,),
        descriptor=f"binomial(y={y}, n={n}) + {prior.describe()}",
        dim=1,
        lower_closed=(y == 0,),
        upper_closed=(y == n,),
    )


def binomial_marginal_loglik_quadrature(data: BinomialData, prior: TruncBetaPrior) -> float:
    """Log marginal likelihood under H1 by log-space quadrature.

    Integrates the binomial log kernel (the binomial coefficient is
    omitted, as it cancels from the Bayes factor) against the truncated
    beta prior over [l, u].  Independent cross-check of the closed-form
    denominator used by binomial_bff.
    """
    y, n = data.y, data.n

    def log_integrand(theta):
        return _binom_log_kernel(theta, y, n) + prior.log_density(theta)

    return log_integrate(log_integrand, prior.l, prior.u)
