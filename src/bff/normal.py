"""BFFs for a normally distributed estimate with known standard error.

Covers the three closed-form priors (global normal, local normal,
shifted point), the replication-study BFF built from an original study's
estimate, the unit-variance asymptotic machinery with its threshold
probabilities, and the integrated-likelihood variance estimate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Sequence, Union

import numpy as np
from scipy.special import gammaincc, gammaln, xlogy

from .engine import BffModel, DensityFn, Interval, MeeResult, SupportSet
from .errors import DomainError
from .specfun import normal_log_density

__all__ = [
    "NormalSummary",
    "GlobalNormalPrior",
    "LocalNormalPrior",
    "PointShiftPrior",
    "ReplicationPair",
    "normal_bff",
    "normal_closed_summaries",
    "global_prior_density",
    "conjugate_posterior_density",
    "replication_bff",
    "replication_summaries",
    "replication_posterior",
    "replication_posterior_hpd",
    "log_bff_unitvariance",
    "bff_threshold_prob",
    "mil_variance",
    "integrated_log_likelihood",
]

# two-sided 95% normal quantile, used for HPD intervals
_Z_95 = NormalDist().inv_cdf(0.975)


@dataclass(frozen=True)
class NormalSummary:
    """An estimate y with its standard error sigma."""

    y: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not math.isfinite(self.y):
            raise DomainError(f"y must be finite, got {self.y!r}")


@dataclass(frozen=True)
class GlobalNormalPrior:
    """theta | H1 ~ N(m, v): one prior for every tested value."""

    m: float
    v: float

    def __post_init__(self):
        if not (self.v > 0.0 and math.isfinite(self.v)):
            raise DomainError(f"prior variance must be positive and finite, got {self.v!r}")
        if not math.isfinite(self.m):
            raise DomainError(f"prior mean must be finite, got {self.m!r}")

    def describe(self) -> str:
        return f"global-normal(m={self.m:g}, v={self.v:g})"


@dataclass(frozen=True)
class LocalNormalPrior:
    """theta | H1 ~ N(theta0, v): prior re-centered at each tested value."""

    v: float

    def __post_init__(self):
        if not (self.v > 0.0 and math.isfinite(self.v)):
            raise DomainError(f"prior variance must be positive and finite, got {self.v!r}")

    def describe(self) -> str:
        return f"local-normal(v={self.v:g})"


@dataclass(frozen=True)
class PointShiftPrior:
    """H1 is the single point theta0 + d, d > 0."""

    d: float

    def __post_init__(self):
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise DomainError(f"shift d must be positive and finite, got {self.d!r}")

    def describe(self) -> str:
        return f"point-shift(d={self.d:g})"


NormalPrior = Union[GlobalNormalPrior, LocalNormalPrior, PointShiftPrior]


def normal_bff(data: NormalSummary, prior: NormalPrior) -> BffModel:
    """Closed-form log BF01 for H0: theta = theta0 given one normal estimate."""
    y, s2 = data.y, data.sigma**2

    if isinstance(prior, GlobalNormalPrior):
        m, v = prior.m, prior.v
        const = 0.5 * math.log1p(v / s2) + (y - m) ** 2 / (2.0 * (s2 + v))

        def log_bff(theta0):
            # d * d, not d ** 2: a 0-d power is libm pow, an array one a square
            d = y - np.asarray(theta0, dtype=float)
            return -(d * d) / (2.0 * s2) + const

    elif isinstance(prior, LocalNormalPrior):
        v = prior.v
        const = 0.5 * math.log1p(v / s2)
        denom = 2.0 * s2 * (1.0 + s2 / v)

        def log_bff(theta0):
            d = y - np.asarray(theta0, dtype=float)
            return -(d * d) / denom + const

    elif isinstance(prior, PointShiftPrior):
        d = prior.d

        def log_bff(theta0):
            t = np.asarray(theta0, dtype=float)
            return (2.0 * d * (t - y) + d * d) / (2.0 * s2)

    else:
        raise DomainError(f"unsupported prior type {type(prior).__name__}")

    return BffModel(
        log_bff=log_bff,
        lower=(-math.inf,),
        upper=(math.inf,),
        descriptor=f"normal(y={y:g}, sigma={data.sigma:g}) + {prior.describe()}",
        dim=1,
    )


def normal_closed_summaries(data: NormalSummary, prior: NormalPrior, k: float):
    """Closed-form (MeeResult, SupportSet) mirroring the generic engine.

    Global and local priors give MEE = y with a symmetric support
    interval around it (empty above k_ME); the shifted-point prior has no
    MEE and a one-sided support set stretching to +infinity.
    """
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError(f"support level k must be positive and finite, got {k!r}")
    y, s2 = data.y, data.sigma**2
    log_k = math.log(k)

    if isinstance(prior, PointShiftPrior):
        d = prior.d
        mee = MeeResult(
            exists=False,
            theta_hat=None,
            k_me=None,
            log_k_me=None,
            boundary=True,
            diagnostic="log BF01 increases without bound in theta0; "
            "no maximum evidence estimate",
        )
        lo = y + s2 * log_k / d - d / 2.0
        support = SupportSet(
            k=k,
            intervals=(Interval(lo, math.inf, upper_unbounded=True),),
            warnings=(),
        )
        return mee, support

    if isinstance(prior, GlobalNormalPrior):
        m, v = prior.m, prior.v
        log_k_me = 0.5 * math.log1p(v / s2) + (y - m) ** 2 / (2.0 * (s2 + v))
        radicand = math.log1p(v / s2) + (y - m) ** 2 / (s2 + v) - 2.0 * log_k
        half_width = data.sigma * math.sqrt(radicand) if radicand >= 0.0 else None
    elif isinstance(prior, LocalNormalPrior):
        v = prior.v
        log_k_me = 0.5 * math.log1p(v / s2)
        radicand = (1.0 + s2 / v) * (math.log1p(v / s2) - 2.0 * log_k)
        half_width = data.sigma * math.sqrt(radicand) if radicand >= 0.0 else None
    else:
        raise DomainError(f"unsupported prior type {type(prior).__name__}")

    mee = MeeResult(
        exists=True,
        theta_hat=(y,),
        # evidence beyond e^709 is reported as k_ME = inf, as the engine does
        k_me=math.exp(log_k_me) if log_k_me < math.log(sys.float_info.max) else math.inf,
        log_k_me=log_k_me,
        boundary=False,
    )
    if half_width is None:
        support = SupportSet(k=k, intervals=(), warnings=())
    else:
        support = SupportSet(
            k=k, intervals=(Interval(y - half_width, y + half_width),), warnings=()
        )
    return mee, support


def _gaussian_density(mean: float, var: float, descriptor: str) -> DensityFn:
    """N(mean, var) on the whole real line as a DensityFn."""
    if not (var > 0.0 and math.isfinite(var)):
        raise DomainError(f"variance must be positive and finite, got {var!r}")

    def log_density(theta):
        return normal_log_density(theta, mean, var)

    return DensityFn(log_density=log_density, lower=-math.inf, upper=math.inf, descriptor=descriptor)


def global_prior_density(m: float, v: float) -> DensityFn:
    """N(m, v) as a DensityFn, usable as a Savage-Dickey prior."""
    return _gaussian_density(m, v, f"normal(m={m:g}, v={v:g})")


def _posterior_moments(y: float, s2: float, m: float, v: float):
    w = 1.0 / (1.0 / v + 1.0 / s2)
    mu = w * (m / v + y / s2)
    return mu, w


def conjugate_posterior_density(data: NormalSummary, prior: GlobalNormalPrior) -> DensityFn:
    """Posterior of theta after observing y ~ N(theta, sigma^2) with an
    N(m, v) prior; normal with precision-weighted mean."""
    mu, w = _posterior_moments(data.y, data.sigma**2, prior.m, prior.v)
    return _gaussian_density(mu, w, f"posterior-normal(mean={mu:g}, var={w:g})")


@dataclass(frozen=True)
class ReplicationPair:
    """Original and replication estimates with their standard errors."""

    y_o: float
    sigma_o: float
    y_r: float
    sigma_r: float

    def __post_init__(self):
        for name in ("sigma_o", "sigma_r"):
            s = getattr(self, name)
            if not (s > 0.0 and math.isfinite(s)):
                raise DomainError(f"{name} must be positive and finite, got {s!r}")

    def as_global(self):
        """The replication analysis is a global-normal analysis with the
        original study promoted to the prior."""
        return (
            NormalSummary(self.y_r, self.sigma_r),
            GlobalNormalPrior(self.y_o, self.sigma_o**2),
        )


def replication_bff(pair: ReplicationPair) -> BffModel:
    """BFF for the replication estimate under the original-study prior."""
    data, prior = pair.as_global()
    return replace(
        normal_bff(data, prior),
        descriptor=(
            f"replication(y_o={pair.y_o:g}, sigma_o={pair.sigma_o:g}, "
            f"y_r={pair.y_r:g}, sigma_r={pair.sigma_r:g})"
        ),
    )


def replication_summaries(pair: ReplicationPair, k: float):
    """Closed-form (MeeResult, SupportSet) for the replication BFF."""
    data, prior = pair.as_global()
    return normal_closed_summaries(data, prior, k)


def replication_posterior(pair: ReplicationPair) -> DensityFn:
    """Posterior for theta combining both studies; normal."""
    data, prior = pair.as_global()
    return conjugate_posterior_density(data, prior)


def replication_posterior_hpd(pair: ReplicationPair):
    """(mode, 95% HPD Interval) of the replication posterior; the normal
    HPD coincides with the equal-tailed interval."""
    data, prior = pair.as_global()
    mu, w = _posterior_moments(data.y, data.sigma**2, prior.m, prior.v)
    sd = math.sqrt(w)
    return mu, Interval(mu - _Z_95 * sd, mu + _Z_95 * sd)


def log_bff_unitvariance(
    y_bar: float, theta0: float, m: float, v: float, kappa2: float, n: int
) -> float:
    """log BF01 for a sample mean y_bar of n observations with variance
    kappa2 each, under an N(m, v) prior for theta.

    Algebraically identical to the global-normal closed form with
    sigma^2 = kappa2/n; kept in this parameterization because the
    threshold-probability machinery is phrased in it.
    """
    if not (v > 0.0 and kappa2 > 0.0):
        raise DomainError("v and kappa2 must be positive")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    b = theta0 - m
    center = y_bar - b * kappa2 / (n * v) - theta0
    return 0.5 * (
        math.log1p(n * v / kappa2)
        + b * b / v
        - center * center * v * n / (kappa2 * (v + kappa2 / n))
    )


def bff_threshold_prob(
    gamma: float, theta0: float, theta_star: float, m: float, v: float, kappa2: float, n: int
) -> float:
    """Pr(BF01(theta0) <= gamma) when the data mean is truly theta_star.

    The squared standardized mean is noncentral chi-squared with one
    degree of freedom, so the probability is its upper tail beyond the
    cut point X implied by gamma.  X <= 0 means gamma exceeds the largest
    BF01 the model can produce, so the probability is 1.

    The tail is summed directly as the Poisson(lam/2) mixture of central
    chi-squared upper tails, whose terms are all positive, so a tail of
    1e-28 keeps its relative accuracy (1 - CDF would lose it).  The terms
    peak near j = lam/2 + sqrt(lam X)/2; j covers the Poisson bulk below
    and that peak above, each with 9 standard deviations to spare.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise DomainError(f"gamma must be positive and finite, got {gamma!r}")
    if not (v > 0.0 and kappa2 > 0.0):
        raise DomainError("v and kappa2 must be positive")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    b = theta0 - m
    lam = n * (theta_star - b * kappa2 / (n * v) - theta0) ** 2 / kappa2
    x = (math.log1p(n * v / kappa2) + b * b / v - 2.0 * math.log(gamma)) * (
        1.0 + kappa2 / (v * n)
    )
    if x <= 0.0:
        return 1.0
    mu = 0.5 * lam
    peak = mu + math.sqrt(mu * 0.5 * x)
    j = np.arange(max(0, int(mu - 9.0 * math.sqrt(mu) - 10.0)), int(peak + 9.0 * math.sqrt(peak) + 20.0))
    log_w = xlogy(j, mu) - mu - gammaln(j + 1.0)
    p = float(np.sum(np.exp(log_w) * gammaincc(j + 0.5, 0.5 * x)))
    return min(max(p, 0.0), 1.0)


def mil_variance(sample: Sequence[float]) -> float:
    """Variance estimate maximizing the mean-integrated likelihood.

    With a flat prior on the mean integrated out, the maximizer of the
    remaining likelihood in sigma^2 is the usual unbiased sample
    variance, sum((y - ybar)^2) / (n - 1).
    """
    ys = np.asarray(sample, dtype=float)
    if ys.ndim != 1 or len(ys) < 2:
        raise DomainError("sample must be one-dimensional with at least 2 values")
    if not np.all(np.isfinite(ys)):
        raise DomainError("sample values must be finite")
    ss = float(np.sum((ys - ys.mean()) ** 2))
    if ss == 0.0:
        raise DomainError("sample is constant; variance estimate undefined")
    return ss / (len(ys) - 1)


def integrated_log_likelihood(sample: Sequence[float], sigma2: float) -> float:
    """Log likelihood of sigma^2 with the mean integrated out flat:
    -((n-1)/2) ln(2 pi sigma^2) - (1/2) ln n - S/(2 sigma^2)."""
    if not (sigma2 > 0.0 and math.isfinite(sigma2)):
        raise DomainError(f"sigma2 must be positive and finite, got {sigma2!r}")
    ys = np.asarray(sample, dtype=float)
    if ys.ndim != 1 or len(ys) < 2:
        raise DomainError("sample must be one-dimensional with at least 2 values")
    n = len(ys)
    ss = float(np.sum((ys - ys.mean()) ** 2))
    return (
        -0.5 * (n - 1) * math.log(2.0 * math.pi * sigma2)
        - 0.5 * math.log(n)
        - ss / (2.0 * sigma2)
    )
