"""Special functions carried in log space, where the standard library
stops.

Everything downstream (beta-binomial evidence curves, normal and
half-normal priors) reduces to the handful of functions here.  Log-gamma
is `math.lgamma`; what is kept is what neither it nor scipy offers: a
log-space incomplete beta and truncated beta mass that stay usable for
shapes in the 1e5 range and masses deep in a tail.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "log_beta",
    "log_reg_inc_beta",
    "log_trunc_beta_mass",
    "normal_log_density",
    "half_normal_log_density",
]


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for finite a, b > 0.

    Shapes whose log-gamma overflows a double (from about 2.5e305) are
    refused like non-finite ones, instead of giving inf - inf = NaN.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"log_beta requires finite a, b > 0, got a={a!r}, b={b!r}")
    try:
        out = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    except OverflowError:
        out = math.nan
    if not math.isfinite(out):
        raise DomainError(f"log B(a, b) overflows a double for a={a!r}, b={b!r}")
    return out


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    tiny = 1e-300
    eps = 1e-15
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    # iteration count grows like sqrt(min(a, b)) near the switch point
    for m in range(1, 200_000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge for "
        f"x={x!r}, a={a!r}, b={b!r}"
    )


def _log1mexp(t: float) -> float:
    """log(1 - exp(t)) for t < 0, stable at both ends."""
    if t >= 0.0:
        raise DomainError(f"_log1mexp requires t < 0, got {t!r}")
    if t > -math.log(2.0):
        return math.log(-math.expm1(t))
    return math.log1p(-math.exp(t))


def log_reg_inc_beta(x: float, a: float, b: float) -> float:
    """log I_x(a, b), accurate even where I_x underflows.

    Uses the continued fraction on whichever of I_x(a, b) and
    I_{1-x}(b, a) converges fast (symmetry switch at the distribution
    mean), so the fraction is always evaluated in its stable region.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"incomplete beta requires a, b > 0, got a={a!r}, b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"incomplete beta requires x in [0, 1], got {x!r}")
    if x == 0.0:
        return -math.inf
    if x == 1.0:
        return 0.0
    if x > (a + 1.0) / (a + b + 2.0):
        comp = log_reg_inc_beta(1.0 - x, b, a)
        if comp == -math.inf:
            return 0.0
        return _log1mexp(comp)
    front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    return front + math.log(_beta_cf(x, a, b) / a)


def log_trunc_beta_mass(a: float, b: float, lower: float, upper: float) -> float:
    """log of the Beta(a, b) probability mass on [lower, upper].

    The direct route is a log-space difference of regularized incomplete
    betas.  When the two endpoints cancel catastrophically (or the mass is
    too deep in a tail for the difference to carry information) the value
    is recomputed by adaptive log-space quadrature of the unnormalized
    density, which only needs the density's log.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta mass requires a, b > 0, got a={a!r}, b={b!r}")
    if not (0.0 <= lower < upper <= 1.0):
        raise DomainError(
            f"beta mass requires 0 <= lower < upper <= 1, got [{lower!r}, {upper!r}]"
        )
    if lower == 0.0 and upper == 1.0:
        return 0.0
    log_iu = log_reg_inc_beta(upper, a, b)
    log_il = log_reg_inc_beta(lower, a, b)
    if log_il == -math.inf:
        direct = log_iu
    elif log_iu - log_il < 1e-8:
        direct = -math.inf  # catastrophic cancellation, force the fallback
    else:
        direct = log_iu + _log1mexp(log_il - log_iu)
    if math.isfinite(direct) and direct > math.log(1e-290):
        return direct
    return _trunc_beta_mass_by_quadrature(a, b, lower, upper)


def _trunc_beta_mass_by_quadrature(
    a: float, b: float, lower: float, upper: float
) -> float:
    from .quadrature import log_integrate

    def log_density(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            out = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
        return out

    return log_integrate(log_density, lower, upper) - log_beta(a, b)


def normal_log_density(x, mean, var):
    """log N(x | mean, var); accepts scalars or numpy arrays for x."""
    if not var > 0.0:
        raise DomainError(f"normal density requires var > 0, got {var!r}")
    x = np.asarray(x, dtype=float)
    out = -0.5 * np.log(2.0 * np.pi * var) - (x - mean) ** 2 / (2.0 * var)
    return float(out) if out.ndim == 0 else out


def half_normal_log_density(x, scale):
    """log density of |Z|, Z ~ N(0, scale^2); -inf below zero."""
    if not scale > 0.0:
        raise DomainError(f"half-normal density requires scale > 0, got {scale!r}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("half-normal density is defined for tau >= 0 only")
    out = 0.5 * np.log(2.0 / np.pi) - np.log(scale) - x**2 / (2.0 * scale**2)
    return float(out) if out.ndim == 0 else out
