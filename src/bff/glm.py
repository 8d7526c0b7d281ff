"""Per-coefficient BFFs for logistic regression.

Three routes to the marginal posterior that the density-ratio BFF
needs: a Laplace (Gaussian) approximation around the MAP, kernel density
on random-walk Metropolis samples, and a univariate-normal shortcut that
treats the coefficient's MLE and standard error as a normal estimate.

The likelihood runs on sufficient statistics.  Rows of the design that
share a covariate pattern contribute identical terms, so `GlmDataset`
groups them once, when it is built: the distinct rows U, the trials m
(rows per pattern) and the successes s (outcome sum per pattern) give
the same binomial log likelihood s.(U b) - m.log(1 + exp(U b)), its
gradient U'(s - m mu) and its negative Hessian U' diag(m mu (1 - mu)) U.
The Newton fit and every Metropolis proposal cost one pass over the
patterns (288 for the bundled 2992-row births table) instead of one
over the rows; `design` and `outcome` stay on the dataset for callers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.special import expit

from .engine import BffModel, DensityFn, savage_dickey_bff
from .errors import ContractError, DomainError, NumericalError
from .normal import (
    GlobalNormalPrior,
    NormalSummary,
    _gaussian_density,
    global_prior_density,
    normal_bff,
)

__all__ = [
    "GlmDataset",
    "GlmPrior",
    "MapFit",
    "MAX_SAMPLES",
    "read_glm_csv",
    "fit_map",
    "laplace_marginal_posterior",
    "metropolis_sample",
    "kde_density",
    "glm_coefficient_bff",
]

_SEPARATION_BOUND = 15.0

# Metropolis keeps every draw and its proposal normals in memory
# (2 x n_samples x p doubles: 480 MB at the cap for the 15-column births
# design), so larger requests are refused before anything is allocated.
MAX_SAMPLES = 2_000_000

# Proposals the Metropolis sampler scores together from one point;
# batches of 4 to 8 ran equally fast.
_PREFETCH = 6


@dataclass(frozen=True)
class GlmDataset:
    """Design matrix with a leading all-ones intercept column, binary
    outcome vector, and per-column names.

    `patterns` holds the distinct design rows, `trials` how many rows
    share each one and `successes` their outcome sum: the binomial
    sufficient statistics that every likelihood evaluation uses.
    """

    design: np.ndarray
    outcome: np.ndarray
    names: tuple
    patterns: np.ndarray = field(init=False, repr=False, compare=False)
    trials: np.ndarray = field(init=False, repr=False, compare=False)
    successes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.design, dtype=float)
        y = np.asarray(self.outcome, dtype=float)
        object.__setattr__(self, "design", x)
        object.__setattr__(self, "outcome", y)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise DomainError("design must be 2-D with one outcome per row")
        if len(x) == 0:
            raise DomainError("design must have at least one row")
        if not np.all(np.isfinite(x)):
            raise DomainError("design values must be finite")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DomainError("outcome values must be 0 or 1")
        if not np.all(x[:, 0] == 1.0):
            raise DomainError("first design column must be the all-ones intercept")
        if len(self.names) != x.shape[1]:
            raise DomainError("names must match the design column count")
        # lexsort brings equal rows together; np.unique(axis=0) does the
        # same through a structured view at about 15x the cost
        order = np.lexsort(x.T[::-1])
        xs = x[order]
        first = np.empty(len(xs), dtype=bool)
        first[0] = True
        np.any(xs[1:] != xs[:-1], axis=1, out=first[1:])
        group = np.cumsum(first) - 1
        object.__setattr__(self, "patterns", xs[first])
        object.__setattr__(self, "trials", np.bincount(group).astype(float))
        object.__setattr__(self, "successes", np.bincount(group, weights=y[order]))
        _check_rank(self.patterns, self.trials, len(x))

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]

    def coefficient_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DomainError(
                f"unknown coefficient {name!r}; available: {', '.join(self.names)}"
            ) from None


def _check_rank(patterns: np.ndarray, trials: np.ndarray, n: int):
    """Refuse a constant covariate column, or a design that is rank
    deficient once its covariate columns are standardized (scale-free).

    The SVD runs on the distinct rows scaled by sqrt(trials), standardized
    with the means and standard deviations of all n rows: that matrix has
    the Gram matrix, and so the singular values, of the standardized full
    design.  The tolerance is numpy's matrix_rank default for n x p.
    """
    p = patterns.shape[1]
    mean = trials @ patterns / n
    dev = patterns - mean
    sd = np.sqrt(trials @ (dev * dev) / n)
    # a constant is one distinct value: its weighted mean can round off it
    constant = (sd == 0.0) | np.all(patterns == patterns[0], axis=0)
    constant[0] = False
    if constant.any():
        raise DomainError(f"design column {constant.argmax()} is constant")
    root = np.sqrt(trials)[:, None]
    z = patterns * root
    z[:, 1:] = dev[:, 1:] / sd[1:] * root
    sv = np.linalg.svd(z, compute_uv=False)
    if np.count_nonzero(sv > sv.max() * max(n, p) * np.finfo(float).eps) < p:
        raise DomainError("design matrix is rank deficient after standardization")


def read_glm_csv(path) -> GlmDataset:
    """Read observations with a header row: an `outcome` column of 0/1
    plus numeric covariate columns.  The intercept is added implicitly.

    Lines that hold only commas and whitespace are skipped; the data rows
    are parsed in one `np.loadtxt` pass, whose numbers are correctly
    rounded like Python's `float`.
    """
    with open(path, encoding="utf-8-sig") as fh:
        header_line = fh.readline()
        body = fh.read().split("\n")
    if not header_line:
        raise DomainError(f"{path}: empty file")
    header = [h.strip() for h in next(csv.reader([header_line]))]
    if "outcome" not in header:
        raise DomainError(f"{path}: no 'outcome' column in header {header!r}")
    y_idx = header.index("outcome")
    cov_names = [h for i, h in enumerate(header) if i != y_idx]
    lines = [ln for ln in body if ln.replace(",", "").strip()]
    if not lines:
        raise DomainError(f"{path}: no data rows")
    try:
        values = np.loadtxt(
            lines, dtype=float, delimiter=",", comments=None, quotechar='"', ndmin=2
        )
    except ValueError as exc:
        raise _malformed_row(path, body, len(header), exc) from None
    if values.shape[1] != len(header):
        raise _malformed_row(path, body, len(header), None)
    design = np.hstack([np.ones((len(values), 1)), np.delete(values, y_idx, axis=1)])
    return GlmDataset(design, values[:, y_idx], ("intercept", *cov_names))


def _malformed_row(path, body, width, exc) -> DomainError:
    """Error path of `read_glm_csv`: name the first data line with the
    wrong column count or a cell that is not a number."""
    for lineno, row in enumerate(csv.reader(body), start=2):
        if not any(c.strip() for c in row):
            continue
        if len(row) != width:
            return DomainError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        for cell in row:
            try:
                float(cell)
            except ValueError as bad:
                return DomainError(f"{path}:{lineno}: non-numeric value ({bad})")
    # Python's float() also takes digit underscores and non-ASCII digits,
    # which the array parser refuses; its own message locates the cell
    return DomainError(f"{path}: non-numeric value ({exc})")


@dataclass(frozen=True)
class GlmPrior:
    """Independent N(0, coef_variance) on every non-intercept coefficient;
    the intercept is flat unless intercept_variance is given."""

    coef_variance: float = 0.5
    intercept_variance: Optional[float] = None

    def __post_init__(self):
        if not (self.coef_variance > 0.0 and math.isfinite(self.coef_variance)):
            raise DomainError(
                f"coef_variance must be positive and finite, got {self.coef_variance!r}"
            )
        if self.intercept_variance is not None and not (
            self.intercept_variance > 0.0 and math.isfinite(self.intercept_variance)
        ):
            raise DomainError(
                f"intercept_variance must be positive, got {self.intercept_variance!r}"
            )

    def precisions(self, p: int) -> np.ndarray:
        prec = np.full(p, 1.0 / self.coef_variance)
        prec[0] = 0.0 if self.intercept_variance is None else 1.0 / self.intercept_variance
        return prec


@dataclass(frozen=True)
class MapFit:
    mode: np.ndarray
    neg_hessian: np.ndarray
    converged: bool
    iterations: int


def _log_lik(data: GlmDataset, beta: np.ndarray) -> float:
    """Binomial log likelihood over the covariate patterns."""
    eta = data.patterns @ beta
    return float(data.successes @ eta - data.trials @ np.logaddexp(0.0, eta))


def _softplus(eta: np.ndarray) -> np.ndarray:
    """log(1 + exp(eta)) elementwise without overflow; on a few rows of
    patterns about 3x faster than np.logaddexp(0, eta)."""
    return np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))


def _score_and_information(data: GlmDataset, beta: np.ndarray):
    """Gradient and negative Hessian of the log likelihood at beta."""
    u, m = data.patterns, data.trials
    mu = expit(u @ beta)
    grad = u.T @ (data.successes - m * mu)
    info = u.T @ (u * (m * mu * (1.0 - mu))[:, None])
    return grad, info


def fit_map(data: GlmDataset, prior: Optional[GlmPrior]) -> MapFit:
    """Posterior mode by Newton ascent with step halving.

    prior=None fits the MLE (flat priors on every coefficient).
    Convergence is max-norm gradient < 1e-8 within 100 iterations; a
    coefficient wandering past +-15 on the logit scale marks suspected
    perfect separation in the failure message.
    """
    p = data.p
    prec = prior.precisions(p) if prior is not None else np.zeros(p)
    beta = np.zeros(p)
    obj = _log_lik(data, beta)  # prior term is 0 at beta = 0
    separation = False
    for it in range(1, 101):
        grad, info = _score_and_information(data, beta)
        grad -= prec * beta
        neg_hess = info + np.diag(prec)
        if np.max(np.abs(grad)) < 1e-8:
            # expit saturates in float64 once |eta| > ~37, so a runaway fit
            # reports an exactly-zero gradient; refuse that as convergence
            if np.max(np.abs(beta)) > _SEPARATION_BOUND:
                raise NumericalError(
                    "gradient vanished with a coefficient beyond +-15 on the "
                    "logit scale; perfect separation suspected"
                )
            try:
                np.linalg.cholesky(neg_hess)
            except np.linalg.LinAlgError:
                raise NumericalError(
                    "singular Hessian at the converged mode"
                    + ("; perfect separation suspected" if separation else "")
                ) from None
            return MapFit(mode=beta, neg_hessian=neg_hess, converged=True, iterations=it)
        try:
            step = np.linalg.solve(neg_hess, grad)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "singular Hessian during the Newton fit"
                + ("; perfect separation suspected" if separation else "")
            ) from None
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            cand_obj = _log_lik(data, cand) - 0.5 * float(prec @ cand**2)
            if cand_obj > obj - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        obj = _log_lik(data, beta) - 0.5 * float(prec @ beta**2)
        if np.max(np.abs(beta)) > _SEPARATION_BOUND:
            separation = True
    raise NumericalError(
        "Newton fit did not converge in 100 iterations"
        + ("; perfect separation suspected (a coefficient exceeded +-15)" if separation else "")
    )


def laplace_marginal_posterior(fit: MapFit, j: int, name: str = "") -> DensityFn:
    """Gaussian marginal for coefficient j implied by the MAP fit."""
    if not fit.converged:
        raise ContractError("fit did not converge; no Laplace approximation")
    try:
        cov = np.linalg.inv(fit.neg_hessian)
    except np.linalg.LinAlgError:
        raise NumericalError("could not invert the negative Hessian") from None
    var = float(cov[j, j])
    if var <= 0.0:
        raise NumericalError(f"nonpositive marginal variance for coefficient {j}")
    mean = float(fit.mode[j])
    label = name or f"coef{j}"
    return _gaussian_density(
        mean, var, f"laplace-posterior[{label}](mean={mean:.4g}, sd={math.sqrt(var):.4g})"
    )


def metropolis_sample(
    data: GlmDataset, prior: GlmPrior, n_samples: int = 200_000, seed: int = 1
):
    """Random-walk Metropolis draws from the joint posterior.

    The proposal is N(0, scale^2 * (2.38^2/d) * H^-1) seeded at the MAP;
    the global scale adapts during the first 10% (burn-in, discarded)
    toward a 0.234 acceptance rate and is frozen afterwards.  Returns
    (samples, info) where info carries the post-burn-in acceptance rate
    and any warnings; identical seeds give identical samples.
    n_samples must lie in [100, MAX_SAMPLES].

    The chain is run by prefetching (Brockwell 2006, JCGS 15:246): the
    next `_PREFETCH` proposals are all made from the current point, as
    if every one of them were rejected, and scored in one matrix
    product.  The first that passes its uniform test is exactly where
    the step-by-step chain moves; the ones before it are its rejections.
    Burn-in batches end at every 100th step, where the scale adapts, so
    the draws are those of the step-by-step chain.
    """
    if not 100 <= n_samples <= MAX_SAMPLES:
        raise DomainError(f"n_samples must be between 100 and {MAX_SAMPLES}, got {n_samples}")
    fit = fit_map(data, prior)
    d = data.p
    cov = np.linalg.inv(fit.neg_hessian) * (2.38**2 / d)
    chol_t = np.linalg.cholesky(cov).T
    patterns_t = np.ascontiguousarray(data.patterns.T)
    half_prec = 0.5 * prior.precisions(d)

    def log_post(betas):
        """Log posterior of each row of the (k, d) array betas."""
        eta = betas @ patterns_t
        return eta @ data.successes - _softplus(eta) @ data.trials - (betas * betas) @ half_prec

    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n_samples, d))
    log_unifs = np.log(rng.uniform(size=n_samples))

    burn = n_samples // 10
    scale = 1.0
    beta = fit.mode.copy()
    lp = log_post(beta[None, :])[0]
    out = np.empty((n_samples, d))
    accepted_recent = 0
    accepted_main = 0
    t = 0
    while t < n_samples:
        stop = min(t + _PREFETCH, n_samples)
        if t < burn:
            stop = min(stop, t - t % 100 + 100)
        props = beta + scale * (normals[t:stop] @ chol_t)
        lp_props = log_post(props)
        passed = log_unifs[t:stop] < lp_props - lp
        k = int(passed.argmax())
        if not passed[k]:
            out[t:stop] = beta
            t = stop
        else:
            out[t : t + k] = beta
            beta, lp = props[k], lp_props[k]
            t += k
            out[t] = beta
            if t < burn:
                accepted_recent += 1
            else:
                accepted_main += 1
            t += 1
        if t <= burn and t % 100 == 0:
            rate = accepted_recent / 100.0
            scale *= math.exp(rate - 0.234)
            accepted_recent = 0
    rate = accepted_main / max(n_samples - burn, 1)
    warnings = ()
    if not 0.05 <= rate <= 0.7:
        warnings = (
            f"acceptance-rate: post-burn-in Metropolis acceptance {rate:.3f} "
            f"outside [0.05, 0.7]; treat the sampled posterior with caution",
        )
    info = {"acceptance_rate": rate, "proposal_scale": scale, "warnings": warnings}
    return out[burn:], info


def kde_density(sample, descriptor: str = "kde-posterior") -> DensityFn:
    """Gaussian kernel density with Silverman bandwidth.

    Supported on the sample range only: outside [min, max] the log
    density is NaN, which downstream curve evaluation reports as a
    truncated curve instead of inventing tail values.

    Each point sums only the draws within h * sqrt((d0/h)^2 + 2 (ln n + 37))
    of it, d0 being the distance to its nearest draw.  Every draw left
    out contributes less than e^-37 / n of the nearest one, so the log
    density is that of the full sum to rounding.
    """
    s = np.sort(np.asarray(sample, dtype=float))
    if s.ndim != 1 or len(s) < 2:
        raise DomainError("sample must be one-dimensional with at least 2 values")
    n = len(s)
    sd = float(s.std(ddof=1))
    iqr = float(s[int(0.75 * (n - 1))] - s[int(0.25 * (n - 1))])
    width = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    if width <= 0.0:
        raise DomainError("sample is degenerate; no bandwidth")
    h = 0.9 * width * n ** (-0.2)
    lo, hi = float(s[0]), float(s[-1])
    log_norm = math.log(n * h * math.sqrt(2.0 * math.pi))
    reach = 2.0 * (math.log(n) + 37.0)
    u = s / h  # the draws in bandwidths

    def log_density(b):
        arr = np.atleast_1d(np.asarray(b, dtype=float))
        res = np.full(arr.shape, np.nan)
        inside = (arr >= lo) & (arr <= hi)
        x = arr[inside] / h
        right = np.searchsorted(u, x)
        left = np.maximum(right - 1, 0)
        right = np.minimum(right, n - 1)
        nearest = np.where(x - u[left] <= u[right] - x, left, right)
        d0sq = (u[nearest] - x) ** 2
        half = np.sqrt(d0sq + reach)
        # the nearest draw stays in even where half rounds to its distance
        starts = np.minimum(np.searchsorted(u, x - half, side="left"), nearest)
        ends = np.maximum(np.searchsorted(u, x + half, side="right"), nearest + 1)
        sums = np.empty(len(x))
        for i, (xi, first, stop) in enumerate(zip(x, starts, ends)):
            # terms relative to the nearest draw's, which is exactly 1
            z = u[first:stop] - xi
            z *= z
            z -= d0sq[i]
            z *= -0.5
            sums[i] = np.exp(z, out=z).sum()
        res[inside] = np.log(sums) - 0.5 * d0sq - log_norm
        return float(res[0]) if np.ndim(b) == 0 else res

    return DensityFn(
        log_density=log_density,
        lower=lo,
        upper=hi,
        descriptor=f"{descriptor}(n={n}, h={h:.4g})",
    )


def glm_coefficient_bff(
    data: GlmDataset,
    prior: GlmPrior,
    j: int,
    method: str = "laplace",
    *,
    n_samples: int = 200_000,
    seed: int = 1,
    samples: Optional[np.ndarray] = None,
    fit: Optional[MapFit] = None,
) -> BffModel:
    """BFF for H0: beta_j = b over the alternative's N(0, v) prior.

    method 'laplace' and 'mcmc' are density ratios of an approximate
    marginal posterior to the prior; 'univariate-normal' reruns the
    closed-form normal analysis on (MLE_j, SE_j).  The intercept carries
    a flat prior, so testing it is refused.  Pass precomputed `samples`
    (mcmc) or `fit` to reuse expensive pieces: `fit_map(data, prior)` for
    laplace, the MLE `fit_map(data, None)` for univariate-normal.
    """
    if not 0 <= j < data.p:
        raise DomainError(f"coefficient index {j} out of range")
    if j == 0:
        raise ContractError(
            "the intercept has a flat prior; density-ratio BFFs need a proper prior"
        )
    name = data.names[j]
    prior_j = global_prior_density(0.0, prior.coef_variance)

    if method == "laplace":
        if fit is None:
            fit = fit_map(data, prior)
        post = laplace_marginal_posterior(fit, j, name)
        model = savage_dickey_bff(post, prior_j)
    elif method == "mcmc":
        if samples is None:
            samples, _ = metropolis_sample(data, prior, n_samples=n_samples, seed=seed)
        post = kde_density(samples[:, j], f"kde-posterior[{name}]")
        model = savage_dickey_bff(post, prior_j)
    elif method == "univariate-normal":
        if fit is None:
            fit = fit_map(data, None)
        cov = np.linalg.inv(fit.neg_hessian)
        se = math.sqrt(float(cov[j, j]))
        model = normal_bff(
            NormalSummary(float(fit.mode[j]), se),
            GlobalNormalPrior(0.0, prior.coef_variance),
        )
    else:
        raise DomainError(
            f"unknown method {method!r}; expected laplace, mcmc or univariate-normal"
        )
    return replace(model, descriptor=f"logistic[{name}] via {method}")
