"""Random-effects meta-analysis BFFs.

Study estimates y_i are modeled as N(theta, sigma_i^2 + tau^2) given the
common effect theta and the heterogeneity standard deviation tau.  The
joint BFF tests H0: theta = theta0, tau = tau0; each marginal BFF tests
one parameter with the other integrated out over its prior.  All three
share a single H1 marginal likelihood, computed once and passed in.

For a fixed tau the log likelihood is a quadratic in theta, so the
theta integrals run on per-tau sufficient statistics (c, W, mu) in
O(1) per node instead of summing the K studies.  Under a global-normal
prior the theta integral is closed form; under a truncated-beta prior
it is one batched `log_integrate_many` call, one row per tau.  The H1
denominator is then one tau quadrature, and the tau-marginal BFF is its
integrand at tau0.  The theta-marginal BFF integrates tau for a whole
grid of theta0 in one batched call, and the joint BFF reads
`meta_loglik` directly, which works in fixed chunks of points so its
temporaries stay a few MB.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .binomial import TruncBetaPrior
from .engine import BffModel
from .errors import DomainError
from .normal import GlobalNormalPrior
from .quadrature import log_integrate, log_integrate_many
from .specfun import half_normal_log_density

__all__ = [
    "MetaDataset",
    "MetaPriors",
    "read_meta_csv",
    "meta_loglik",
    "meta_log_denominator",
    "meta_joint_bff",
    "meta_marginal_theta_bff",
    "meta_marginal_tau_bff",
]


@dataclass(frozen=True)
class MetaDataset:
    ids: tuple
    estimates: np.ndarray
    std_errors: np.ndarray

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        se = np.asarray(self.std_errors, dtype=float)
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "std_errors", se)
        if est.ndim != 1 or se.shape != est.shape or len(self.ids) != len(est):
            raise DomainError("ids, estimates and std_errors must have equal lengths")
        if len(est) < 2:
            raise DomainError("need at least 2 studies")
        if not np.all(np.isfinite(est)):
            raise DomainError("estimates must be finite")
        if not np.all(np.isfinite(se) & (se > 0.0)):
            raise DomainError("standard errors must be positive and finite")

    def __len__(self) -> int:
        return len(self.estimates)


def read_meta_csv(path) -> MetaDataset:
    """Read a study table with header `id,estimate,se` (UTF-8, comma
    separated, dot decimal)."""
    ids, est, se = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["id", "estimate", "se"]:
            raise DomainError(
                f"{path}: expected header 'id,estimate,se', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise DomainError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            ids.append(row[0].strip())
            try:
                est.append(float(row[1]))
                se.append(float(row[2]))
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: non-numeric value ({exc})") from None
    return MetaDataset(tuple(ids), np.array(est), np.array(se))


@dataclass(frozen=True)
class MetaPriors:
    """Independent priors: theta_prior on the common effect (truncated
    beta or global normal) and a half-normal(tau_scale) on tau."""

    theta_prior: Union[TruncBetaPrior, GlobalNormalPrior]
    tau_scale: float = 0.02

    def __post_init__(self):
        if not (self.tau_scale > 0.0 and math.isfinite(self.tau_scale)):
            raise DomainError(f"tau_scale must be positive and finite, got {self.tau_scale!r}")
        if not isinstance(self.theta_prior, (TruncBetaPrior, GlobalNormalPrior)):
            raise DomainError(
                f"unsupported theta prior type {type(self.theta_prior).__name__}"
            )

    @property
    def tau_upper(self) -> float:
        # half-normal mass beyond 10 scales is ~1e-23
        return 10.0 * self.tau_scale

    def describe(self) -> str:
        return f"{self.theta_prior.describe()} x half-normal(s={self.tau_scale:g})"


# points per meta_loglik pass: its 0.8 MB temporaries (48 studies) stay in cache
_CHUNK = 2048


def meta_loglik(data: MetaDataset, theta, tau):
    """Joint log likelihood Sum_i ln N(y_i; theta, sigma_i^2 + tau^2).

    theta and tau broadcast against each other: scalars give a scalar,
    arrays give the elementwise log likelihood in their broadcast shape.
    """
    th, ta = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(tau, dtype=float))
    if np.any(ta < 0.0):
        raise DomainError("tau must be nonnegative")
    th_flat, ta_flat, ll = th.ravel(), ta.ravel(), np.empty(th.size)
    y, se2 = data.estimates[:, None], data.std_errors[:, None] ** 2
    for i in range(0, th.size, _CHUNK):
        var = se2 + ta_flat[None, i : i + _CHUNK] ** 2
        dev2 = (y - th_flat[None, i : i + _CHUNK]) ** 2 / var
        ll[i : i + _CHUNK] = np.sum(dev2 + np.log(var), axis=0)
    ll = -0.5 * (ll + len(data) * math.log(2.0 * math.pi))
    return float(ll[0]) if th.ndim == 0 else ll.reshape(th.shape)


def _tau_stats(data: MetaDataset, taus):
    """Per-tau sufficient statistics (c, W, mu) of the likelihood in theta.

    For a fixed tau the log likelihood is the quadratic
    c - W (theta - mu)^2 / 2, with w_i = 1/(sigma_i^2 + tau^2), W = Sum w_i,
    mu = Sum w_i y_i / W and c = -(Sum w_i (y_i - mu)^2 - Sum ln w_i
    + K ln 2 pi) / 2.  The squares are taken around mu, not expanded, so
    c keeps its digits when the studies agree closely.  taus is 1-D;
    each row sums its K studies alone, so a tau gives the same bits in
    any batch.
    """
    ta = np.asarray(taus, dtype=float)
    c, big_w, mu = (np.empty(ta.size) for _ in range(3))
    y, se2 = data.estimates, data.std_errors**2
    for i in range(0, ta.size, _CHUNK):
        w = 1.0 / (se2 + ta[i : i + _CHUNK, None] ** 2)
        big_w[i : i + _CHUNK] = np.sum(w, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            mu[i : i + _CHUNK] = np.sum(w * y, axis=1) / big_w[i : i + _CHUNK]
            dev2 = w * (y - mu[i : i + _CHUNK, None]) ** 2
            c[i : i + _CHUNK] = np.sum(dev2 - np.log(w), axis=1)
    # a tau whose square overflows leaves W = 0: zero likelihood, c = -inf
    live = big_w > 0.0
    c = np.where(live, -0.5 * (c + len(data) * math.log(2.0 * math.pi)), -math.inf)
    return c, big_w, np.where(live, mu, 0.0)


def _log_theta_integrals(data: MetaDataset, priors: MetaPriors, taus, tol_rel: float = 1e-9):
    """ln Int L(theta, tau) p(theta) dtheta for every tau in the 1-D `taus`.

    A global-normal prior integrates in closed form over the real line:
    c + ln(2 pi / W)/2 + ln N(mu; m, v + 1/W).  A truncated-beta prior
    takes one batched quadrature over [l, u], one row per tau, whose
    integrand is the O(1) quadratic of `_tau_stats`.
    """
    c, big_w, mu = _tau_stats(data, taus)
    p = priors.theta_prior
    if isinstance(p, GlobalNormalPrior):
        # the closed form above, with 1/W factored out of v + 1/W
        wv = big_w * p.v
        return c - 0.5 * np.log1p(wv) - 0.5 * big_w * (mu - p.m) ** 2 / (1.0 + wv)

    def log_f(th, idx):
        return c[idx, None] - 0.5 * big_w[idx, None] * (th - mu[idx, None]) ** 2 + p.log_density(th)

    vals, _ = log_integrate_many(log_f, p.l, p.u, c.size, tol_rel=tol_rel, scan_points=129)
    return vals


def meta_log_denominator(
    data: MetaDataset, priors: MetaPriors, *, tol_rel: float = 1e-8
) -> float:
    """H1 log marginal likelihood, ln Int Int exp(loglik) p(theta) p(tau).

    Adaptive quadrature in log space over tau in [0, 10 tau_scale] of the
    theta integral at each node (closed form, or one batched inner
    quadrature per node set).  The log-space carrier keeps 1e5-scale log
    likelihoods representable.
    """

    def outer(taus):
        ts = np.asarray(taus, dtype=float)
        return (_log_theta_integrals(data, priors, ts, tol_rel)
                + half_normal_log_density(ts, priors.tau_scale))

    return log_integrate(outer, 0.0, priors.tau_upper, tol_rel=tol_rel, scan_points=65)


def _log_numerators(points, lo: float, hi: float, log_f):
    """ln Int_lo^hi exp(log_f(x, p)) dx for every p in `points`, one
    quadrature row per point; log_f(x, p) gets node lines x (shape
    (P, m)) and their points p (shape (P, 1))."""
    arr = np.asarray(points, dtype=float)
    flat = arr.reshape(-1)
    vals, _ = log_integrate_many(lambda x, idx: log_f(x, flat[idx, None]), lo, hi, flat.size,
                                 scan_points=129)
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def meta_joint_bff(
    data: MetaDataset, priors: MetaPriors, log_denominator: Optional[float] = None
) -> BffModel:
    """2-D BFF testing H0: theta = theta0, tau = tau0.

    The model takes one (theta0, tau0) point or a (2, N) array of them;
    a whole grid is one chunked `meta_loglik` pass.
    Pass a precomputed log_denominator to share it across the joint and
    marginal models; it is computed (once) otherwise.
    """
    log_denom = meta_log_denominator(data, priors) if log_denominator is None else log_denominator

    def log_bff(points):
        # one (theta0, tau0) point, or a (2, N) array of them
        if np.any(np.asarray(points[1]) < 0.0):
            raise DomainError(f"tau0 must be nonnegative, got {float(np.min(points[1]))!r}")
        return meta_loglik(data, points[0], points[1]) - log_denom

    return BffModel(
        log_bff=log_bff,
        lower=(-math.inf, 0.0),
        upper=(math.inf, math.inf),
        descriptor=f"meta-joint[{len(data)} studies] + {priors.describe()}",
        dim=2,
        lower_closed=(False, True),
        upper_closed=(False, False),
    )


def meta_marginal_theta_bff(
    data: MetaDataset, priors: MetaPriors, log_denominator: Optional[float] = None
) -> BffModel:
    """1-D BFF for theta with tau integrated over its half-normal prior."""
    log_denom = meta_log_denominator(data, priors) if log_denominator is None else log_denominator
    s = priors.tau_scale

    def log_f(taus, theta0):
        return meta_loglik(data, theta0, taus) + half_normal_log_density(taus, s)

    def log_bff(theta0):
        return _log_numerators(theta0, 0.0, priors.tau_upper, log_f) - log_denom

    return BffModel(
        log_bff=log_bff,
        lower=(-math.inf,),
        upper=(math.inf,),
        descriptor=f"meta-theta[{len(data)} studies] + {priors.describe()}",
        dim=1,
    )


def meta_marginal_tau_bff(
    data: MetaDataset, priors: MetaPriors, log_denominator: Optional[float] = None
) -> BffModel:
    """1-D BFF for tau with theta integrated over its prior."""
    log_denom = meta_log_denominator(data, priors) if log_denominator is None else log_denominator

    def log_bff(tau0):
        arr = np.asarray(tau0, dtype=float)
        if np.any(arr < 0.0):
            raise DomainError(f"tau0 must be nonnegative, got {tau0!r}")
        vals = _log_theta_integrals(data, priors, arr.reshape(-1)) - log_denom
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)

    return BffModel(
        log_bff=log_bff,
        lower=(0.0,),
        upper=(math.inf,),
        descriptor=f"meta-tau[{len(data)} studies] + {priors.describe()}",
        dim=1,
        lower_closed=(True,),
        upper_closed=(False,),
    )
