"""Plain Monte Carlo H1 marginal likelihood of the meta-analysis model,
an independent check of `bff.meta.meta_log_denominator` for the tests."""

import math

import numpy as np
from scipy.special import betainc, betaincinv

from bff.binomial import TruncBetaPrior
from bff.errors import DomainError
from bff.meta import MetaDataset, MetaPriors, meta_loglik


def meta_log_denominator_mc(
    data: MetaDataset,
    priors: MetaPriors,
    n_draws: int = 1_000_000,
    seed: int = 1,
    batch: int = 100_000,
):
    """Plain Monte Carlo estimate of the H1 log marginal likelihood.

    Draws (theta, tau) from the priors and averages the likelihood.
    Returns (log_estimate, se_log) where se_log is the delta-method
    standard error of the log estimate.  Prior sampling is deliberately
    naive.
    """
    if n_draws < 2:
        raise DomainError("n_draws must be at least 2")
    rng = np.random.default_rng(seed)
    p = priors.theta_prior
    lls = np.empty(n_draws)
    done = 0
    while done < n_draws:
        m = min(batch, n_draws - done)
        if isinstance(p, TruncBetaPrior):
            u = rng.uniform(betainc(p.a, p.b, p.l), betainc(p.a, p.b, p.u), size=m)
            thetas = betaincinv(p.a, p.b, u)
        else:
            thetas = rng.normal(p.m, math.sqrt(p.v), size=m)
        taus = np.abs(rng.normal(0.0, priors.tau_scale, size=m))
        lls[done : done + m] = meta_loglik(data, thetas, taus)
        done += m
    shift = float(np.max(lls))
    w = np.exp(lls - shift)
    mean_w = float(np.mean(w))
    se_log = float(np.std(w, ddof=1) / (math.sqrt(n_draws) * mean_w))
    return shift + math.log(mean_w), se_log
