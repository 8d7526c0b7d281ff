"""Acceptance checks: headline numbers and always-runnable properties.

Each test carries an acceptance marker; conftest prints one PASS/FAIL
line per criterion at the end of the run.  Tolerances are pinned here
and nowhere else.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate, optimize, stats
from scipy.special import betainc, betaincinv

from bff import (
    GridSpec,
    find_mee,
    laplace_log_bff,
    combine_sequential,
    savage_dickey_bff,
    support_set,
)
from bff.binomial import (
    BinomialData,
    TruncBetaPrior,
    binomial_bff,
    binomial_marginal_loglik_quadrature,
)
from bff.datasets import load_coinflip_meta, load_neonatal_births
from bff.glm import GlmPrior, glm_coefficient_bff, fit_map
from bff.meta import MetaDataset, MetaPriors, meta_log_denominator
from bff.normal import (
    GlobalNormalPrior,
    LocalNormalPrior,
    NormalSummary,
    PointShiftPrior,
    ReplicationPair,
    bff_threshold_prob,
    conjugate_posterior_density,
    global_prior_density,
    log_bff_unitvariance,
    normal_bff,
    normal_closed_summaries,
    replication_bff,
    replication_posterior,
    replication_posterior_hpd,
)
from meta_mc import meta_log_denominator_mc

RECOVERY = NormalSummary(-0.14, 0.064)


def _oracle_log_bf01(theta0, prior_mean, prior_var):
    """log BF01(theta0) for the recovery estimate, without bff.normal.

    The H1 marginal integrates N(y; theta, sigma^2) N(theta; prior_mean,
    prior_var) by quadrature instead of using the convolution closed form.
    """
    y, sigma = RECOVERY.y, RECOVERY.sigma
    prior = NormalDist(prior_mean, math.sqrt(prior_var))
    marginal, _ = integrate.quad(
        lambda t: NormalDist(t, sigma).pdf(y) * prior.pdf(t),
        -math.inf,
        math.inf,
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    return stats.norm.logpdf(y, theta0, sigma) - math.log(marginal)


def _oracle_k1_interval(log_bf01):
    """Ends of {theta0 : BF01 >= 1} by brentq either side of y, where BF01 peaks."""
    y, width = RECOVERY.y, 20 * RECOVERY.sigma
    lower = optimize.brentq(log_bf01, y - width, y, xtol=1e-14, rtol=1e-15)
    upper = optimize.brentq(log_bf01, y, y + width, xtol=1e-14, rtol=1e-15)
    return lower, upper


@pytest.mark.acceptance(1, "recovery-position normal, global prior: MEE and k=1 SI")
def test_recovery_global_prior():
    prior = GlobalNormalPrior(-0.56, 0.12**2)
    model = normal_bff(RECOVERY, prior)
    grid = GridSpec.one_dim(-0.8, 0.5, points=1025)
    mee = find_mee(model, grid)
    si = support_set(model, 1.0, grid)
    assert mee.exists
    assert mee.theta_hat[0] == pytest.approx(-0.14, abs=5e-7)
    oracle = lambda t: _oracle_log_bf01(t, prior.m, prior.v)
    assert mee.log_k_me == pytest.approx(oracle(RECOVERY.y), abs=1e-10)
    (iv,) = si.intervals
    # BF01(0.08) = 0.68 < 1: 0.08 lies outside the k=1 interval, which
    # ends at 0.0727 and is symmetric about the MEE
    lower, upper = _oracle_k1_interval(oracle)
    assert iv.lower == pytest.approx(lower, abs=1e-8)
    assert iv.upper == pytest.approx(upper, abs=1e-8)
    assert f"[{iv.lower:.2f}, {iv.upper:.2f}]" == "[-0.35, 0.07]"


@pytest.mark.acceptance(2, "recovery-position normal, local prior: k_ME and k=1 SI")
def test_recovery_local_prior():
    prior = LocalNormalPrior(0.12**2)
    mee, si = normal_closed_summaries(RECOVERY, prior, 1.0)
    assert mee.theta_hat == (RECOVERY.y,)
    assert mee.k_me == pytest.approx(math.sqrt(1.0 + 0.12**2 / 0.064**2), rel=1e-12)
    (iv,) = si.intervals
    # BF01(-0.22) = BF01(-0.06) = 1.157 > 1: both lie inside the k=1
    # interval, not on its ends
    oracle = lambda t: _oracle_log_bf01(t, t, prior.v)
    lower, upper = _oracle_k1_interval(oracle)
    assert iv.lower == pytest.approx(lower, abs=1e-10)
    assert iv.upper == pytest.approx(upper, abs=1e-10)
    assert f"[{iv.lower:.2f}, {iv.upper:.2f}]" == "[-0.23, -0.05]"


@pytest.mark.acceptance(3, "coin-flip binomial: BF01(0.5), MEE, k_ME, k=1 SI")
def test_coin_flip_binomial():
    model = binomial_bff(BinomialData(178078, 350757), TruncBetaPrior(5100.0, 4900.0, 0.5, 1.0))
    target = -math.log(1.71e17)
    assert abs(model.log_bff(0.5) - target) <= 0.02 * abs(target)
    grid = GridSpec.one_dim(0.5, 0.515, points=601)
    mee = find_mee(model, grid)
    assert mee.theta_hat[0] == pytest.approx(0.508, abs=0.0005)
    assert mee.k_me == pytest.approx(6.51, abs=0.05)
    (iv,) = support_set(model, 1.0, grid).intervals
    assert iv.lower == pytest.approx(0.506, abs=0.0005)
    assert iv.upper == pytest.approx(0.509, abs=0.0005)


@pytest.mark.acceptance(4, "coin-flip meta-analysis: joint and marginal summaries")
def test_meta_analysis_summaries(coinflip_meta_results):
    r = coinflip_meta_results
    theta, tau = r["joint_mee"].theta_hat
    assert theta == pytest.approx(0.51, abs=0.002)
    assert tau == pytest.approx(0.016, abs=0.001)
    assert r["joint_mee"].k_me == pytest.approx(14.0, rel=0.20)
    assert r["theta_mee"].k_me == pytest.approx(2.2, rel=0.20)
    assert r["tau_mee"].k_me == pytest.approx(6.4, rel=0.20)
    assert r["log_bf_null"] == pytest.approx(-1.81e5, rel=0.01)


@pytest.mark.acceptance(5, "replication studies: lab-3 evidence level and posterior, lab-1 BF")
def test_replication_studies():
    lab3 = ReplicationPair(0.205, 0.051, 0.435, 0.044)
    data3, gprior3 = lab3.as_global()
    mee, _ = normal_closed_summaries(data3, gprior3, 1.0)
    assert mee.k_me == pytest.approx(521.0, rel=0.01)
    mode, hpd = replication_posterior_hpd(lab3)
    assert mode == pytest.approx(0.34, abs=0.005)
    assert hpd.lower == pytest.approx(0.27, abs=0.005)
    assert hpd.upper == pytest.approx(0.40, abs=0.005)
    lab1 = ReplicationPair(0.205, 0.051, 0.09, 0.052)
    bf_null = math.exp(replication_bff(lab1).log_bff(0.0))
    assert 1.0 / 1.15 <= bf_null <= 1.15


@pytest.mark.acceptance(6, "perinatal logistic regression: early-age and hydramnios ORs")
def test_logistic_regression_odds_ratios():
    data = load_neonatal_births()
    prior = GlmPrior(0.5)

    j = data.coefficient_index("early_age")
    model = glm_coefficient_bff(data, prior, j, method="laplace")
    fit = fit_map(data, prior)
    sd = math.sqrt(np.linalg.inv(fit.neg_hessian)[j, j])
    grid = GridSpec.one_dim(fit.mode[j] - 8 * sd, fit.mode[j] + 8 * sd, points=601)
    mee = find_mee(model, grid)
    assert math.exp(mee.theta_hat[0]) == pytest.approx(1.4, rel=0.15)
    assert mee.k_me == pytest.approx(1.5, rel=0.15)
    (iv,) = support_set(model, 1.0, grid).intervals
    assert math.exp(iv.lower) == pytest.approx(1.0 / 1.4, rel=0.15)
    assert math.exp(iv.upper) == pytest.approx(2.5, rel=0.15)

    j = data.coefficient_index("hydramnios")
    model = glm_coefficient_bff(data, prior, j, method="univariate-normal")
    mle = fit_map(data, None)
    sd = math.sqrt(np.linalg.inv(mle.neg_hessian)[j, j])
    grid = GridSpec.one_dim(mle.mode[j] - 8 * sd, mle.mode[j] + 8 * sd, points=601)
    mee = find_mee(model, grid)
    # windows on the log-OR scale
    assert mee.theta_hat[0] == pytest.approx(math.log(60.3), rel=0.15)
    (iv,) = support_set(model, 1.0, grid).intervals
    assert iv.lower == pytest.approx(math.log(1.7), rel=0.15)
    assert iv.upper == pytest.approx(math.log(2188.0), rel=0.15)


@pytest.mark.acceptance(7, "closed-form support intervals match the root finder, 100 configs")
def test_closed_forms_match_root_finder():
    rng = np.random.default_rng(2024)
    for i in range(100):
        sigma = math.exp(rng.uniform(-0.7, 0.7))
        y = float(rng.uniform(-2.0, 2.0))
        data = NormalSummary(y, sigma)
        kind = i % 3
        if kind == 2:
            prior = PointShiftPrior(math.exp(rng.uniform(-1.5, 0.5)))
            k = math.exp(rng.uniform(-1.0, 1.0))
            _, closed = normal_closed_summaries(data, prior, k)
            lo = closed.intervals[0].lower
            grid = GridSpec.one_dim(lo - 6.0 * sigma, lo + 6.0 * sigma + 1.0, points=801)
            ss = support_set(normal_bff(data, prior), k, grid)
            assert ss.intervals[0].lower == pytest.approx(lo, abs=1e-8)
            continue
        if kind == 0:
            prior = GlobalNormalPrior(float(rng.uniform(-2.0, 2.0)), math.exp(rng.uniform(-2.0, 1.0)))
        else:
            prior = LocalNormalPrior(math.exp(rng.uniform(-2.0, 1.0)))
        mee, closed = normal_closed_summaries(data, prior, 1.0)
        k = math.exp(float(rng.uniform(0.15, 0.85)) * mee.log_k_me)
        _, closed = normal_closed_summaries(data, prior, k)
        iv = closed.intervals[0]
        pad = max(2.0 * sigma, 0.3 * (iv.upper - iv.lower))
        grid = GridSpec.one_dim(iv.lower - pad, iv.upper + pad, points=801)
        ss = support_set(normal_bff(data, prior), k, grid)
        assert ss.intervals[0].lower == pytest.approx(iv.lower, abs=1e-8)
        assert ss.intervals[0].upper == pytest.approx(iv.upper, abs=1e-8)


@pytest.mark.acceptance(8, "sequential batch coherence to 1e-10, random 3-way splits")
def test_sequential_coherence():
    rng = np.random.default_rng(88)
    for _ in range(25):
        kappa2 = math.exp(rng.uniform(-1.0, 1.0))
        v = math.exp(rng.uniform(-1.5, 0.5))
        m = float(rng.uniform(-1.0, 1.0))
        theta0 = float(rng.uniform(-1.0, 1.0))
        ns = rng.integers(5, 60, size=3)
        ybars = rng.normal(0.2, 0.5, size=3)
        n_tot = int(ns.sum())
        ybar_all = float(np.sum(ns * ybars) / n_tot)
        full = log_bff_unitvariance(ybar_all, theta0, m, v, kappa2, n_tot)

        cur_m, cur_v, acc = m, v, None
        for ni, yi in zip(ns, ybars):
            part = log_bff_unitvariance(float(yi), theta0, cur_m, cur_v, kappa2, int(ni))
            acc = part if acc is None else combine_sequential(acc, part)
            w = 1.0 / (1.0 / cur_v + ni / kappa2)
            cur_m = w * (cur_m / cur_v + ni * yi / kappa2)
            cur_v = w
        assert acc == pytest.approx(full, abs=1e-10)


@pytest.mark.acceptance(9, "Savage-Dickey density ratio equals the BFF on a 512-point grid")
def test_savage_dickey_identity():
    data = NormalSummary(0.37, 0.21)
    prior = GlobalNormalPrior(-0.1, 0.9)
    model = normal_bff(data, prior)
    ratio = savage_dickey_bff(
        conjugate_posterior_density(data, prior), global_prior_density(-0.1, 0.9)
    )
    for x in np.linspace(-3.0, 3.0, 512):
        assert model.log_bff(float(x)) == pytest.approx(ratio.log_bff(float(x)), abs=1e-8)

    pair = ReplicationPair(0.205, 0.051, 0.435, 0.044)
    _, gprior = pair.as_global()
    model = replication_bff(pair)
    ratio = savage_dickey_bff(
        replication_posterior(pair), global_prior_density(gprior.m, gprior.v)
    )
    for x in np.linspace(-0.2, 0.8, 512):
        assert model.log_bff(float(x)) == pytest.approx(ratio.log_bff(float(x)), abs=1e-8)


@pytest.mark.acceptance(10, "universal bound holds empirically at k in {0.01, 0.05, 0.1}")
def test_universal_bound_monte_carlo():
    n, kappa2, m, v, theta0 = 40, 1.3, 0.4, 1.1, 0.15
    rng = np.random.default_rng(31)
    draws = rng.normal(theta0, math.sqrt(kappa2 / n), size=100_000)
    log_bfs = np.array(
        [log_bff_unitvariance(float(y), theta0, m, v, kappa2, n) for y in draws]
    )
    for k in (0.01, 0.05, 0.1):
        frac = float(np.mean(log_bfs <= math.log(k)))
        se = math.sqrt(k * (1.0 - k) / 100_000)
        assert frac <= k + 3.0 * se


@pytest.mark.acceptance(11, "quadrature marginal likelihoods agree with Monte Carlo")
def test_quadrature_vs_monte_carlo(coinflip_meta_results):
    # binomial: 1e6 prior draws against the log-space quadrature
    y, n = 178078, 350757
    prior = TruncBetaPrior(5100.0, 4900.0, 0.5, 1.0)
    quad = binomial_marginal_loglik_quadrature(BinomialData(y, n), prior)
    rng = np.random.default_rng(11)
    us = rng.uniform(betainc(prior.a, prior.b, prior.l), betainc(prior.a, prior.b, prior.u), 1_000_000)
    th = betaincinv(prior.a, prior.b, us)
    log_kernel = y * np.log(th) + (n - y) * np.log1p(-th)
    mx = float(log_kernel.max())
    w = np.exp(log_kernel - mx)
    est = mx + math.log(float(w.mean()))
    se_log = float(w.std(ddof=1)) / (float(w.mean()) * math.sqrt(len(w)))
    assert abs(quad - est) <= 3.0 * se_log

    # meta: the bundled table plus five synthetic configurations
    cases = [(coinflip_meta_results["data"], coinflip_meta_results["priors"],
              coinflip_meta_results["denominator"])]
    rng = np.random.default_rng(7)
    for _ in range(5):
        n_st = int(rng.integers(3, 9))
        ests = 0.3 + 0.05 * rng.standard_normal(n_st)
        ses = rng.uniform(0.005, 0.05, size=n_st)
        data = MetaDataset(tuple(f"s{i}" for i in range(n_st)), ests, ses)
        priors = MetaPriors(
            GlobalNormalPrior(float(rng.uniform(0.25, 0.35)), float(rng.uniform(0.001, 0.01))),
            tau_scale=float(rng.uniform(0.005, 0.04)),
        )
        cases.append((data, priors, meta_log_denominator(data, priors)))
    for i, (data, priors, quad) in enumerate(cases):
        mc, se_log = meta_log_denominator_mc(data, priors, n_draws=1_000_000, seed=100 + i)
        assert abs(quad - mc) <= 3.0 * se_log


def _laplace_parts(n, ybar, theta0, m, v):
    prec = float(n)

    def loglik0(psi):
        return -0.5 * prec * (ybar - theta0) ** 2

    def loglik1(th):
        return -0.5 * prec * float((ybar - th[0]) ** 2)

    def log_prior1(th):
        return float(stats.norm.logpdf(th[0], m, math.sqrt(v)))

    exact = stats.norm.logpdf(ybar, theta0, 1.0 / math.sqrt(n)) - stats.norm.logpdf(
        ybar, m, math.sqrt(v + 1.0 / n)
    )
    return loglik0, loglik1, log_prior1, float(exact)


@pytest.mark.acceptance(12, "Laplace log-BFF error shrinks monotonically in n")
def test_laplace_error_decreases():
    errors = []
    for n in (100, 1_000, 10_000):
        ll0, ll1, lp1, exact = _laplace_parts(n, 0.3, 0.0, 0.2, 0.5)
        got = laplace_log_bff(ll0, ll1, None, lp1, 1, 0, n)
        errors.append(abs(got - exact))
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.acceptance(13, "threshold probabilities match 1e6-draw Monte Carlo, 5 configs")
def test_threshold_prob_vs_monte_carlo():
    rng = np.random.default_rng(4242)
    checked = 0
    while checked < 5:
        n = int(rng.integers(5, 120))
        kappa2 = math.exp(rng.uniform(-1.0, 1.0))
        v = math.exp(rng.uniform(-1.5, 0.7))
        m = float(rng.uniform(-1.0, 1.0))
        theta0 = float(rng.uniform(-1.0, 1.0))
        theta_star = float(rng.uniform(-1.0, 1.0))
        gamma = math.exp(rng.uniform(-2.0, 1.5))
        p = bff_threshold_prob(gamma, theta0, theta_star, m, v, kappa2, n)
        if not 0.02 < p < 0.98:
            continue
        checked += 1
        draws = rng.normal(theta_star, math.sqrt(kappa2 / n), size=1_000_000)
        b = theta0 - m
        center = draws - b * kappa2 / (n * v) - theta0
        log_bfs = 0.5 * (
            math.log1p(n * v / kappa2)
            + b * b / v
            - center**2 * v * n / (kappa2 * (v + kappa2 / n))
        )
        # anchor the vectorized expression to the scalar implementation
        for yb in draws[:3]:
            direct = log_bff_unitvariance(float(yb), theta0, m, v, kappa2, n)
            idx = int(np.where(draws == yb)[0][0])
            assert log_bfs[idx] == pytest.approx(direct, abs=1e-10)
        frac = float(np.mean(log_bfs <= math.log(gamma)))
        se = math.sqrt(p * (1.0 - p) / 1_000_000)
        assert abs(frac - p) <= 3.0 * se
