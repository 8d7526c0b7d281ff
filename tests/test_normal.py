"""Normal-mean model tests: closed forms against quadrature and density
oracles, replication analysis, threshold probabilities, and the
integrated-likelihood variance estimate."""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import optimize, stats

from bff import DomainError, GridSpec, find_mee, savage_dickey_bff, support_set
from bff.normal import (
    GlobalNormalPrior,
    LocalNormalPrior,
    NormalSummary,
    PointShiftPrior,
    ReplicationPair,
    bff_threshold_prob,
    global_prior_density,
    integrated_log_likelihood,
    log_bff_unitvariance,
    mil_variance,
    normal_bff,
    normal_closed_summaries,
    replication_bff,
    replication_posterior,
    replication_posterior_hpd,
    replication_summaries,
)

Y, SIGMA, M, V = -0.14, 0.064, -0.56, 0.0144


class TestNormalBff:
    def test_global_self_centered_is_sqrt_two(self):
        # theta0 = y with prior mean y and prior variance sigma^2: the
        # exponent vanishes and BF01 = sqrt(2)
        y, sigma = 0.37, 0.21
        model = normal_bff(NormalSummary(y, sigma), GlobalNormalPrior(y, sigma**2))
        assert math.exp(model.log_bff(y)) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_point_shift_at_one_sd(self):
        y, sigma = 1.4, 0.5
        model = normal_bff(NormalSummary(y, sigma), PointShiftPrior(sigma))
        assert math.exp(model.log_bff(y)) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_global_is_marginal_likelihood_ratio(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            y = rng.uniform(-3, 3)
            sigma = rng.uniform(0.05, 2.0)
            m = rng.uniform(-3, 3)
            v = rng.uniform(0.02, 4.0)
            t0 = rng.uniform(y - 3 * sigma, y + 3 * sigma)
            model = normal_bff(NormalSummary(y, sigma), GlobalNormalPrior(m, v))
            want = stats.norm.logpdf(y, t0, sigma) - stats.norm.logpdf(
                y, m, math.sqrt(sigma**2 + v)
            )
            assert model.log_bff(t0) == pytest.approx(float(want), abs=1e-10)

    def test_local_matches_quadrature(self):
        y, sigma, v = 0.4, 0.3, 0.8
        model = normal_bff(NormalSummary(y, sigma), LocalNormalPrior(v))
        for t0 in (-0.2, 0.4, 0.9):
            num = stats.norm.pdf(y, t0, sigma)
            den, _ = sp_integrate.quad(
                lambda th: stats.norm.pdf(y, th, sigma)
                * stats.norm.pdf(th, t0, math.sqrt(v)),
                t0 - 8.0,
                t0 + 8.0,
            )
            assert model.log_bff(t0) == pytest.approx(math.log(num / den), abs=1e-9)

    def test_point_shift_strictly_increasing(self):
        model = normal_bff(NormalSummary(Y, SIGMA), PointShiftPrior(0.5))
        xs = np.linspace(-3, 3, 301)
        vals = model.log_bff(xs)
        assert np.all(np.diff(vals) > 0)
        for window in ((-2.0, 2.0), (-30.0, 5.0)):
            res = find_mee(model, GridSpec.one_dim(*window, points=201))
            assert not res.exists and res.boundary

    def test_scalar_and_array_calls_agree_bitwise(self):
        # a float theta0 must give the bits the engine's array call gives
        rng = np.random.default_rng(5)
        for _ in range(200):
            data = NormalSummary(rng.normal(), rng.uniform(0.05, 2.0))
            v = rng.uniform(0.01, 4.0)
            ts = rng.normal(data.y, 3.0, size=50)
            for prior in (GlobalNormalPrior(rng.normal(0.0, 2.0), v), LocalNormalPrior(v)):
                model = normal_bff(data, prior)
                assert [model.log_bff(float(t)) for t in ts] == model.log_bff(ts).tolist()

    def test_input_validation(self):
        with pytest.raises(DomainError):
            NormalSummary(math.nan, 1.0)
        with pytest.raises(DomainError):
            NormalSummary(0.0, 0.0)
        with pytest.raises(DomainError):
            GlobalNormalPrior(0.0, -1.0)
        with pytest.raises(DomainError):
            LocalNormalPrior(0.0)
        with pytest.raises(DomainError):
            PointShiftPrior(-0.5)


class TestClosedSummaries:
    def test_global_mee_invariant_to_prior_choice(self):
        rng = np.random.default_rng(8)
        y, sigma = 0.6, 0.25
        for _ in range(20):
            m = rng.uniform(-4, 4)
            v = rng.uniform(0.01, 5.0)
            mee, _ = normal_closed_summaries(
                NormalSummary(y, sigma), GlobalNormalPrior(m, v), 1.0
            )
            assert mee.exists and mee.theta_hat == (y,)
            want = 0.5 * math.log1p(v / sigma**2) + (y - m) ** 2 / (2 * (sigma**2 + v))
            assert mee.log_k_me == pytest.approx(want, rel=1e-12)

    def test_local_k_me_ignores_estimate(self):
        sigma, v = 0.3, 1.1
        k_mes = []
        for y in (-5.0, 0.0, 2.4):
            mee, _ = normal_closed_summaries(
                NormalSummary(y, sigma), LocalNormalPrior(v), 1.0
            )
            k_mes.append(mee.k_me)
        assert k_mes[0] == k_mes[1] == k_mes[2]
        assert k_mes[0] == pytest.approx(math.sqrt(1 + v / sigma**2), rel=1e-12)

    def test_interval_empty_above_k_me(self):
        data = NormalSummary(Y, SIGMA)
        prior = GlobalNormalPrior(M, V)
        mee, _ = normal_closed_summaries(data, prior, 1.0)
        _, si = normal_closed_summaries(data, prior, mee.k_me * 1.0001)
        assert si.empty

    def test_point_shift_interval_endpoint_is_level_crossing(self):
        data = NormalSummary(Y, SIGMA)
        prior = PointShiftPrior(0.7)
        model = normal_bff(data, prior)
        for k in (0.5, 1.0, 3.0):
            mee, si = normal_closed_summaries(data, prior, k)
            assert not mee.exists
            (iv,) = si.intervals
            assert iv.upper_unbounded and math.isinf(iv.upper)
            assert model.log_bff(iv.lower) == pytest.approx(math.log(k), abs=1e-12)

    def test_engine_root_finder_agrees(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            y = rng.uniform(-2, 2)
            sigma = rng.uniform(0.1, 1.0)
            if rng.uniform() < 0.5:
                prior = GlobalNormalPrior(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
            else:
                prior = LocalNormalPrior(rng.uniform(0.05, 2.0))
            data = NormalSummary(y, sigma)
            mee, _ = normal_closed_summaries(data, prior, 1.0)
            k = mee.k_me * rng.uniform(0.3, 0.95)
            _, closed = normal_closed_summaries(data, prior, k)
            grid = GridSpec.one_dim(y - 8 * sigma, y + 8 * sigma, points=1001)
            found = support_set(normal_bff(data, prior), k, grid)
            assert len(found.intervals) == 1
            assert found.intervals[0].lower == pytest.approx(
                closed.intervals[0].lower, abs=1e-8 * 16 * sigma
            )
            assert found.intervals[0].upper == pytest.approx(
                closed.intervals[0].upper, abs=1e-8 * 16 * sigma
            )


LAB2 = ReplicationPair(y_o=0.205, sigma_o=0.051, y_r=0.205, sigma_r=0.057)


class TestReplication:
    def test_identical_estimates_peak_level(self):
        mee, _ = replication_summaries(LAB2, 1.0)
        want = math.sqrt(1 + LAB2.sigma_o**2 / LAB2.sigma_r**2)
        assert mee.theta_hat == (LAB2.y_r,)
        assert mee.k_me == pytest.approx(want, rel=1e-12)

    def test_flat_original_prior_centers_on_replication(self):
        pair = ReplicationPair(y_o=0.0, sigma_o=1e6, y_r=0.435, sigma_r=0.044)
        mode, _ = replication_posterior_hpd(pair)
        assert mode == pytest.approx(pair.y_r, abs=1e-6)

    def test_density_ratio_recovers_bff(self):
        pair = ReplicationPair(y_o=0.205, sigma_o=0.051, y_r=0.435, sigma_r=0.044)
        sd = savage_dickey_bff(
            replication_posterior(pair),
            global_prior_density(pair.y_o, pair.sigma_o**2),
        )
        direct = replication_bff(pair)
        xs = np.linspace(0.0, 0.6, 101)
        assert np.max(np.abs(sd.log_bff(xs) - direct.log_bff(xs))) <= 1e-10

    def test_hpd_matches_normal_quantiles(self):
        mode, hpd = replication_posterior_hpd(LAB2)
        w = 1.0 / (1.0 / LAB2.sigma_o**2 + 1.0 / LAB2.sigma_r**2)
        mu = w * (LAB2.y_o / LAB2.sigma_o**2 + LAB2.y_r / LAB2.sigma_r**2)
        assert mode == pytest.approx(mu, rel=1e-12)
        assert hpd.lower == pytest.approx(mu - 1.959963984540054 * math.sqrt(w), rel=1e-9)
        assert hpd.upper == pytest.approx(mu + 1.959963984540054 * math.sqrt(w), rel=1e-9)

    def test_bad_pair_rejected(self):
        with pytest.raises(DomainError):
            ReplicationPair(y_o=0.0, sigma_o=0.0, y_r=0.1, sigma_r=0.1)


class TestUnitVariance:
    def test_identity_with_global_form(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ybar = rng.uniform(-2, 2)
            theta0 = rng.uniform(-2, 2)
            m = rng.uniform(-2, 2)
            v = rng.uniform(0.05, 3.0)
            kappa2 = rng.uniform(0.2, 5.0)
            n = int(rng.integers(1, 400))
            got = log_bff_unitvariance(ybar, theta0, m, v, kappa2, n)
            model = normal_bff(
                NormalSummary(ybar, math.sqrt(kappa2 / n)), GlobalNormalPrior(m, v)
            )
            assert got == pytest.approx(float(model.log_bff(theta0)), abs=1e-10)

    def test_data_at_center_point(self):
        theta0, m, v, kappa2, n = 0.4, -0.1, 0.7, 2.0, 50
        ybar = theta0 + (theta0 - m) * kappa2 / (n * v)
        got = log_bff_unitvariance(ybar, theta0, m, v, kappa2, n)
        want = 0.5 * (math.log1p(n * v / kappa2) + (theta0 - m) ** 2 / v)
        assert got == pytest.approx(want, rel=1e-12)

    def test_prior_centered_at_null(self):
        theta0, v, kappa2, n = 0.4, 0.7, 2.0, 50
        got = log_bff_unitvariance(theta0, theta0, theta0, v, kappa2, n)
        assert got == pytest.approx(0.5 * math.log1p(n * v / kappa2), rel=1e-12)

    def test_sequential_batches_reproduce_full_sample(self):
        rng = np.random.default_rng(31)
        kappa2, m, v, theta0 = 1.7, 0.2, 0.6, 0.0
        counts = (25, 20, 15)
        sample = rng.normal(0.3, math.sqrt(kappa2), size=sum(counts))
        full = log_bff_unitvariance(
            float(sample.mean()), theta0, m, v, kappa2, len(sample)
        )
        acc = 0.0
        cur_m, cur_v = m, v
        start = 0
        for n_i in counts:
            batch = sample[start : start + n_i]
            start += n_i
            ybar = float(batch.mean())
            acc += log_bff_unitvariance(ybar, theta0, cur_m, cur_v, kappa2, n_i)
            w = 1.0 / (1.0 / cur_v + n_i / kappa2)
            cur_m = w * (cur_m / cur_v + n_i * ybar / kappa2)
            cur_v = w
        assert acc == pytest.approx(full, abs=1e-10)


class TestThresholdProb:
    def test_evidence_accumulates_with_n(self):
        # at the true null with a locally centered prior, small BF values
        # become rarer as the sample grows
        probs = [
            bff_threshold_prob(1.0, 0.0, 0.0, 0.0, 4.0, 4.0, n) for n in (10, 50, 200)
        ]
        assert probs[0] > probs[1] > probs[2]

    def test_tiny_gamma_never_reached(self):
        p = bff_threshold_prob(1e-280, 0.2, 0.5, 0.3, 1.0, 2.0, 20)
        assert p <= 1e-10

    def test_gamma_above_attainable_max(self):
        theta0, m, v, kappa2, n = 0.4, 0.1, 0.8, 2.0, 30
        max_log_bf = 0.5 * (math.log1p(n * v / kappa2) + (theta0 - m) ** 2 / v)
        p = bff_threshold_prob(math.exp(max_log_bf) * 1.01, theta0, 0.0, m, v, kappa2, n)
        assert p == 1.0

    def test_monte_carlo_check(self):
        gamma, theta0, theta_star, m, v, kappa2, n = 1.0, 0.2, 0.5, 0.3, 1.0, 2.0, 20
        p = bff_threshold_prob(gamma, theta0, theta_star, m, v, kappa2, n)
        rng = np.random.default_rng(77)
        ybar = rng.normal(theta_star, math.sqrt(kappa2 / n), size=1_000_000)
        b = theta0 - m
        center = ybar - b * kappa2 / (n * v) - theta0
        log_bf = 0.5 * (
            math.log1p(n * v / kappa2)
            + b * b / v
            - center**2 * v * n / (kappa2 * (v + kappa2 / n))
        )
        p_hat = float(np.mean(log_bf <= math.log(gamma)))
        se = math.sqrt(p_hat * (1 - p_hat) / len(ybar))
        assert abs(p - p_hat) <= 3 * se

    def test_always_a_probability(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            p = bff_threshold_prob(
                math.exp(rng.uniform(-5, 5)),
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                rng.uniform(0.05, 3.0),
                rng.uniform(0.2, 5.0),
                int(rng.integers(1, 500)),
            )
            assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize("x, lam", [(60.0, 1.0), (100.0, 5.0), (200.0, 10.0)])
    def test_small_upper_tail_matches_scipy_ncx2(self, x, lam):
        # n = v = kappa2 = 1 and m = theta0 = 0 make the noncentrality
        # theta_star^2 and the cut point 2 (ln 2 - 2 ln gamma); the tails
        # here run from 1e-11 down to 2.4e-28, far below 1 - CDF's reach
        gamma = math.exp(0.5 * (math.log(2.0) - 0.5 * x))
        cut = (math.log1p(1.0) - 2.0 * math.log(gamma)) * 2.0
        assert cut == pytest.approx(x, rel=1e-14)
        want = float(stats.ncx2.sf(cut, 1, lam))
        p = bff_threshold_prob(gamma, 0.0, math.sqrt(lam), 0.0, 1.0, 1.0, 1)
        assert p == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            bff_threshold_prob(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 10)
        with pytest.raises(DomainError):
            bff_threshold_prob(1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 10)
        with pytest.raises(DomainError):
            bff_threshold_prob(1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0)


class TestMilVariance:
    def test_two_point_sample(self):
        assert mil_variance([0.0, 2.0]) == 2.0

    def test_matches_unbiased_variance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ys = rng.normal(size=rng.integers(2, 40))
            assert mil_variance(ys) == pytest.approx(float(np.var(ys, ddof=1)), rel=1e-12)

    def test_maximizes_integrated_likelihood(self):
        rng = np.random.default_rng(13)
        ys = rng.normal(1.5, 2.0, size=30)
        s2 = mil_variance(ys)
        res = optimize.minimize_scalar(
            lambda v: -integrated_log_likelihood(ys, v),
            bounds=(0.2 * s2, 5.0 * s2),
            method="bounded",
            options={"xatol": 1e-12},
        )
        # Newton polish: bracketing alone stalls at sqrt(eps) precision
        v = res.x
        for _ in range(4):
            h = 1e-5 * v
            f = lambda x: integrated_log_likelihood(ys, x)
            g = (f(v + h) - f(v - h)) / (2 * h)
            curv = (f(v + h) - 2 * f(v) + f(v - h)) / h**2
            v -= g / curv
        assert v == pytest.approx(s2, rel=1e-8)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(DomainError):
            mil_variance([1.0])
        with pytest.raises(DomainError):
            mil_variance([2.0, 2.0, 2.0])
        with pytest.raises(DomainError):
            integrated_log_likelihood([1.0, 2.0], 0.0)
