"""Random-effects meta-analysis tests: likelihood oracle, shared
denominator, limiting collapses, and prior-scale sensitivity."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from bff import DomainError, GridSpec, find_mee
from bff.meta import (
    MetaDataset,
    MetaPriors,
    meta_joint_bff,
    meta_log_denominator,
    meta_log_denominator_mc,
    meta_loglik,
    meta_marginal_tau_bff,
    meta_marginal_theta_bff,
    read_meta_csv,
)
from bff.normal import GlobalNormalPrior, NormalSummary, normal_bff


def _dataset(estimates, std_errors):
    estimates = np.asarray(estimates, dtype=float)
    ids = tuple(f"s{i}" for i in range(len(estimates)))
    return MetaDataset(ids, estimates, np.asarray(std_errors, dtype=float))


SMALL = _dataset([0.28, 0.33, 0.30, 0.35, 0.31], [0.05, 0.08, 0.06, 0.07, 0.05])


class TestMetaLoglik:
    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            data = _dataset(rng.normal(0.3, 0.2, n), rng.uniform(0.02, 0.4, n))
            theta = rng.uniform(-0.5, 1.0)
            tau = rng.uniform(0.0, 0.5)
            want = sum(
                stats.norm.logpdf(y, theta, math.sqrt(s**2 + tau**2))
                for y, s in zip(data.estimates, data.std_errors)
            )
            assert meta_loglik(data, theta, tau) == pytest.approx(float(want), abs=1e-12)

    def test_zero_tau_uses_reported_errors_alone(self):
        data = _dataset([0.1, 0.4], [0.2, 0.3])
        want = stats.norm.logpdf(0.1, 0.25, 0.2) + stats.norm.logpdf(0.4, 0.25, 0.3)
        assert meta_loglik(data, 0.25, 0.0) == pytest.approx(float(want), abs=1e-12)

    def test_huge_tau_kills_likelihood(self):
        vals = [meta_loglik(SMALL, 0.3, t) for t in (0.0, 1.0, 1e3, 1e6)]
        assert vals[0] > vals[1] > vals[2] > vals[3]
        assert vals[-1] < -50.0

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            meta_loglik(SMALL, 0.3, -0.01)

    def test_broadcasting(self):
        thetas = np.array([0.1, 0.3, 0.5])
        taus = np.array([0.0, 0.01, 0.2])
        vals = meta_loglik(SMALL, thetas, taus)
        assert vals.shape == (3,)
        for i in range(3):
            assert vals[i] == meta_loglik(SMALL, float(thetas[i]), float(taus[i]))

    def test_dataset_validation(self):
        with pytest.raises(DomainError):
            _dataset([0.1], [0.2])
        with pytest.raises(DomainError):
            _dataset([0.1, 0.2], [0.2, 0.0])
        with pytest.raises(DomainError):
            _dataset([0.1, math.inf], [0.2, 0.2])


class TestDenominator:
    def test_monte_carlo_agreement_normal_prior(self):
        priors = MetaPriors(GlobalNormalPrior(0.3, 0.04), tau_scale=0.05)
        quad = meta_log_denominator(SMALL, priors)
        mc, se = meta_log_denominator_mc(SMALL, priors, n_draws=200_000, seed=5)
        assert abs(quad - mc) <= 3 * se

    def test_monte_carlo_agreement_truncbeta_prior(self):
        from bff.binomial import TruncBetaPrior

        data = _dataset([0.52, 0.505, 0.51, 0.515], [0.01, 0.012, 0.009, 0.011])
        priors = MetaPriors(TruncBetaPrior(40.0, 40.0, 0.5, 1.0), tau_scale=0.02)
        quad = meta_log_denominator(data, priors)
        mc, se = meta_log_denominator_mc(data, priors, n_draws=200_000, seed=6)
        assert abs(quad - mc) <= 3 * se

    def test_shared_across_all_three_models(self):
        priors = MetaPriors(GlobalNormalPrior(0.3, 0.04), tau_scale=0.05)
        denom = meta_log_denominator(SMALL, priors)
        explicit = (
            meta_joint_bff(SMALL, priors, log_denominator=denom),
            meta_marginal_theta_bff(SMALL, priors, log_denominator=denom),
            meta_marginal_tau_bff(SMALL, priors, log_denominator=denom),
        )
        recomputed = (
            meta_joint_bff(SMALL, priors),
            meta_marginal_theta_bff(SMALL, priors),
            meta_marginal_tau_bff(SMALL, priors),
        )
        pts = ((0.31, 0.02), 0.31, 0.02)
        for a, b, pt in zip(explicit, recomputed, pts):
            assert a.log_bff(pt) == pytest.approx(b.log_bff(pt), abs=1e-8)


class TestLimits:
    def test_point_tau_prior_recovers_fixed_effect_model(self):
        # with the heterogeneity prior collapsed onto 0 the marginal theta
        # BFF is the precision-weighted normal analysis
        m, v = 0.25, 0.09
        priors = MetaPriors(GlobalNormalPrior(m, v), tau_scale=1e-8)
        model = meta_marginal_theta_bff(SMALL, priors)
        w = np.sum(1.0 / SMALL.std_errors**2)
        y_hat = float(np.sum(SMALL.estimates / SMALL.std_errors**2) / w)
        fixed = normal_bff(NormalSummary(y_hat, math.sqrt(1.0 / w)), GlobalNormalPrior(m, v))
        for t0 in (0.2, 0.31, 0.4):
            assert model.log_bff(t0) == pytest.approx(float(fixed.log_bff(t0)), abs=1e-6)

    def test_point_priors_give_likelihood_ratio_surface(self):
        center = 0.31
        priors = MetaPriors(GlobalNormalPrior(center, 1e-16), tau_scale=1e-8)
        model = meta_joint_bff(SMALL, priors)
        ref = meta_loglik(SMALL, center, 0.0)
        for theta0, tau0 in ((0.25, 0.0), (0.31, 0.03), (0.4, 0.01)):
            want = meta_loglik(SMALL, theta0, tau0) - ref
            assert model.log_bff((theta0, tau0)) == pytest.approx(want, abs=1e-6)

    def test_identical_studies_favor_zero_heterogeneity(self):
        data = _dataset([0.3, 0.3], [0.1, 0.1])
        priors = MetaPriors(GlobalNormalPrior(0.3, 0.04), tau_scale=0.02)
        model = meta_marginal_tau_bff(data, priors)
        res = find_mee(model, GridSpec.one_dim(0.0, 0.08, points=161))
        assert res.exists and not res.boundary
        assert res.theta_hat[0] < 0.005

    def test_negative_tau_is_an_error_not_nan(self):
        priors = MetaPriors(GlobalNormalPrior(0.3, 0.04), tau_scale=0.02)
        denom = meta_log_denominator(SMALL, priors)
        joint = meta_joint_bff(SMALL, priors, log_denominator=denom)
        marg = meta_marginal_tau_bff(SMALL, priors, log_denominator=denom)
        with pytest.raises(DomainError):
            joint.log_bff((0.3, -0.01))
        with pytest.raises(DomainError):
            marg.log_bff(-0.01)


# eight equally precise studies split around two levels 0.032 apart:
# between-study sd ~ 0.016, well above the per-study errors
HETERO = _dataset([0.30] * 4 + [0.332] * 4, [0.004] * 8)


class TestScaleSensitivity:
    def test_theta_inference_stable_across_scales(self):
        mees = []
        for s in (0.005, 0.02, 0.04):
            priors = MetaPriors(GlobalNormalPrior(0.3, 0.01), tau_scale=s)
            model = meta_marginal_theta_bff(HETERO, priors)
            res = find_mee(model, GridSpec.one_dim(0.29, 0.35, points=121))
            assert res.exists
            mees.append(res.theta_hat[0])
        assert max(mees) - min(mees) < 0.002

    def test_small_scale_raises_tau_peak(self):
        k_mes = {}
        for s in (0.005, 0.02):
            priors = MetaPriors(GlobalNormalPrior(0.3, 0.01), tau_scale=s)
            model = meta_marginal_tau_bff(HETERO, priors)
            res = find_mee(model, GridSpec.one_dim(0.0, 0.06, points=121))
            assert res.exists
            k_mes[s] = res.log_k_me
        assert k_mes[0.005] > k_mes[0.02]

    def test_joint_max_aligns_with_marginal_mees(self, coinflip_meta_results):
        r = coinflip_meta_results
        joint = r["joint_mee"]
        assert joint.exists
        grid = r["joint_grid"]
        step_theta = (grid.upper[0] - grid.lower[0]) / (grid.points[0] - 1)
        step_tau = (grid.upper[1] - grid.lower[1]) / (grid.points[1] - 1)
        assert abs(joint.theta_hat[0] - r["theta_mee"].theta_hat[0]) <= step_theta
        assert abs(joint.theta_hat[1] - r["tau_mee"].theta_hat[0]) <= step_tau


def _oracle_log_integral(log_g, lo, hi):
    """ln Int_lo^hi exp(log_g) by scipy's quad, shifted by the maximum;
    log_g maps scalars to scalars and arrays elementwise.

    The conditional peak is located on a dense scan refined by a bounded
    minimizer and passed as a breakpoint, with a geometric ladder of
    breakpoints either side so that quad resolves a peak of any width
    (the tau-marginal integrands are 1e-4 of their interval wide)."""
    xs = np.linspace(lo, hi, 4001)
    i = int(np.argmax(log_g(xs)))
    res = optimize.minimize_scalar(lambda x: -log_g(x), bounds=(xs[max(i - 1, 0)], xs[min(i + 1, 4000)]),
                                   method="bounded", options={"xatol": 1e-14})
    x_hat = float(res.x) if -res.fun > log_g(xs[i]) else float(xs[i])
    top = log_g(x_hat)
    ladder = x_hat + np.outer([-1.0, 1.0], (hi - lo) * 1e-9 * 2.0 ** np.arange(30)).ravel()
    points = sorted(p for p in [x_hat, *ladder] if lo < p < hi)
    val, _ = integrate.quad(lambda x: math.exp(log_g(x) - top), lo, hi, points=points,
                            epsabs=0.0, epsrel=1e-12, limit=500)
    return top + math.log(val)


def _oracle_loglik(data, theta, tau):
    theta, tau = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(tau, dtype=float))
    sd = np.sqrt(data.std_errors[:, None] ** 2 + tau.reshape(1, -1) ** 2)
    total = np.sum(stats.norm.logpdf(data.estimates[:, None], theta.reshape(1, -1), sd), axis=0)
    return float(total[0]) if theta.ndim == 0 else total


class TestBatchedMarginals:
    """One batched quadrature per grid pass must give each point exactly
    what a scalar call gives, and both must match an oracle that uses
    scipy's quad instead of bff.quadrature."""

    A, B, S = 5100.0, 4900.0, 0.02

    @pytest.fixture(scope="class")
    def coinflip(self):
        from bff.binomial import TruncBetaPrior
        from bff.datasets import load_coinflip_meta

        data = load_coinflip_meta()
        priors = MetaPriors(TruncBetaPrior(self.A, self.B, 0.5, 1.0), tau_scale=self.S)
        # a zero denominator makes log_bff the log numerator itself
        return (data, meta_marginal_theta_bff(data, priors, log_denominator=0.0),
                meta_marginal_tau_bff(data, priors, log_denominator=0.0))

    def test_theta_marginal(self, coinflip):
        data, model, _ = coinflip
        thetas = np.array([0.5, 0.503, 0.5065, 0.51, 0.515, 0.52])
        batched = model.log_bff(thetas)
        np.testing.assert_array_equal(batched, [model.log_bff(float(t)) for t in thetas])
        s = self.S
        for theta0, got in zip(thetas, batched):
            def log_g(tau):
                return (_oracle_loglik(data, theta0, tau) + 0.5 * math.log(2.0 / math.pi)
                        - math.log(s) - tau**2 / (2.0 * s**2))

            assert got == pytest.approx(_oracle_log_integral(log_g, 0.0, 10.0 * s), abs=1e-8)

    def test_tau_marginal(self, coinflip):
        data, _, model = coinflip
        taus = np.array([0.0, 0.004, 0.01, 0.02, 0.035, 0.05])
        batched = model.log_bff(taus)
        np.testing.assert_array_equal(batched, [model.log_bff(float(t)) for t in taus])
        log_mass = math.log(special.betainc(self.A, self.B, 1.0) - special.betainc(self.A, self.B, 0.5))
        for tau0, got in zip(taus, batched):
            def log_g(theta):
                return (_oracle_loglik(data, theta, tau0)
                        + stats.beta.logpdf(theta, self.A, self.B) - log_mass)

            assert got == pytest.approx(_oracle_log_integral(log_g, 0.5, 1.0), abs=1e-8)


class TestCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "studies.csv"
        p.write_text("id,estimate,se\na,0.1,0.05\nb,-0.2,0.08\n", encoding="utf-8")
        data = read_meta_csv(p)
        assert data.ids == ("a", "b")
        assert np.allclose(data.estimates, [0.1, -0.2])
        assert np.allclose(data.std_errors, [0.05, 0.08])

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("study,est,stderr\na,0.1,0.05\n", encoding="utf-8")
        with pytest.raises(DomainError, match="expected header"):
            read_meta_csv(p)

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,estimate,se\na,0.1,0.05\nb,oops,0.08\n", encoding="utf-8")
        with pytest.raises(DomainError, match=":3"):
            read_meta_csv(p)

    def test_bundled_dataset_loads(self):
        from bff.datasets import load_coinflip_meta

        data = load_coinflip_meta()
        assert len(data) == 48
        assert np.all(data.std_errors > 0)
        assert 0.4 < float(np.mean(data.estimates)) < 0.6
