"""Random-effects meta-analysis tests: likelihood oracle, per-tau
statistics against the nested quadrature they replaced, shared
denominator, limiting collapses, and prior-scale sensitivity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from bff import DomainError, GridSpec, find_mee
from bff.binomial import TruncBetaPrior
from bff.meta import (
    MetaDataset,
    MetaPriors,
    _log_theta_integrals,
    _tau_stats,
    meta_joint_bff,
    meta_log_denominator,
    meta_loglik,
    meta_marginal_tau_bff,
    meta_marginal_theta_bff,
    read_meta_csv,
)
from bff.normal import GlobalNormalPrior, NormalSummary, normal_bff
from bff.quadrature import log_integrate, log_integrate_many
from bff.specfun import half_normal_log_density, normal_log_density
from meta_mc import meta_log_denominator_mc


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

    @pytest.mark.parametrize("prior", [GlobalNormalPrior(0.3, 0.04), TruncBetaPrior(30.0, 70.0, 0.1, 0.6)],
                             ids=["global", "truncbeta"])
    def test_tau_whose_square_overflows_has_zero_likelihood(self, prior):
        model = meta_marginal_tau_bff(SMALL, MetaPriors(prior, tau_scale=0.02), log_denominator=0.0)
        with np.errstate(over="ignore"):
            vals = model.log_bff(np.array([0.02, 1e200]))
        assert math.isfinite(vals[0]) and vals[1] == -math.inf

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


def _nested_theta_box(priors):
    p = priors.theta_prior
    if isinstance(p, TruncBetaPrior):
        return p.l, p.u
    return p.m - 10.0 * math.sqrt(p.v), p.m + 10.0 * math.sqrt(p.v)


def _nested_log_integrand(data, priors, th, taus):
    p = priors.theta_prior
    log_prior = (p.log_density(th) if isinstance(p, TruncBetaPrior)
                 else normal_log_density(th, p.m, p.v))
    return meta_loglik(data, th, taus) + log_prior


def _nested_log_denominator(data, priors, tol_rel=1e-8):
    """The nested quadrature that per-tau statistics replaced: a batched
    theta quadrature of `meta_loglik` at every outer tau node.  It cuts a
    global prior at m +- 10 sd, so it is a reference only while the
    likelihood lies inside that box."""
    lo, hi = _nested_theta_box(priors)

    def outer(taus):
        ts = np.asarray(taus, dtype=float)
        inner, _ = log_integrate_many(
            lambda th, idx: _nested_log_integrand(data, priors, th, ts[idx, None]),
            lo, hi, ts.size, tol_rel=tol_rel,
        )
        return inner + half_normal_log_density(ts, priors.tau_scale)

    return log_integrate(outer, 0.0, priors.tau_upper, tol_rel=tol_rel, scan_points=65)


def _nested_log_numerators(data, priors, taus):
    """The tau-marginal numerators as the nested path computed them."""
    lo, hi = _nested_theta_box(priors)
    ts = np.asarray(taus, dtype=float)
    vals, _ = log_integrate_many(
        lambda th, idx: _nested_log_integrand(data, priors, th, ts[idx, None]),
        lo, hi, ts.size, scan_points=129,
    )
    return vals


def _acceptance11_tables():
    """The five synthetic tables and global priors of acceptance 11."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(5):
        n_st = int(rng.integers(3, 9))
        ests = 0.3 + 0.05 * rng.standard_normal(n_st)
        ses = rng.uniform(0.005, 0.05, size=n_st)
        priors = MetaPriors(
            GlobalNormalPrior(float(rng.uniform(0.25, 0.35)), float(rng.uniform(0.001, 0.01))),
            tau_scale=float(rng.uniform(0.005, 0.04)),
        )
        cases.append((_dataset(ests, ses), priors))
    return cases


def _mvn_log_marginal(data, prior, tau):
    """ln Int prod_i N(y_i; theta, s_i^2 + tau^2) N(theta; m, v) dtheta as
    the joint normal law of y: mean m, covariance diag(s^2 + tau^2) + v."""
    cov = np.diag(data.std_errors**2 + tau**2) + prior.v
    return float(stats.multivariate_normal.logpdf(data.estimates, np.full(len(data), prior.m), cov))


# four studies near 0.3 under a global prior N(0, 1e-4): the likelihood
# lies 30 prior sd away, outside the old m +- 10 sd integration box
FAR = _dataset([0.30, 0.31, 0.29, 0.305], [0.01, 0.012, 0.009, 0.011])
FAR_PRIOR = GlobalNormalPrior(0.0, 1e-4)


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.all(np.abs(got - want) <= 1e-10 + 1e-14 * np.abs(want))


class TestPerTauStatistics:
    """The theta integral on per-tau statistics (c, W, mu) against the
    nested quadrature of `meta_loglik` it replaced, and the closed form
    under a global-normal prior against independent oracles."""

    TAUS = np.linspace(0.0, 0.08, 33)

    def test_bundled_table_matches_nested_path(self, coinflip_meta_results):
        data, priors = coinflip_meta_results["data"], coinflip_meta_results["priors"]
        assert _close(meta_log_denominator(data, priors), _nested_log_denominator(data, priors))
        numerators = meta_marginal_tau_bff(data, priors, log_denominator=0.0).log_bff(self.TAUS)
        assert _close(numerators, _nested_log_numerators(data, priors, self.TAUS))

    @pytest.mark.parametrize("case", range(5))
    def test_acceptance11_tables_match_nested_path(self, case):
        data, priors = _acceptance11_tables()[case]
        assert _close(meta_log_denominator(data, priors), _nested_log_denominator(data, priors))
        numerators = meta_marginal_tau_bff(data, priors, log_denominator=0.0).log_bff(self.TAUS)
        assert _close(numerators, _nested_log_numerators(data, priors, self.TAUS))

    @pytest.mark.parametrize("prior", [GlobalNormalPrior(0.3, 0.04), TruncBetaPrior(30.0, 70.0, 0.1, 0.6)],
                             ids=["global", "truncbeta"])
    def test_both_prior_kinds_match_nested_path(self, prior):
        priors = MetaPriors(prior, tau_scale=0.05)
        assert _close(meta_log_denominator(SMALL, priors), _nested_log_denominator(SMALL, priors))
        taus = np.linspace(0.0, 0.3, 13)
        numerators = meta_marginal_tau_bff(SMALL, priors, log_denominator=0.0).log_bff(taus)
        assert _close(numerators, _nested_log_numerators(SMALL, priors, taus))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_quadratic_in_theta_equals_loglik(self, draw):
        k = draw.draw(st.integers(2, 60))
        finite = dict(allow_nan=False, allow_infinity=False)
        ys = draw.draw(st.lists(st.floats(-1.0, 1.0, **finite), min_size=k, max_size=k))
        ses = draw.draw(st.lists(st.floats(1e-3, 1.0, **finite), min_size=k, max_size=k))
        tau = draw.draw(st.floats(0.0, 1.0, **finite))
        theta = draw.draw(st.floats(-5.0, 5.0, **finite))
        data = _dataset(ys, ses)
        c, big_w, mu = _tau_stats(data, np.array([tau]))
        got = float(c[0] - 0.5 * big_w[0] * (theta - mu[0]) ** 2)
        want = meta_loglik(data, theta, tau)
        # each study adds a term of order one, so K sets the scale near zero
        assert abs(got - want) <= 1e-12 * max(abs(want), k)

    @pytest.mark.parametrize("data, prior", [(SMALL, GlobalNormalPrior(0.3, 0.04)),
                                             (HETERO, GlobalNormalPrior(0.25, 0.001)),
                                             (FAR, FAR_PRIOR)], ids=["small", "hetero", "far"])
    def test_closed_form_matches_quadrature_of_its_integrand(self, data, prior):
        priors = MetaPriors(prior, tau_scale=0.02)
        taus = np.array([0.0, 0.003, 0.02, 0.1, 1.0])
        closed = _log_theta_integrals(data, priors, taus)
        c, big_w, mu = _tau_stats(data, taus)
        for i, tau in enumerate(taus):
            def log_g(th):
                return c[i] - 0.5 * big_w[i] * (th - mu[i]) ** 2 + normal_log_density(th, prior.m, prior.v)

            # the posterior sd is below both the likelihood's and the prior's
            post_mean = (big_w[i] * mu[i] + prior.m / prior.v) / (big_w[i] + 1.0 / prior.v)
            half = 40.0 / math.sqrt(big_w[i] + 1.0 / prior.v)
            quad = _oracle_log_integral(log_g, post_mean - half, post_mean + half)
            assert abs(closed[i] - quad) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-6, 0.002])
    def test_global_prior_far_from_likelihood(self, scale):
        # the old m +- 10 sd box gave -790.14 (scale 1e-6) and -252.58
        # (scale 0.002) here, hundreds of log units off
        priors = MetaPriors(FAR_PRIOR, tau_scale=scale)

        def log_g(tau):
            taus = np.atleast_1d(tau)
            vals = np.array([_mvn_log_marginal(FAR, FAR_PRIOR, float(t)) for t in taus])
            vals = vals + stats.halfnorm.logpdf(taus, scale=scale)
            return float(vals[0]) if np.ndim(tau) == 0 else vals

        want = _oracle_log_integral(log_g, 0.0, 10.0 * scale)
        assert want == pytest.approx(-341.84 if scale == 1e-6 else -240.18, abs=0.01)
        assert meta_log_denominator(FAR, priors) == pytest.approx(want, abs=1e-8)
        taus = np.array([0.0, scale, 3.0 * scale, 0.05])
        numerators = meta_marginal_tau_bff(FAR, priors, log_denominator=0.0).log_bff(taus)
        want = [_mvn_log_marginal(FAR, FAR_PRIOR, float(t)) for t in taus]
        np.testing.assert_allclose(numerators, want, rtol=0.0, atol=1e-9)


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
