"""Logistic-regression BFF tests: MAP fitting, Laplace marginals,
Metropolis sampling, KDE posteriors, and the three BFF paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy.special import expit

from bff import (
    ContractError,
    DomainError,
    GridSpec,
    NumericalError,
    evaluate_curve,
    find_mee,
    savage_dickey_bff,
)
import bff.glm as glm_module
from bff.glm import (
    MAX_SAMPLES,
    GlmDataset,
    GlmPrior,
    _log_lik,
    _score_and_information,
    _softplus,
    fit_map,
    glm_coefficient_bff,
    kde_density,
    laplace_marginal_posterior,
    metropolis_sample,
    read_glm_csv,
)
from bff.normal import global_prior_density


def _synthetic(n, beta, seed):
    """Logistic data at known coefficients; beta[0] is the intercept."""
    rng = np.random.default_rng(seed)
    p = len(beta) - 1
    covs = rng.standard_normal((n, p))
    design = np.hstack([np.ones((n, 1)), covs])
    eta = design @ np.asarray(beta)
    y = (rng.uniform(size=n) < expit(eta)).astype(float)
    names = ("intercept", *(f"x{j}" for j in range(1, p + 1)))
    return GlmDataset(design, y, names)


def _batch_se(chain, n_batches=30):
    m = len(chain) // n_batches
    means = chain[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


WELL = _synthetic(2000, [-1.2, 0.6, -0.4], seed=314)
PRIOR = GlmPrior(coef_variance=0.5)


def _repeated_rows(seed, distinct, n, p):
    """n observations over `distinct` covariate rows, each used at least once."""
    rng = np.random.default_rng(seed)
    base = np.hstack([np.ones((distinct, 1)), rng.standard_normal((distinct, p - 1))])
    idx = rng.permutation(np.r_[np.arange(distinct), rng.integers(0, distinct, n - distinct)])
    y = (rng.uniform(size=n) < 0.4).astype(float)
    names = ("intercept", *(f"x{j}" for j in range(1, p)))
    return GlmDataset(base[idx], y, names), rng


def _full_design_terms(x, y, beta):
    """Log likelihood, gradient and negative Hessian summed row by row, each
    with the sum of the absolute values of its terms (the yardstick for
    rounding in a reordered sum)."""
    eta = x @ beta
    soft = np.logaddexp(0.0, eta)
    mu = expit(eta)
    w = mu * (1.0 - mu)
    ax = np.abs(x)
    return (
        (float(y @ eta - np.sum(soft)), float(np.abs(y) @ np.abs(eta) + np.sum(soft))),
        (x.T @ (y - mu), ax.T @ (y + mu)),
        (x.T @ (x * w[:, None]), ax.T @ (ax * w[:, None])),
    )


def _reference_metropolis(x, y, prec, fit, n_samples, seed):
    """The random-walk sampler of `metropolis_sample`, with its log
    likelihood summed over the rows of the full design.  Returns the
    draws, the accept flag of every step and the final proposal scale."""
    d = x.shape[1]
    chol = np.linalg.cholesky(np.linalg.inv(fit.neg_hessian) * (2.38**2 / d))

    def log_post(b):
        eta = x @ b
        return float(y @ eta - np.sum(np.logaddexp(0.0, eta))) - 0.5 * float(prec @ b**2)

    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n_samples, d))
    log_unifs = np.log(rng.uniform(size=n_samples))
    burn = n_samples // 10
    scale, beta = 1.0, fit.mode.copy()
    lp = log_post(beta)
    out = np.empty((n_samples, d))
    accepted = np.zeros(n_samples, dtype=bool)
    for t in range(n_samples):
        prop = beta + scale * (chol @ normals[t])
        lp_prop = log_post(prop)
        if log_unifs[t] < lp_prop - lp:
            beta, lp = prop, lp_prop
            accepted[t] = True
        out[t] = beta
        if t < burn and (t + 1) % 100 == 0:
            scale *= math.exp(np.count_nonzero(accepted[t - 99 : t + 1]) / 100.0 - 0.234)
    return out, accepted, scale


def _assert_matches_reference_sampler(data, prior, n_samples, seed):
    """`metropolis_sample` against `_reference_metropolis`: identical
    accept decisions and proposal scale, draws within 1e-10."""
    fit = fit_map(data, prior)
    want, accepted, want_scale = _reference_metropolis(
        data.design, data.outcome, prior.precisions(data.p), fit, n_samples, seed
    )
    got, info = metropolis_sample(data, prior, n_samples=n_samples, seed=seed)
    burn = n_samples // 10
    assert np.max(np.abs(got - want[burn:])) <= 1e-10
    # identical accept decisions: every burn-in block (through the
    # adapted scale), the post-burn-in count, and each later step
    assert info["proposal_scale"] == want_scale
    assert info["acceptance_rate"] == np.count_nonzero(accepted[burn:]) / (n_samples - burn)
    moved = np.any(got[1:] != got[:-1], axis=1)
    assert np.array_equal(moved, accepted[burn + 1 :])
    return info


def _full_design_rank_message(x):
    """The design check on the standardized full design, as an SVD of all
    n rows: the message GlmDataset must raise, or None."""
    z = x.copy()
    for j in range(1, x.shape[1]):
        col = x[:, j]
        if np.all(col == col[0]) or col.std() == 0.0:
            return f"design column {j} is constant"
        z[:, j] = (col - col.mean()) / col.std()
    if np.linalg.matrix_rank(z) < x.shape[1]:
        return "design matrix is rank deficient after standardization"
    return None


def _full_sum_log_kde(sample, points):
    """Log density of the Gaussian KDE of `kde_density`, summed over every
    draw: the reference for its windowed sum."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = len(s)
    sd = s.std(ddof=1)
    iqr = s[int(0.75 * (n - 1))] - s[int(0.25 * (n - 1))]
    h = 0.9 * (min(sd, iqr / 1.34) if iqr > 0.0 else sd) * n ** (-0.2)
    out = np.empty(len(points))
    for start in range(0, len(points), 32):
        q = -0.5 * ((points[start : start + 32, None] - s[None, :]) / h) ** 2
        m = q.max(axis=1)
        out[start : start + 32] = m + np.log(np.sum(np.exp(q - m[:, None]), axis=1))
    out -= math.log(n * h * math.sqrt(2.0 * math.pi))
    out[(points < s[0]) | (points > s[-1])] = np.nan
    return out, h


class TestSufficientStatistics:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),           # columns, intercept included
        st.integers(0, 20),          # distinct rows beyond the column count
        st.integers(0, 150),         # repeated rows
        st.floats(0.01, 4.0),        # coefficient scale
    )
    def test_pattern_terms_match_full_design(self, seed, p, extra, repeats, beta_scale):
        distinct = p + extra
        data, rng = _repeated_rows(seed, distinct, distinct + repeats, p)
        assert data.patterns.shape == (distinct, p)
        assert data.trials.sum() == data.n
        assert data.successes.sum() == data.outcome.sum()
        beta = rng.standard_normal(p) * beta_scale
        (ll, ll_scale), (grad, grad_scale), (info, info_scale) = _full_design_terms(
            data.design, data.outcome, beta
        )
        got_grad, got_info = _score_and_information(data, beta)
        assert abs(_log_lik(data, beta) - ll) <= 1e-12 * ll_scale
        assert np.all(np.abs(got_grad - grad) <= 1e-12 * grad_scale)
        assert np.all(np.abs(got_info - info) <= 1e-12 * info_scale)

    def test_bundled_dataset_patterns(self):
        from bff.datasets import load_neonatal_births

        data = load_neonatal_births()
        assert data.patterns.shape == (288, 15)
        assert data.trials.sum() == data.n == 2992
        assert data.successes.sum() == data.outcome.sum() == 17
        assert np.all(data.successes <= data.trials)
        # the patterns are exactly the distinct design rows
        rows = {tuple(r) for r in data.design}
        assert len(rows) == 288
        assert rows == {tuple(r) for r in data.patterns}

    def test_fit_map_solves_the_full_design_equations(self):
        data, _ = _repeated_rows(8, 12, 400, 4)
        prec = PRIOR.precisions(data.p)
        fit = fit_map(data, PRIOR)
        _, (grad, grad_scale), (info, info_scale) = _full_design_terms(
            data.design, data.outcome, fit.mode
        )
        assert np.max(np.abs(grad - prec * fit.mode)) < 1e-8
        assert np.all(np.abs(fit.neg_hessian - (info + np.diag(prec))) <= 1e-12 * info_scale)

    @pytest.mark.parametrize(
        "seed,n_samples",
        [
            pytest.param(2, 3000, id="2"),
            pytest.param(9, 3000, id="9"),
            # burn-in of 123 steps: one adaptation, then a partial block
            pytest.param(4, 1234, id="burn-123"),
            # burn-in of 15 steps: the scale never adapts
            pytest.param(5, 150, id="burn-15"),
        ],
    )
    def test_metropolis_matches_full_design_sampler(self, seed, n_samples):
        data, _ = _repeated_rows(seed, 10, 300, 3)
        _assert_matches_reference_sampler(data, PRIOR, n_samples, seed)

    def test_metropolis_matches_full_design_sampler_at_high_acceptance(self):
        # three failures under a nearly flat intercept prior: the posterior
        # is far wider than its Laplace approximation, so most proposals
        # pass and batches often end at their first proposal
        data = GlmDataset(np.ones((3, 1)), np.zeros(3), ("intercept",))
        prior = GlmPrior(coef_variance=0.5, intercept_variance=1e7)
        info = _assert_matches_reference_sampler(data, prior, 600, 2)
        assert info["acceptance_rate"] > 0.6

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=40))
    def test_softplus_matches_logaddexp(self, values):
        eta = np.array(values)
        # exp(-|eta|) underflows to its exact value 0 past |eta| ~ 745 in
        # both forms; overflow, division by zero and NaNs raise
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            got = _softplus(eta)
            want = np.logaddexp(0.0, eta)
        assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want))

    def test_rank_tolerance_counts_every_row(self):
        # smallest singular value 3.7e-14 of the largest: below the
        # tolerance for 4000 rows (8.9e-13), above that for the 5 distinct
        # ones (1.1e-15)
        x1 = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
        base = np.column_stack([np.ones(5), x1, 0.5 * x1 + [0.0, 1e-13, 0.0, -1e-13, 0.0]])
        x = np.repeat(base, 800, axis=0)
        want = _full_design_rank_message(x)
        assert want == "design matrix is rank deficient after standardization"
        with pytest.raises(DomainError, match="^" + want + "$"):
            GlmDataset(x, np.zeros(len(x)), ("intercept", "a", "b"))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),           # columns, intercept included
        st.integers(0, 12),          # distinct rows beyond the column count
        st.integers(0, 60),          # repeated rows
        st.sampled_from(["well", "constant", "collinear", "duplicate", "few-rows"]),
    )
    def test_rank_check_matches_full_design(self, seed, p, extra, repeats, kind):
        rng = np.random.default_rng(seed)
        distinct = p + extra
        if kind == "few-rows":
            distinct = int(rng.integers(1, p + 1))
        # small integers make collinear columns exactly collinear; the
        # well-posed kind mixes in continuous values
        base = rng.integers(-3, 4, size=(distinct, p)).astype(float)
        if kind == "well":
            base[:, 1:] += rng.standard_normal((distinct, p - 1)) * rng.integers(0, 2, p - 1)
        base[:, 0] = 1.0
        j = int(rng.integers(1, p))
        if kind == "constant":
            base[:, j] = rng.choice([0.0, 0.1, 3.0, -7.3])
        elif kind in ("collinear", "duplicate") and p > 2:
            others = [c for c in range(p) if c != j]
            a, b = rng.choice(others, size=2, replace=False)
            ca, cb = (1.0, 0.0) if kind == "duplicate" else rng.integers(-2, 3, size=2)
            base[:, j] = ca * base[:, a] + cb * base[:, b]
        idx = rng.permutation(np.r_[np.arange(distinct), rng.integers(0, distinct, repeats)])
        x = base[idx]
        names = ("intercept", *(f"x{c}" for c in range(1, p)))
        want = _full_design_rank_message(x)
        try:
            GlmDataset(x, np.zeros(len(x)), names)
            got = None
        except DomainError as exc:
            got = str(exc)
        assert got == want


class TestFitMap:
    def test_all_zero_outcome_with_proper_prior(self):
        data = GlmDataset(np.ones((40, 1)), np.zeros(40), ("intercept",))
        fit = fit_map(data, GlmPrior(coef_variance=0.5, intercept_variance=1.0))
        assert fit.converged
        assert math.isfinite(fit.mode[0]) and fit.mode[0] < 0

    def test_recovers_true_coefficients(self):
        data = _synthetic(5000, [-1.0, 0.7, -0.5], seed=99)
        fit = fit_map(data, PRIOR)
        assert fit.converged
        cov = np.linalg.inv(fit.neg_hessian)
        for j, truth in enumerate([-1.0, 0.7, -0.5]):
            sd = math.sqrt(cov[j, j])
            assert abs(fit.mode[j] - truth) <= 3 * sd

    def test_neg_hessian_positive_definite(self):
        fit = fit_map(WELL, PRIOR)
        assert np.all(np.linalg.eigvalsh(fit.neg_hessian) > 0)

    def test_bundled_dataset_converges(self):
        from bff.datasets import load_neonatal_births

        data = load_neonatal_births()
        assert data.p == 15
        fit = fit_map(data, PRIOR)
        assert fit.converged and fit.iterations <= 100
        assert np.all(np.isfinite(fit.mode))

    def test_perfect_separation_diagnostic(self):
        x1 = np.concatenate([np.linspace(-2, -0.1, 20), np.linspace(0.1, 2, 20)])
        design = np.hstack([np.ones((40, 1)), x1[:, None]])
        y = (x1 > 0).astype(float)
        data = GlmDataset(design, y, ("intercept", "x1"))
        with pytest.raises(NumericalError, match="separation"):
            fit_map(data, None)
        # a proper prior regularizes the same data into a finite mode
        fit = fit_map(data, PRIOR)
        assert fit.converged

    def test_design_validation(self):
        with pytest.raises(DomainError):
            GlmDataset(np.zeros((5, 1)), np.zeros(5), ("intercept",))
        with pytest.raises(DomainError):
            GlmDataset(np.ones((5, 1)), np.array([0, 1, 2, 0, 1.0]), ("intercept",))
        consts = np.hstack([np.ones((5, 1)), np.full((5, 1), 3.0)])
        with pytest.raises(DomainError, match="constant"):
            GlmDataset(consts, np.zeros(5), ("intercept", "x1"))
        # a constant whose mean rounds off it is still named as constant
        tenths = np.hstack([np.ones((3, 1)), np.full((3, 1), 0.1)])
        assert np.std(tenths[:, 1]) > 0.0
        with pytest.raises(DomainError, match="column 1 is constant"):
            GlmDataset(tenths, np.zeros(3), ("intercept", "x1"))
        with pytest.raises(DomainError, match="at least one row"):
            GlmDataset(np.ones((0, 2)), np.zeros(0), ("intercept", "x1"))
        for bad in (math.nan, math.inf):
            design = np.array([[1.0, 0.0], [1.0, bad], [1.0, 2.0]])
            with pytest.raises(DomainError, match="finite"):
                GlmDataset(design, np.array([0.0, 1.0, 0.0]), ("intercept", "x1"))


class TestLaplaceMarginal:
    def test_single_coefficient_variance(self):
        data = GlmDataset(np.ones((60, 1)), np.r_[np.ones(20), np.zeros(40)], ("intercept",))
        fit = fit_map(data, GlmPrior(coef_variance=0.5, intercept_variance=2.0))
        dens = laplace_marginal_posterior(fit, 0)
        want_var = 1.0 / float(fit.neg_hessian[0, 0])
        x = fit.mode[0] + 0.3
        got = dens.log_density(x)
        want = -0.5 * math.log(2 * math.pi * want_var) - 0.3**2 / (2 * want_var)
        assert got == pytest.approx(want, rel=1e-12)

    def test_integrates_to_one(self):
        fit = fit_map(WELL, PRIOR)
        dens = laplace_marginal_posterior(fit, 1)
        cov = np.linalg.inv(fit.neg_hessian)
        mu, sd = fit.mode[1], math.sqrt(cov[1, 1])
        total, _ = sp_integrate.quad(
            lambda b: math.exp(dens.log_density(b)), mu - 10 * sd, mu + 10 * sd
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_unconverged_fit_refused(self):
        from bff.glm import MapFit

        bad = MapFit(mode=np.zeros(2), neg_hessian=np.eye(2), converged=False, iterations=100)
        with pytest.raises(ContractError):
            laplace_marginal_posterior(bad, 1)


class TestMetropolis:
    def test_same_seed_identical(self):
        a, _ = metropolis_sample(WELL, PRIOR, n_samples=2000, seed=11)
        b, _ = metropolis_sample(WELL, PRIOR, n_samples=2000, seed=11)
        c, _ = metropolis_sample(WELL, PRIOR, n_samples=2000, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_acceptance_rate_adapted(self):
        _, info = metropolis_sample(WELL, PRIOR, n_samples=20_000, seed=3)
        assert 0.1 <= info["acceptance_rate"] <= 0.4
        assert info["warnings"] == ()

    def test_moments_match_laplace(self):
        samples, _ = metropolis_sample(WELL, PRIOR, n_samples=45_000, seed=7)
        fit = fit_map(WELL, PRIOR)
        cov = np.linalg.inv(fit.neg_hessian)
        for j in range(WELL.p):
            chain = samples[:, j]
            se = _batch_se(chain)
            sd_lap = math.sqrt(cov[j, j])
            # 3 chain SEs plus a small allowance for true posterior skew
            assert abs(chain.mean() - fit.mode[j]) <= 3 * se + 0.05 * sd_lap
            assert chain.std(ddof=1) == pytest.approx(sd_lap, rel=0.1)

    def test_sample_count_validation(self):
        with pytest.raises(DomainError):
            metropolis_sample(WELL, PRIOR, n_samples=50, seed=1)
        with pytest.raises(DomainError, match=str(MAX_SAMPLES)):
            metropolis_sample(WELL, PRIOR, n_samples=MAX_SAMPLES + 1, seed=1)


class TestKde:
    def test_matches_normal_density_in_bulk(self):
        rng = np.random.default_rng(20)
        sample = rng.normal(0.4, 0.15, size=50_000)
        dens = kde_density(sample)
        for b in (0.1, 0.4, 0.7):
            want = -0.5 * math.log(2 * math.pi * 0.15**2) - (b - 0.4) ** 2 / (2 * 0.15**2)
            assert dens.log_density(b) == pytest.approx(want, abs=0.05)

    def test_nan_outside_sample_range(self):
        rng = np.random.default_rng(21)
        dens = kde_density(rng.normal(size=500))
        lo, hi = dens.lower, dens.upper
        assert math.isnan(dens.log_density(hi + 0.1))
        assert math.isnan(dens.log_density(lo - 0.1))

    def test_degenerate_sample_rejected(self):
        with pytest.raises(DomainError):
            kde_density(np.full(100, 2.0))

    def test_windowed_sum_matches_full_sum_on_bundled_draws(self):
        from bff.datasets import load_neonatal_births

        data = load_neonatal_births()
        j = data.coefficient_index("early_age")
        draws = metropolis_sample(data, PRIOR, n_samples=40_000, seed=1)[0][:, j]
        # the CLI's auto grid for --method mcmc, plus points beyond it
        grid = np.r_[np.linspace(draws.min(), draws.max(), 512), draws.min() - 0.1, 9.0]
        want, _ = _full_sum_log_kde(draws, grid)
        got = kde_density(draws).log_density(grid)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= 1e-12

    def test_windowed_sum_matches_full_sum_far_from_the_draws(self):
        rng = np.random.default_rng(22)
        core = rng.normal(0.0, 1.0, 2000)
        _, h = _full_sum_log_kde(core, np.zeros(1))
        # two modes 40 bandwidths apart, and one draw 12 h past the rest
        bimodal = np.r_[core, core + 40 * h]
        lone = np.r_[core, core.max() + 12 * h]
        for sample in (bimodal, lone):
            points = np.linspace(sample.min(), sample.max(), 2001)
            want, _ = _full_sum_log_kde(sample, points)
            got = kde_density(sample).log_density(points)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_points_in_a_gap_of_billions_of_bandwidths(self):
        # the window's half-width rounds to the distance of the nearest
        # draw here; that draw must still be summed
        sample = np.r_[np.linspace(0.0, 1e-9, 1000), 1.0]
        points = np.linspace(0.0, 1.0, 4001)
        want, h = _full_sum_log_kde(sample, points)
        assert 0.3 / h > 1e9
        got = kde_density(sample).log_density(points)
        assert np.all(np.isfinite(got)) and np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_scalar_nan_and_unsorted_points(self):
        rng = np.random.default_rng(23)
        dens = kde_density(rng.normal(size=3000))
        points = np.linspace(dens.lower - 0.5, dens.upper + 0.5, 301)
        values = dens.log_density(points)
        scalar = dens.log_density(0.25)
        assert isinstance(scalar, float)
        assert scalar == dens.log_density(np.array([0.25]))[0]
        outside = (points < dens.lower) | (points > dens.upper)
        assert np.all(np.isnan(values[outside])) and np.all(np.isfinite(values[~outside]))
        assert math.isnan(dens.log_density(math.nan))
        assert np.isnan(dens.log_density(np.array([0.0, math.nan, 0.5]))[1])
        order = rng.permutation(len(points))
        assert np.array_equal(dens.log_density(points[order]), values[order], equal_nan=True)


class TestCoefficientBff:
    def test_intercept_refused(self):
        with pytest.raises(ContractError, match="intercept"):
            glm_coefficient_bff(WELL, PRIOR, 0, method="laplace")

    def test_unknown_method_and_bad_index(self):
        with pytest.raises(DomainError):
            glm_coefficient_bff(WELL, PRIOR, 1, method="grid")
        with pytest.raises(DomainError):
            glm_coefficient_bff(WELL, PRIOR, 9, method="laplace")

    def test_no_information_gives_unit_bff(self):
        # six balanced observations with a microscopic covariate: the
        # posterior barely moves off the prior, so BF01(0) ~ 1
        x1 = np.array([1e-3, -1e-3] * 6)
        design = np.hstack([np.ones((12, 1)), x1[:, None]])
        y = np.array([0, 1] * 6, dtype=float)
        data = GlmDataset(design, y, ("intercept", "x1"))
        model = glm_coefficient_bff(data, PRIOR, 1, method="laplace")
        assert abs(model.log_bff(0.0)) <= 0.1

    def test_laplace_close_to_univariate_normal(self):
        lap = glm_coefficient_bff(WELL, PRIOR, 1, method="laplace")
        uni = glm_coefficient_bff(WELL, PRIOR, 1, method="univariate-normal")
        fit = fit_map(WELL, None)
        se = math.sqrt(np.linalg.inv(fit.neg_hessian)[1, 1])
        xs = np.linspace(fit.mode[1] - 2 * se, fit.mode[1] + 2 * se, 41)
        diff = np.abs(lap.log_bff(xs) - uni.log_bff(xs))
        assert float(np.max(diff)) <= 0.2

    def test_mcmc_curve_truncated_outside_sample(self):
        rng = np.random.default_rng(33)
        fake = np.column_stack([rng.normal(-1.2, 0.1, 5000), rng.normal(0.6, 0.1, 5000)])
        model = glm_coefficient_bff(WELL, PRIOR, 1, method="mcmc", samples=fake)
        curve = evaluate_curve(model, GridSpec.one_dim(0.0, 1.2, points=61))
        assert any("truncated-curve" in w for w in curve.warnings)

    def test_kde_mee_stable_under_sample_doubling(self):
        # KDE mode noise is O(h) no matter the sample size, so compare
        # nested halves of one chain; the seed pins the chain realization
        data = _synthetic(400, [-0.8, 0.5], seed=55)
        samples, _ = metropolis_sample(data, PRIOR, n_samples=200_000, seed=14)
        fit = fit_map(data, PRIOR)
        sd = math.sqrt(np.linalg.inv(fit.neg_hessian)[1, 1])
        grid = GridSpec.one_dim(fit.mode[1] - 3 * sd, fit.mode[1] + 3 * sd, points=301)
        mees = {}
        for tag, draws in (("half", samples[: len(samples) // 2]), ("full", samples)):
            model = glm_coefficient_bff(data, PRIOR, 1, method="mcmc", samples=draws)
            res = find_mee(model, grid)
            assert res.exists
            mees[tag] = res.theta_hat[0]
        # Silverman bandwidth of the smaller sample is the yardstick
        kde = kde_density(samples[: len(samples) // 2, 1])
        h = float(kde.descriptor.split("h=")[1].rstrip(")"))
        assert abs(mees["full"] - mees["half"]) < h

    @pytest.mark.parametrize("method,prior", [("laplace", PRIOR), ("univariate-normal", None)])
    def test_supplied_fit_is_used(self, monkeypatch, method, prior):
        want = glm_coefficient_bff(WELL, PRIOR, 1, method=method)
        fit = fit_map(WELL, prior)

        def refuse(*args, **kwargs):
            raise AssertionError("fit_map called although a fit was supplied")

        monkeypatch.setattr(glm_module, "fit_map", refuse)
        got = glm_coefficient_bff(WELL, PRIOR, 1, method=method, fit=fit)
        assert got.descriptor == want.descriptor == f"logistic[x1] via {method}"
        xs = np.linspace(-0.5, 1.5, 41)
        assert np.array_equal(got.log_bff(xs), want.log_bff(xs))

    def test_savage_dickey_identity_for_laplace_path(self):
        fit = fit_map(WELL, PRIOR)
        post = laplace_marginal_posterior(fit, 2)
        prior_d = global_prior_density(0.0, PRIOR.coef_variance)
        direct = savage_dickey_bff(post, prior_d)
        model = glm_coefficient_bff(WELL, PRIOR, 2, method="laplace")
        xs = np.linspace(-1.0, 0.5, 101)
        assert np.allclose(model.log_bff(xs), direct.log_bff(xs), atol=1e-12)


class TestCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text(
            "outcome,age,weight\n1,0.5,-0.2\n0,1.0,0.1\n0,-0.4,0.9\n1,0.1,0.3\n",
            encoding="utf-8",
        )
        data = read_glm_csv(p)
        assert data.names == ("intercept", "age", "weight")
        assert data.n == 4 and data.p == 3
        assert np.all(data.design[:, 0] == 1.0)
        assert data.coefficient_index("weight") == 2

    def test_missing_outcome_column(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("age,weight\n0.5,-0.2\n", encoding="utf-8")
        with pytest.raises(DomainError, match="outcome"):
            read_glm_csv(p)

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("outcome,age\n1,0.5\n0,oops\n", encoding="utf-8")
        with pytest.raises(DomainError, match=":3"):
            read_glm_csv(p)

    def test_column_count_mismatch_located(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("outcome,age,weight\n1,0.5,-0.2\n0,1.0\n", encoding="utf-8")
        with pytest.raises(DomainError, match=r"obs\.csv:3: expected 3 columns, got 2$"):
            read_glm_csv(p)
        # every row one column too wide: the array parse succeeds, the
        # header check still names the first data line
        p.write_text("outcome,age\n1,0.5,7\n0,1.0,8\n", encoding="utf-8")
        with pytest.raises(DomainError, match=r"obs\.csv:2: expected 2 columns, got 3$"):
            read_glm_csv(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text(
            "age,outcome,weight\n\n1.5,1,-0.2\n   \n,,\n-0.5,0,0.1\r\n2.0,0,0.25\n\n",
            encoding="utf-8",
        )
        data = read_glm_csv(p)
        assert data.names == ("intercept", "age", "weight")
        assert np.array_equal(data.outcome, [1.0, 0.0, 0.0])
        assert np.array_equal(data.design, [[1, 1.5, -0.2], [1, -0.5, 0.1], [1, 2.0, 0.25]])
        p.write_text("outcome,age\n\n , \n", encoding="utf-8")
        with pytest.raises(DomainError, match="no data rows"):
            read_glm_csv(p)
        p.write_text("outcome,age\n1,0.5\n\n0,oops\n", encoding="utf-8")
        with pytest.raises(DomainError, match=r":4: non-numeric value"):
            read_glm_csv(p)

    def test_byte_order_mark_and_empty_file(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_bytes(b"\xef\xbb\xbfoutcome,age\r\n1,0.5\r\n0,-1.5\r\n")
        data = read_glm_csv(p)
        assert data.names == ("intercept", "age")
        assert np.array_equal(data.design[:, 1], [0.5, -1.5])
        p.write_bytes(b"\xef\xbb\xbf")
        with pytest.raises(DomainError, match=r"obs\.csv: empty file$"):
            read_glm_csv(p)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60), st.integers(1, 17))
    def test_values_match_python_float(self, tmp_path_factory, values, digits):
        # repr round-trips exactly; the %g forms need correct rounding
        cells = [repr(v) if i % 2 else f"{v:.{digits}g}" for i, v in enumerate(values)]
        # three fixed rows keep the design of full rank whatever was drawn
        lines = ["a,outcome,b", "0,0,1", "1,1,0", "0,0,0"] + [
            f"{cells[i]},{i % 2},{cells[i + 1]}" for i in range(0, len(cells) - 1, 2)
        ]
        p = tmp_path_factory.mktemp("csv") / "obs.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
        want = np.array([[1.0, r[0], r[2]] for r in want])
        got = read_glm_csv(p).design
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_bundled_dataset_shape(self):
        from bff.datasets import load_neonatal_births

        data = load_neonatal_births()
        assert data.n == 2992
        assert int(data.outcome.sum()) == 17
        assert "hydramnios" in data.names and "early_age" in data.names
