"""Engine tests: curve evaluation, MEE search, support sets, density-ratio
construction, the Laplace approximation, and the evidence algebra."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import stats

from bff import (
    BffCurve,
    BffModel,
    ContractError,
    DensityFn,
    DomainError,
    GridSpec,
    MeeResult,
    NumericalError,
    analyze,
    combine_sequential,
    evaluate_curve,
    find_mee,
    laplace_log_bff,
    relative_belief_ratio,
    savage_dickey_bff,
    support_region,
    support_set,
    universal_bound_pvalue,
)
from bff.engine import MAX_GRID_POINTS, _boundary_is_artificial, _support_region
from bff.normal import (
    GlobalNormalPrior,
    LocalNormalPrior,
    NormalSummary,
    PointShiftPrior,
    conjugate_posterior_density,
    global_prior_density,
    normal_bff,
    normal_closed_summaries,
)

# recovery-rate working example used throughout: estimate, its standard
# error, and the fitted global normal prior
Y, SIGMA, M, V = -0.14, 0.064, -0.56, 0.0144


def recovery_model():
    return normal_bff(NormalSummary(Y, SIGMA), GlobalNormalPrior(M, V))


class TestGridSpec:
    def test_rejects_too_few_points(self):
        with pytest.raises(ContractError):
            GridSpec.one_dim(0.0, 1.0, points=2)

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ContractError):
            GridSpec.one_dim(1.0, 1.0)
        with pytest.raises(ContractError):
            GridSpec.one_dim(0.0, math.inf)

    def test_rejects_grids_above_the_point_cap(self):
        # checked before np.linspace allocates anything
        with pytest.raises(ContractError, match=str(MAX_GRID_POINTS)):
            GridSpec.one_dim(0.0, 1.0, points=10**12)
        with pytest.raises(ContractError, match="4000000 points"):
            GridSpec.two_dim((0.0, 0.0), (1.0, 1.0), (2000, 2000))
        assert GridSpec.two_dim((0.0, 0.0), (1.0, 1.0), (1000, 1000)).points == (1000, 1000)

    def test_two_dim_axes(self):
        g = GridSpec.two_dim((0.0, -1.0), (1.0, 1.0), (5, 9))
        ax, ay = g.axes()
        assert len(ax) == 5 and len(ay) == 9
        assert ax[0] == 0.0 and ay[-1] == 1.0


class TestEvaluateCurve:
    def test_matches_quadrature_oracle(self):
        # marginal likelihood by direct integration, no closed form
        model = recovery_model()
        grid = GridSpec.one_dim(-0.3, 0.1, points=3)
        curve = evaluate_curve(model, grid)
        for t, got in zip(curve.axes[0], curve.log_bf):
            num = stats.norm.pdf(Y, loc=t, scale=SIGMA)
            den, _ = sp_integrate.quad(
                lambda th: stats.norm.pdf(Y, loc=th, scale=SIGMA)
                * stats.norm.pdf(th, loc=M, scale=math.sqrt(V)),
                -3.0,
                3.0,
            )
            assert got == pytest.approx(math.log(num) - math.log(den), abs=1e-8)

    def test_values_equal_pointwise_calls(self):
        model = recovery_model()
        grid = GridSpec.one_dim(-0.6, 0.2, points=41)
        curve = evaluate_curve(model, grid)
        for (pt,), v in curve.rows():
            assert v == float(model.log_bff(pt))

    def test_deterministic_across_runs(self):
        model = recovery_model()
        grid = GridSpec.one_dim(-0.6, 0.2, points=129)
        a = evaluate_curve(model, grid)
        b = evaluate_curve(model, grid)
        assert np.array_equal(a.log_bf, b.log_bf)

    def test_grid_max_near_estimate(self):
        model = recovery_model()
        grid = GridSpec.one_dim(-0.6, 0.2, points=401)
        curve = evaluate_curve(model, grid)
        x_star = curve.axes[0][int(np.argmax(curve.log_bf))]
        step = curve.axes[0][1] - curve.axes[0][0]
        assert abs(x_star - Y) <= step

    def test_failure_names_grid_point(self):
        def log_bff(x):
            arr = np.asarray(x, dtype=float)
            if np.any(arr > 0.5):
                raise NumericalError("overflow in tail mass")
            return -(arr**2)

        model = BffModel(log_bff=log_bff, lower=(-math.inf,), upper=(math.inf,), descriptor="fragile")
        with pytest.raises(NumericalError, match=r"at grid point 0\.75"):
            evaluate_curve(model, GridSpec.one_dim(0.0, 1.0, points=5))

    def test_nan_values_flag_truncated_curve(self):
        def log_bff(x):
            arr = np.asarray(x, dtype=float)
            return np.where(arr <= 0.5, -arr, np.nan)

        model = BffModel(log_bff=log_bff, lower=(-math.inf,), upper=(math.inf,), descriptor="cut")
        curve = evaluate_curve(model, GridSpec.one_dim(0.0, 1.0, points=11))
        assert any("truncated-curve" in w for w in curve.warnings)
        assert np.isnan(curve.log_bf[-1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractError):
            evaluate_curve(recovery_model(), GridSpec.two_dim((0, 0), (1, 1), (5, 5)))

    def test_two_dim_rows_row_major(self):
        f = lambda p: -(p[0] ** 2) - 2.0 * p[1] ** 2
        model = BffModel(log_bff=f, lower=(-2.0, -2.0), upper=(2.0, 2.0), descriptor="quad2", dim=2)
        grid = GridSpec.two_dim((-1.0, -1.0), (1.0, 1.0), (3, 5))
        curve = evaluate_curve(model, grid)
        rows = list(curve.rows())
        assert len(rows) == 15
        for (x, y), v in rows:
            assert v == pytest.approx(f((x, y)), abs=0.0)
        # first axis varies slowest
        assert rows[0][0][0] == rows[4][0][0] == -1.0
        assert rows[5][0][0] == 0.0

    def test_scalar_output_for_array_input_is_contract_error(self):
        one = BffModel(log_bff=lambda x: 0.5, lower=(0.0,), upper=(1.0,), descriptor="scalar-1d")
        with pytest.raises(ContractError, match="scalar-1d"):
            evaluate_curve(one, GridSpec.one_dim(0.0, 1.0, points=11))
        two = BffModel(
            log_bff=lambda p: float(p[0][0]), lower=(0.0, 0.0), upper=(1.0, 1.0),
            descriptor="scalar-2d", dim=2,
        )
        with pytest.raises(ContractError, match="scalar-2d"):
            evaluate_curve(two, GridSpec.two_dim((0.0, 0.0), (1.0, 1.0), (3, 4)))

    def test_two_dim_grid_is_one_call_on_rows(self):
        shapes = []

        def f(p):
            shapes.append(np.shape(p))
            return p[0] - 10.0 * p[1]

        model = BffModel(log_bff=f, lower=(0.0, 0.0), upper=(1.0, 1.0), descriptor="plane", dim=2)
        curve = evaluate_curve(model, GridSpec.two_dim((0.0, 0.0), (1.0, 1.0), (3, 5)))
        assert shapes == [(2, 15)]
        ax, ay = curve.axes
        assert np.array_equal(curve.log_bf, ax[:, None] - 10.0 * ay[None, :])

    def test_empty_descriptor_rejected(self):
        with pytest.raises(ContractError):
            BffModel(log_bff=lambda x: x, lower=(0.0,), upper=(1.0,), descriptor="")


class TestFindMee:
    def test_global_prior_maximizer_is_estimate(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            y = rng.uniform(-3, 3)
            sigma = rng.uniform(0.05, 2.0)
            m = rng.uniform(-3, 3)
            v = rng.uniform(0.01, 4.0)
            model = normal_bff(NormalSummary(y, sigma), GlobalNormalPrior(m, v))
            grid = GridSpec.one_dim(y - 5.0, y + 5.0, points=801)
            res = find_mee(model, grid)
            assert res.exists and not res.boundary
            assert abs(res.theta_hat[0] - y) <= 1e-7
            expected = 0.5 * math.log1p(v / sigma**2) + (y - m) ** 2 / (2 * (sigma**2 + v))
            assert res.log_k_me == pytest.approx(expected, abs=1e-9)

    def test_refinement_beats_grid_resolution(self):
        peak = 0.3141592653589793
        model = BffModel(
            log_bff=lambda x: -((np.asarray(x, dtype=float) - peak) ** 2),
            lower=(-math.inf,),
            upper=(math.inf,),
            descriptor="offgrid-peak",
        )
        res = find_mee(model, GridSpec.one_dim(-1.0, 1.0, points=101))
        assert abs(res.theta_hat[0] - peak) <= 5e-8

    def test_multimodal_returns_global_maximum(self):
        def log_bff(x):
            t = np.asarray(x, dtype=float)
            return np.maximum(-((t + 1.0) ** 2), 0.3 - 2.0 * (t - 1.0) ** 2)

        model = BffModel(log_bff=log_bff, lower=(-math.inf,), upper=(math.inf,), descriptor="bimodal")
        res = find_mee(model, GridSpec.one_dim(-3.0, 3.0, points=301))
        assert res.exists
        assert res.theta_hat[0] == pytest.approx(1.0, abs=1e-6)
        assert res.log_k_me == pytest.approx(0.3, abs=1e-9)

    def test_point_shift_has_no_mee(self):
        model = normal_bff(NormalSummary(Y, SIGMA), PointShiftPrior(0.9))
        res = find_mee(model, GridSpec.one_dim(-2.0, 2.0, points=201))
        assert not res.exists and res.boundary
        assert res.theta_hat is None and res.k_me is None
        assert "increasing" in res.diagnostic and "upper" in res.diagnostic

    def test_closed_domain_boundary_maximum_is_genuine(self):
        # decreasing on [0, inf): the boundary max at 0 belongs to the space
        model = BffModel(
            log_bff=lambda x: -np.asarray(x, dtype=float),
            lower=(0.0,),
            upper=(math.inf,),
            descriptor="decay",
        )
        res = find_mee(model, GridSpec.one_dim(0.0, 5.0, points=401))
        assert res.exists and not res.boundary
        assert res.theta_hat[0] == pytest.approx(0.0, abs=1e-6)

    def test_artificial_truncation_is_flagged(self):
        # same shape, but the domain extends below the searched range
        model = BffModel(
            log_bff=lambda x: -np.asarray(x, dtype=float),
            lower=(-math.inf,),
            upper=(math.inf,),
            descriptor="decay-open",
        )
        res = find_mee(model, GridSpec.one_dim(0.0, 5.0, points=401))
        assert not res.exists and res.boundary
        assert "lower" in res.diagnostic

    def test_two_dim_gaussian_bump(self):
        f = lambda p: 0.4 - 25.0 * (p[0] - 0.3) ** 2 - 12.5 * (p[1] - 0.7) ** 2
        model = BffModel(log_bff=f, lower=(0.0, 0.0), upper=(1.5, 1.5), descriptor="bump2", dim=2)
        res = find_mee(model, GridSpec.two_dim((0.0, 0.0), (1.5, 1.5), (41, 41)))
        assert res.exists
        assert res.theta_hat[0] == pytest.approx(0.3, abs=1e-6)
        assert res.theta_hat[1] == pytest.approx(0.7, abs=1e-6)
        assert res.log_k_me == pytest.approx(0.4, abs=1e-10)

    def test_two_dim_boundary_flag(self):
        f = lambda p: p[0] + p[1]
        model = BffModel(
            log_bff=f, lower=(-math.inf, -math.inf), upper=(math.inf, math.inf),
            descriptor="ramp2", dim=2,
        )
        res = find_mee(model, GridSpec.two_dim((0.0, 0.0), (1.0, 1.0), (11, 11)))
        assert not res.exists and res.boundary
        assert "upper" in res.diagnostic


class TestSupportSet:
    def test_matches_closed_form_interval(self):
        model = recovery_model()
        got = support_set(model, 1.0, GridSpec.one_dim(-0.6, 0.2, points=2001))
        _, want = normal_closed_summaries(
            NormalSummary(Y, SIGMA), GlobalNormalPrior(M, V), 1.0
        )
        assert len(got.intervals) == 1
        assert got.intervals[0].lower == pytest.approx(want.intervals[0].lower, abs=1e-8)
        assert got.intervals[0].upper == pytest.approx(want.intervals[0].upper, abs=1e-8)

    def test_level_above_peak_is_empty(self):
        model = recovery_model()
        mee = find_mee(model, GridSpec.one_dim(-0.6, 0.2, points=401))
        got = support_set(model, mee.k_me * 1.001, GridSpec.one_dim(-0.6, 0.2, points=401))
        assert got.empty

    def test_duality_with_mee(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            y = rng.uniform(-2, 2)
            sigma = rng.uniform(0.1, 1.5)
            if rng.uniform() < 0.5:
                prior = GlobalNormalPrior(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
            else:
                prior = LocalNormalPrior(rng.uniform(0.05, 2.0))
            model = normal_bff(NormalSummary(y, sigma), prior)
            grid = GridSpec.one_dim(y - 6 * sigma, y + 6 * sigma, points=601)
            mee = find_mee(model, grid)
            k_in = mee.k_me * rng.uniform(0.2, 0.999)
            s = support_set(model, k_in, grid)
            assert any(iv.lower <= mee.theta_hat[0] <= iv.upper for iv in s.intervals)
            above = support_set(model, mee.k_me * 1.01, grid)
            assert above.empty

    def test_nesting_in_k(self):
        rng = np.random.default_rng(11)
        model = recovery_model()
        grid = GridSpec.one_dim(-0.6, 0.2, points=801)
        k_me = find_mee(model, grid).k_me
        for _ in range(20):
            k1, k2 = sorted(rng.uniform(0.05, 0.95, size=2) * k_me)
            s1 = support_set(model, k1, grid)
            s2 = support_set(model, k2, grid)
            for iv2 in s2.intervals:
                assert any(
                    iv1.lower - 1e-9 <= iv2.lower and iv2.upper <= iv1.upper + 1e-9
                    for iv1 in s1.intervals
                )

    def test_unbounded_edge_warned(self):
        model = normal_bff(NormalSummary(Y, SIGMA), PointShiftPrior(0.9))
        got = support_set(model, 1.0, GridSpec.one_dim(-2.0, 2.0, points=801))
        _, want = normal_closed_summaries(NormalSummary(Y, SIGMA), PointShiftPrior(0.9), 1.0)
        assert len(got.intervals) == 1
        iv = got.intervals[0]
        assert iv.upper_unbounded and iv.upper == 2.0
        assert iv.lower == pytest.approx(want.intervals[0].lower, abs=1e-7)
        assert any("unbounded-si-edge" in w for w in got.warnings)

    def test_disconnected_support(self):
        def log_bff(x):
            t = np.asarray(x, dtype=float)
            return np.maximum(-((t + 1.0) ** 2), 0.3 - 2.0 * (t - 1.0) ** 2)

        model = BffModel(log_bff=log_bff, lower=(-math.inf,), upper=(math.inf,), descriptor="bimodal")
        s = support_set(model, math.exp(-0.5), GridSpec.one_dim(-3.0, 3.0, points=1201))
        assert len(s.intervals) == 2
        lo1, hi1 = -1.0 - math.sqrt(0.5), -1.0 + math.sqrt(0.5)
        lo2, hi2 = 1.0 - math.sqrt(0.4), 1.0 + math.sqrt(0.4)
        assert s.intervals[0].lower == pytest.approx(lo1, abs=1e-7)
        assert s.intervals[0].upper == pytest.approx(hi1, abs=1e-7)
        assert s.intervals[1].lower == pytest.approx(lo2, abs=1e-7)
        assert s.intervals[1].upper == pytest.approx(hi2, abs=1e-7)
        # every interior point clears the threshold
        for iv in s.intervals:
            xs = np.linspace(iv.lower + 1e-6, iv.upper - 1e-6, 50)
            assert np.all(log_bff(xs) >= -0.5 - 1e-9)

    def test_bad_level_rejected(self):
        model = recovery_model()
        grid = GridSpec.one_dim(-0.6, 0.2, points=11)
        for k in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                support_set(model, k, grid)


class TestSupportRegion:
    def test_circular_level_set(self):
        f = lambda p: -0.5 * (p[0] ** 2 + p[1] ** 2)
        model = BffModel(
            log_bff=f, lower=(-math.inf, -math.inf), upper=(math.inf, math.inf),
            descriptor="bowl", dim=2,
        )
        grid = GridSpec.two_dim((-3.0, -3.0), (3.0, 3.0), (61, 61))
        mask, segments = support_region(model, math.exp(-0.5), grid)
        ax, ay = grid.axes()
        for i, x in enumerate(ax):
            for j, y in enumerate(ay):
                r2 = x * x + y * y
                if abs(r2 - 1.0) > 1e-9:
                    assert mask[i, j] == (r2 < 1.0)
        assert segments, "contour should be non-empty"
        for (x1, y1), (x2, y2) in segments:
            for x, y in ((x1, y1), (x2, y2)):
                assert math.hypot(x, y) == pytest.approx(1.0, abs=0.02)

    def test_level_above_max_empty(self):
        f = lambda p: -0.5 * (p[0] ** 2 + p[1] ** 2)
        model = BffModel(
            log_bff=f, lower=(-math.inf, -math.inf), upper=(math.inf, math.inf),
            descriptor="bowl", dim=2,
        )
        mask, segments = support_region(model, 1.5, GridSpec.two_dim((-2, -2), (2, 2), (31, 31)))
        assert not mask.any() and not segments

    def test_requires_two_dim_model(self):
        with pytest.raises(ContractError):
            support_region(recovery_model(), 1.0, GridSpec.two_dim((0, 0), (1, 1), (5, 5)))


def _bimodal(t):
    t = np.asarray(t, dtype=float)
    return np.maximum(-((t + 1.0) ** 2), 0.3 - 2.0 * (t - 1.0) ** 2)


class TestAnalyze:
    def test_one_grid_call_and_one_call_per_bisection_step(self):
        calls = []

        def log_bff(x):
            calls.append(np.shape(x))
            return _bimodal(x)

        model = BffModel(log_bff=log_bff, lower=(-math.inf,), upper=(math.inf,), descriptor="bimodal")
        grid = GridSpec.one_dim(-3.0, 3.0, points=1201)
        ks = (math.exp(-0.5), math.exp(-0.8))
        curve, mee, supports = analyze(model, grid, ks)
        assert calls[0] == (1201,)
        # the MEE is refined before the levels are bisected
        split = calls.index((8,))
        golden, batches = calls[1:split], calls[split:]
        # both grid maxima refine together, one probe each per call: two
        # starting calls and about 25 steps from 0.01 wide to 6e-8, where
        # one bracket at a time would take twice as many calls
        assert all(c == (2,) for c in golden)
        assert 20 <= len(golden) <= 30
        # two levels with two intervals each: eight crossings per step, and
        # bisection from a 0.005-wide bracket to 6e-10 takes 23 steps
        assert 20 <= len(batches) <= 26
        assert all(len(c) == 1 and c[0] <= 8 for c in batches)
        assert [len(s.intervals) for s in supports] == [2, 2]
        for k, s in zip(ks, supports):
            lone = support_set(model, k, grid)
            assert s == lone
        assert mee.theta_hat[0] == pytest.approx(1.0, abs=1e-6)

    def test_wrappers_agree_with_analyze(self):
        model = recovery_model()
        grid = GridSpec.one_dim(-0.6, 0.2, points=301)
        curve, mee, (s1, s2) = analyze(model, grid, (1.0, 20.0))
        assert np.array_equal(curve.log_bf, evaluate_curve(model, grid).log_bf)
        assert mee == find_mee(model, grid)
        assert s1 == support_set(model, 1.0, grid)
        assert s2 == support_set(model, 20.0, grid)

    def test_two_dim_returns_region_per_level(self):
        f = lambda p: -0.5 * (p[0] ** 2 + p[1] ** 2)
        model = BffModel(
            log_bff=f, lower=(-math.inf, -math.inf), upper=(math.inf, math.inf),
            descriptor="bowl", dim=2,
        )
        grid = GridSpec.two_dim((-3.0, -3.0), (3.0, 3.0), (31, 31))
        _, mee, regions = analyze(model, grid, (math.exp(-0.5), 2.0))
        assert mee.theta_hat == pytest.approx((0.0, 0.0), abs=1e-6)
        (mask, segments), (mask_above, segments_above) = regions
        want_mask, want_segments = support_region(model, math.exp(-0.5), grid)
        assert np.array_equal(mask, want_mask) and segments == want_segments
        assert not mask_above.any() and not segments_above

    def test_bad_level_rejected_before_evaluation(self):
        calls = []
        model = BffModel(
            log_bff=lambda x: calls.append(1) or -np.asarray(x) ** 2,
            lower=(-math.inf,), upper=(math.inf,), descriptor="count",
        )
        with pytest.raises(DomainError):
            analyze(model, GridSpec.one_dim(-1.0, 1.0, points=11), (1.0, -2.0))
        assert not calls

    @settings(max_examples=200, deadline=None)
    @given(
        y=st.floats(-3.0, 3.0),
        sigma=st.floats(0.05, 2.0),
        local=st.booleans(),
        m=st.floats(-3.0, 3.0),
        v=st.floats(0.01, 4.0),
        # fractions of k_ME: below it (the set is an interval wide enough to
        # hold grid points) or above it (the set is empty)
        fractions=st.lists(
            st.one_of(st.floats(1e-3, 0.99), st.floats(1.01, 100.0)), min_size=1, max_size=5
        ),
    )
    def test_properties_on_normal_models(self, y, sigma, local, m, v, fractions):
        data = NormalSummary(y, sigma)
        prior = LocalNormalPrior(v) if local else GlobalNormalPrior(m, v)
        k_me = normal_closed_summaries(data, prior, 1.0)[0].k_me
        # levels are ratios: near a k_ME beyond e^709 none can be written down
        assume(math.isfinite(k_me * max(fractions)))
        ks = [f * k_me for f in fractions]
        closed = [normal_closed_summaries(data, prior, k)[1] for k in ks]
        width = 8.0 * sigma
        for s in closed:
            if s.intervals:
                width = max(width, 1.3 * (s.intervals[0].upper - y) + 2.0 * sigma)
        grid = GridSpec.one_dim(y - width, y + width, points=512)
        span = 2.0 * width
        _, mee, supports = analyze(normal_bff(data, prior), grid, ks)

        # MEE and k_ME agree with the closed form.  Golden section stops at
        # 1e-8 of the range, unless rounding of log BF01 (ulps of log k_ME)
        # flattens the peak over a wider stretch
        curvature = 0.5 / (sigma**2 * (1.0 + sigma**2 / v)) if local else 0.5 / sigma**2
        flat = math.sqrt(8.0 * np.finfo(float).eps * max(1.0, math.log(k_me)) / curvature)
        assert mee.exists and not mee.boundary
        assert mee.theta_hat[0] == pytest.approx(y, abs=1e-8 * span + flat)
        assert mee.log_k_me == pytest.approx(math.log(k_me), abs=1e-9)
        # k-sets agree with the closed form, ends to the bisection tolerance
        for got, want in zip(supports, closed):
            assert len(got.intervals) == len(want.intervals)
            for a, b in zip(got.intervals, want.intervals):
                assert a.lower == pytest.approx(b.lower, abs=1e-10 * span)
                assert a.upper == pytest.approx(b.upper, abs=1e-10 * span)
        # S_k shrinks as k grows
        order = sorted(range(len(ks)), key=lambda i: ks[i])
        for lo, hi in zip(order, order[1:]):
            for inner in supports[hi].intervals:
                assert any(
                    outer.lower - 1e-10 * span <= inner.lower
                    and inner.upper <= outer.upper + 1e-10 * span
                    for outer in supports[lo].intervals
                )
        # the MEE lies in S_k for every k <= k_ME
        for k, s in zip(ks, supports):
            if k <= mee.k_me:
                assert any(iv.lower <= mee.theta_hat[0] <= iv.upper for iv in s.intervals)


# Reference implementations: the MEE refinement and the contouring as the
# engine did them one bracket and one cell at a time, before both moved
# onto arrays.  The array versions must reproduce them bit for bit.

_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def _is_local_max(vals: np.ndarray, i: int) -> bool:
    left = vals[i - 1] if i > 0 else -np.inf
    right = vals[i + 1] if i < len(vals) - 1 else -np.inf
    return np.isfinite(vals[i]) and vals[i] >= left and vals[i] >= right


def _golden_max(f, a: float, b: float, tol: float):
    """Golden-section maximization on [a, b]; returns (x, f(x))."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def _reference_find_mee_1d(model, grid):
    """The 1-D MEE search with one golden section per grid maximum; the
    model is called on one-point arrays, as the engine calls it."""
    curve = evaluate_curve(model, grid)
    xs = curve.axes[0]
    vals = curve.log_bf
    finite = np.isfinite(vals)
    if not finite.any():
        raise NumericalError("log BF01 is not finite anywhere on the search grid")
    masked = np.where(finite, vals, -np.inf)
    n = len(xs)
    step = xs[1] - xs[0]
    tol = 1e-8 * (grid.upper[0] - grid.lower[0])
    f = lambda x: float(model.log_bff(np.array([x]))[0])

    # refine every grid-local maximum; the global one wins
    candidates = [i for i in range(n) if _is_local_max(masked, i)]
    i_star = int(np.argmax(masked))
    if i_star not in candidates:
        candidates.append(i_star)
    x_hat, f_hat = float(xs[i_star]), float(masked[i_star])
    for i in candidates:
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, n - 1)]
        x_ref, f_ref = _golden_max(f, float(lo), float(hi), tol)
        if f_ref > f_hat:
            x_hat, f_hat = x_ref, f_ref

    for side, edge in (("lower", float(xs[0])), ("upper", float(xs[-1]))):
        near = abs(x_hat - edge) <= step
        if not near:
            continue
        h = max(tol, 1e-7 * (grid.upper[0] - grid.lower[0]))
        inward = edge + h if side == "lower" else edge - h
        climbing = f(edge) > f(inward)
        if climbing and _boundary_is_artificial(model, 0, side, edge):
            return MeeResult(
                exists=False,
                theta_hat=None,
                k_me=None,
                log_k_me=None,
                boundary=True,
                diagnostic=(
                    f"log BF01 is still increasing at the {side} search boundary "
                    f"{edge:g}; no maximum evidence estimate in the searched region"
                ),
            )
    return MeeResult(
        exists=True,
        theta_hat=(float(x_hat),),
        k_me=float(np.exp(f_hat)),
        log_k_me=float(f_hat),
        boundary=False,
    )


def _reference_support_region(curve: BffCurve, k: float):
    t_ax, u_ax = curve.axes
    g = curve.log_bf - math.log(k)
    g = np.where(np.isnan(g), -np.inf, g)
    mask = g >= 0.0

    def interp(x1, x2, v1, v2):
        if v1 == v2:
            return 0.5 * (x1 + x2)
        w = v1 / (v1 - v2)
        return x1 + w * (x2 - x1)

    segments = []
    for i in range(len(t_ax) - 1):
        for j in range(len(u_ax) - 1):
            corners = (g[i, j], g[i + 1, j], g[i + 1, j + 1], g[i, j + 1])
            if not all(np.isfinite(c) or c == -np.inf for c in corners):
                continue
            signs = [c >= 0.0 for c in corners]
            if all(signs) or not any(signs):
                continue
            x_lo, x_hi = t_ax[i], t_ax[i + 1]
            y_lo, y_hi = u_ax[j], u_ax[j + 1]
            pts = []
            # edge (i,j)-(i+1,j)
            if signs[0] != signs[1] and np.isfinite(corners[0]) and np.isfinite(corners[1]):
                pts.append((interp(x_lo, x_hi, corners[0], corners[1]), y_lo))
            # edge (i+1,j)-(i+1,j+1)
            if signs[1] != signs[2] and np.isfinite(corners[1]) and np.isfinite(corners[2]):
                pts.append((x_hi, interp(y_lo, y_hi, corners[1], corners[2])))
            # edge (i,j+1)-(i+1,j+1)
            if signs[3] != signs[2] and np.isfinite(corners[3]) and np.isfinite(corners[2]):
                pts.append((interp(x_lo, x_hi, corners[3], corners[2]), y_hi))
            # edge (i,j)-(i,j+1)
            if signs[0] != signs[3] and np.isfinite(corners[0]) and np.isfinite(corners[3]):
                pts.append((x_lo, interp(y_lo, y_hi, corners[0], corners[3])))
            if len(pts) >= 2:
                segments.append((pts[0], pts[1]))
            if len(pts) == 4:
                segments.append((pts[2], pts[3]))
    return mask, segments


def _outcome(fn):
    """repr of fn's result (exact for floats, and -0.0 apart from 0.0), or
    the type and message of what it raised."""
    try:
        return repr(fn())
    except NumericalError as exc:
        return f"{type(exc).__name__}: {exc}"


def _segment_bits(segments):
    return np.array(segments, dtype=float).reshape(-1, 4).view(np.uint64)


_bump = st.tuples(
    # centre, as a fraction of the grid range: inside, outside or on an edge
    st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0])),
    st.floats(-2.0, 2.0),             # height
    st.floats(0.1, 400.0),            # curvature, per squared grid range
)


class TestArrayRefinement:
    @settings(max_examples=200, deadline=None)
    @given(
        lower=st.floats(-5.0, 5.0),
        span=st.floats(0.01, 20.0),
        points=st.integers(3, 60),
        bumps=st.lists(_bump, min_size=1, max_size=5),
        cap=st.one_of(st.none(), st.floats(-1.0, 2.0)),
        hole=st.one_of(st.none(), st.tuples(st.floats(-0.2, 1.2), st.floats(0.0, 0.6))),
        closed=st.tuples(st.booleans(), st.booleans()),
    )
    def test_find_mee_matches_one_bracket_reference(self, lower, span, points, bumps, cap,
                                                    hole, closed):
        upper = lower + span

        def log_bff(x):
            u = (np.asarray(x, dtype=float) - lower) / span
            f = np.max([h - c * (u - m) ** 2 for m, h, c in bumps], axis=0)
            if cap is not None:
                # a plateau: golden probes tie across it
                f = np.minimum(f, cap)
            if hole is not None:
                f = np.where((u > hole[0]) & (u < hole[0] + hole[1]), np.nan, f)
            return f

        model = BffModel(
            log_bff=log_bff,
            lower=(lower if closed[0] else -math.inf,),
            upper=(upper if closed[1] else math.inf,),
            descriptor="bumps",
        )
        grid = GridSpec.one_dim(lower, upper, points)
        assert _outcome(lambda: find_mee(model, grid)) == _outcome(
            lambda: _reference_find_mee_1d(model, grid)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(-3.0, 3.0),
                # +-1 fields are full of saddle cells
                st.sampled_from([-1.0, 1.0, 0.0, -0.0, math.nan, math.inf, -math.inf]),
            ),
            min_size=4, max_size=90,
        ),
        rows=st.integers(2, 9),
        k=st.sampled_from([1.0, math.exp(0.5), 0.3]),
        lower=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    )
    @example(values=[1.0, -1.0, -1.0, 1.0, 1.0, -1.0], rows=2, k=1.0, lower=(0.0, 0.0))
    def test_support_region_matches_per_cell_reference(self, values, rows, k, lower):
        cols = len(values) // rows
        assume(cols >= 2)
        field = np.array(values[: rows * cols]).reshape(rows, cols)
        axes = (np.linspace(lower[0], lower[0] + 1.0, rows), np.linspace(lower[1], lower[1] + 0.5, cols))
        curve = BffCurve(axes=axes, log_bf=field, descriptor="field")
        mask, segments = _support_region(curve, k)
        want_mask, want_segments = _reference_support_region(curve, k)
        assert np.array_equal(mask, want_mask)
        assert np.array_equal(_segment_bits(segments), _segment_bits(want_segments))

    def test_saddle_cell_gives_two_segments_in_edge_order(self):
        # corners (i, j), (i+1, j), (i+1, j+1), (i, j+1) = 1, -1, 1, -1
        curve = BffCurve(
            axes=(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
            log_bf=np.array([[1.0, -1.0], [-1.0, 1.0]]),
            descriptor="saddle",
        )
        _, segments = _support_region(curve, 1.0)
        assert segments == [((0.5, 0.0), (1.0, 0.5)), ((0.5, 1.0), (0.0, 0.5))]


class _ScalarCall(Exception):
    pass


def _arrays_only(f, dim):
    """A log_bff that refuses a 0-d value (dim 1) or a bare length-2 point
    (dim 2): the engine passes 1-D and (2, N) arrays only."""

    def log_bff(x):
        if np.ndim(x) != dim or (dim == 2 and np.shape(x)[0] != 2):
            raise _ScalarCall(f"called on shape {np.shape(x)}")
        return f(x)

    return log_bff


class TestArrayContract:
    def test_one_dim_refinement_and_boundary_climb(self):
        bimodal = BffModel(log_bff=_arrays_only(_bimodal, 1), lower=(-math.inf,),
                           upper=(math.inf,), descriptor="bimodal")
        grid = GridSpec.one_dim(-3.0, 3.0, points=301)
        _, mee, (s,) = analyze(bimodal, grid, (math.exp(-0.5),))
        assert mee == find_mee(bimodal, grid)
        assert mee.theta_hat[0] == pytest.approx(1.0, abs=1e-6)
        assert s == support_set(bimodal, math.exp(-0.5), grid)
        # the maximum sits on the lower edge, and the curve climbs out of it
        decay = BffModel(log_bff=_arrays_only(lambda x: -x, 1), lower=(-math.inf,),
                         upper=(math.inf,), descriptor="decay-open")
        edge = find_mee(decay, GridSpec.one_dim(0.0, 5.0, points=41))
        assert edge.boundary and "lower" in edge.diagnostic

    def test_two_dim_nelder_mead_and_edge_checks(self):
        bump = BffModel(
            log_bff=_arrays_only(lambda p: 0.4 - 25.0 * (p[0] - 0.3) ** 2 - 12.5 * (p[1] - 0.7) ** 2, 2),
            lower=(0.0, 0.0), upper=(1.5, 1.5), descriptor="bump2", dim=2,
        )
        grid = GridSpec.two_dim((0.0, 0.0), (1.5, 1.5), (41, 41))
        _, mee, (region,) = analyze(bump, grid, (1.0,))
        assert mee == find_mee(bump, grid)
        assert mee.theta_hat == pytest.approx((0.3, 0.7), abs=1e-6)
        mask, segments = support_region(bump, 1.0, grid)
        assert np.array_equal(mask, region[0]) and segments == region[1] and segments
        ramp = BffModel(
            log_bff=_arrays_only(lambda p: p[0] + p[1], 2), lower=(-math.inf, -math.inf),
            upper=(math.inf, math.inf), descriptor="ramp2", dim=2,
        )
        assert find_mee(ramp, GridSpec.two_dim((0.0, 0.0), (1.0, 1.0), (11, 11))).boundary

    def test_numerical_error_names_the_point(self):
        def fragile(x):
            if np.any(x > 0.5):
                raise NumericalError("overflow in tail mass")
            return -(x**2)

        def fragile2(p):
            if np.any(p[0] > 0.5):
                raise NumericalError("overflow in tail mass")
            return -(p[0] ** 2)

        one = BffModel(log_bff=_arrays_only(fragile, 1), lower=(-math.inf,), upper=(math.inf,),
                       descriptor="fragile")
        with pytest.raises(NumericalError, match=r"at grid point 0\.75\)"):
            analyze(one, GridSpec.one_dim(0.0, 1.0, points=5), (0.5,))
        two = BffModel(log_bff=_arrays_only(fragile2, 2), lower=(0.0, 0.0), upper=(1.0, 1.0),
                       descriptor="fragile2", dim=2)
        with pytest.raises(NumericalError, match=r"at grid point \(0\.75, 0\.0\)"):
            find_mee(two, GridSpec.two_dim((0.0, 0.0), (1.0, 1.0), (5, 3)))


def _uniform_hole_prior():
    """Declared on [-5, 5] but actually supported on [-1, 1]."""

    def log_density(x):
        t = np.asarray(x, dtype=float)
        return np.where(np.abs(t) <= 1.0, math.log(0.5), -math.inf)

    return DensityFn(
        log_density=log_density, lower=-5.0, upper=5.0, descriptor="narrow-uniform"
    )


class TestSavageDickey:
    def test_conjugate_normal_matches_closed_form(self):
        data = NormalSummary(Y, SIGMA)
        prior = GlobalNormalPrior(M, V)
        sd = savage_dickey_bff(
            conjugate_posterior_density(data, prior), global_prior_density(M, V)
        )
        closed = normal_bff(data, prior)
        xs = np.linspace(-0.6, 0.2, 512)
        assert np.max(np.abs(sd.log_bff(xs) - closed.log_bff(xs))) <= 1e-8

    def test_randomized_conjugate_consistency(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            y = rng.uniform(-2, 2)
            sigma = rng.uniform(0.1, 1.5)
            m = rng.uniform(-2, 2)
            v = rng.uniform(0.05, 2.0)
            data = NormalSummary(y, sigma)
            prior = GlobalNormalPrior(m, v)
            sd = savage_dickey_bff(
                conjugate_posterior_density(data, prior), global_prior_density(m, v)
            )
            closed = normal_bff(data, prior)
            xs = np.linspace(y - 6 * sigma, y + 6 * sigma, 512)
            assert np.max(np.abs(sd.log_bff(xs) - closed.log_bff(xs))) <= 1e-8

    def test_no_update_means_unit_bff(self):
        prior = global_prior_density(0.3, 0.7)
        sd = savage_dickey_bff(prior, prior)
        xs = np.linspace(-2, 2, 101)
        assert np.all(sd.log_bff(xs) == 0.0)
        assert relative_belief_ratio(prior, prior, 0.11) == 1.0

    def test_local_prior_refused(self):
        local = DensityFn(
            log_density=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lower=-math.inf,
            upper=math.inf,
            descriptor="recentered",
            local=True,
        )
        with pytest.raises(ContractError, match="independent of the tested"):
            savage_dickey_bff(global_prior_density(0.0, 1.0), local)

    def test_improper_prior_refused(self):
        flat = DensityFn(
            log_density=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lower=-math.inf,
            upper=math.inf,
            descriptor="flat",
            proper=False,
        )
        with pytest.raises(ContractError, match="proper"):
            savage_dickey_bff(global_prior_density(0.0, 1.0), flat)

    def test_zero_prior_density_is_numerical_error(self):
        sd = savage_dickey_bff(global_prior_density(0.0, 1.0), _uniform_hole_prior())
        with pytest.raises(NumericalError, match=r"theta0=2"):
            sd.log_bff(2.0)

    def test_nan_posterior_yields_truncated_warning(self):
        def post_log_density(x):
            t = np.asarray(x, dtype=float)
            return np.where(t <= 1.0, stats.norm.logpdf(t, 0.2, 0.5), np.nan)

        post = DensityFn(
            log_density=post_log_density, lower=-math.inf, upper=math.inf,
            descriptor="sample-range-limited",
        )
        sd = savage_dickey_bff(post, global_prior_density(0.0, 1.0))
        curve = evaluate_curve(sd, GridSpec.one_dim(0.0, 2.0, points=21))
        assert any("truncated-curve" in w for w in curve.warnings)

    def test_ratio_scale_alias(self):
        data = NormalSummary(Y, SIGMA)
        prior = GlobalNormalPrior(M, V)
        post_d = conjugate_posterior_density(data, prior)
        prior_d = global_prior_density(M, V)
        sd = savage_dickey_bff(post_d, prior_d)
        for t0 in (-0.3, -0.14, 0.0, 0.05):
            assert relative_belief_ratio(post_d, prior_d, t0) == math.exp(sd.log_bff(t0))


def _known_variance_parts(n, ybar, theta0, m, v, kappa=1.0):
    """Log-likelihood callables and the exact log BF01 for the normal
    known-variance point null (sufficient statistic ybar ~ N(theta, kappa^2/n))."""
    prec = n / kappa**2

    def loglik0(psi):
        return -0.5 * prec * (ybar - theta0) ** 2

    def loglik1(th):
        return -0.5 * prec * float((ybar - th[0]) ** 2)

    def log_prior1(th):
        return float(stats.norm.logpdf(th[0], m, math.sqrt(v)))

    exact = stats.norm.logpdf(ybar, theta0, kappa / math.sqrt(n)) - stats.norm.logpdf(
        ybar, m, math.sqrt(v + kappa**2 / n)
    )
    return loglik0, loglik1, log_prior1, float(exact)


class TestLaplace:
    def test_normal_model_hundred_obs(self):
        ll0, ll1, lp1, exact = _known_variance_parts(100, 0.3, 0.1, 0.0, 1.0)
        got = laplace_log_bff(ll0, ll1, None, lp1, 1, 0, 100)
        assert got == pytest.approx(exact, abs=0.1)

    def test_normal_model_ten_thousand_obs(self):
        ll0, ll1, lp1, exact = _known_variance_parts(10_000, 0.3, 0.1, 0.0, 1.0)
        got = laplace_log_bff(ll0, ll1, None, lp1, 1, 0, 10_000)
        assert got == pytest.approx(exact, abs=0.01)

    def test_error_shrinks_with_n(self):
        errs = []
        for n in (100, 1_000, 10_000):
            ll0, ll1, lp1, exact = _known_variance_parts(n, 0.3, 0.1, 0.0, 1.0)
            got = laplace_log_bff(ll0, ll1, None, lp1, 1, 0, n)
            errs.append(abs(got - exact))
        assert errs[0] > errs[1] > errs[2]

    def test_null_at_mle_grows_like_sqrt_n(self):
        # theta0 = MLE kills the likelihood-ratio term; quadrupling n must
        # add half a log 4 through the (1/2) log(n/2pi) term alone
        vals = []
        for n in (100, 400):
            ll0, ll1, lp1, _ = _known_variance_parts(n, 0.3, 0.3, 0.0, 1e6)
            vals.append(laplace_log_bff(ll0, ll1, None, lp1, 1, 0, n))
        assert vals[1] - vals[0] == pytest.approx(0.5 * math.log(4.0), abs=1e-3)
        # and with a flat-ish prior the level itself sits at
        # (1/2) log(n/2pi) minus the prior ordinate
        lp = stats.norm.logpdf(0.3, 0.0, 1e3)
        assert vals[0] == pytest.approx(0.5 * math.log(100 / (2 * math.pi)) - lp, abs=1e-3)

    def test_nuisance_dimension_cancels(self):
        # paired model: X ~ N(theta, 1), Z ~ N(psi, 1); the psi marginals
        # cancel exactly, so the value should track the theta-only answer
        n, xbar, zbar, theta0 = 100, 0.25, -0.4, 0.1
        v_theta, v_psi = 0.8, 4.0

        def loglik0(psi):
            return float(-0.5 * n * (xbar - theta0) ** 2 - 0.5 * n * (zbar - psi[0]) ** 2)

        def loglik1(tp):
            return float(-0.5 * n * (xbar - tp[0]) ** 2 - 0.5 * n * (zbar - tp[1]) ** 2)

        def log_prior0(psi):
            return float(stats.norm.logpdf(psi[0], 0.0, math.sqrt(v_psi)))

        def log_prior1(tp):
            return float(
                stats.norm.logpdf(tp[0], 0.0, math.sqrt(v_theta))
                + stats.norm.logpdf(tp[1], 0.0, math.sqrt(v_psi))
            )

        exact = stats.norm.logpdf(xbar, theta0, 1 / math.sqrt(n)) - stats.norm.logpdf(
            xbar, 0.0, math.sqrt(v_theta + 1 / n)
        )
        got = laplace_log_bff(loglik0, loglik1, log_prior0, log_prior1, 1, 1, n)
        assert got == pytest.approx(float(exact), abs=0.1)

    def test_flat_direction_is_rejected(self):
        def loglik0(psi):
            return float(-0.5 * psi[0] ** 2)

        def loglik1(tp):
            return float(-0.5 * (tp[0] - 0.3) ** 2)  # no curvature in tp[1]

        lp = lambda x: 0.0
        with pytest.raises(NumericalError, match="H1"):
            laplace_log_bff(loglik0, loglik1, lp, lp, 1, 1, 50)

    def test_argument_validation(self):
        ll0, ll1, lp1, _ = _known_variance_parts(100, 0.3, 0.1, 0.0, 1.0)
        with pytest.raises(DomainError):
            laplace_log_bff(ll0, ll1, None, lp1, 0, 0, 100)
        with pytest.raises(DomainError):
            laplace_log_bff(ll0, ll1, None, lp1, 1, 0, 0)
        with pytest.raises(DomainError):
            laplace_log_bff(ll0, ll1, None, lp1, 1, -1, 100)


def _closed_log_bf(y, sigma, m, v, theta0):
    s2 = sigma**2
    return (
        -((y - theta0) ** 2) / (2 * s2)
        + 0.5 * math.log1p(v / s2)
        + (y - m) ** 2 / (2 * (s2 + v))
    )


class TestEvidenceAlgebra:
    def test_empty_batches_are_neutral(self):
        assert combine_sequential(0.0, 0.0) == 0.0

    def test_two_batch_split_matches_full_data(self):
        # split a known-variance normal sample in two; the second batch is
        # scored against the posterior after the first
        kappa, m, v, theta0 = 1.3, 0.2, 0.9, 0.0
        n1, n2 = 25, 15
        ybar1, ybar2 = 0.41, 0.18
        s1 = kappa / math.sqrt(n1)
        full_ybar = (n1 * ybar1 + n2 * ybar2) / (n1 + n2)
        full = _closed_log_bf(full_ybar, kappa / math.sqrt(n1 + n2), m, v, theta0)

        first = _closed_log_bf(ybar1, s1, m, v, theta0)
        w = 1.0 / (1.0 / v + n1 / kappa**2)
        mu = w * (m / v + n1 * ybar1 / kappa**2)
        partial = _closed_log_bf(ybar2, kappa / math.sqrt(n2), mu, w, theta0)

        assert combine_sequential(first, partial) == pytest.approx(full, abs=1e-10)

    def test_three_way_fold(self):
        kappa, m, v, theta0 = 1.0, -0.3, 0.5, 0.1
        counts = (10, 20, 12)
        means = (0.05, 0.22, -0.1)
        n_tot = sum(counts)
        full_ybar = sum(n * y for n, y in zip(counts, means)) / n_tot
        full = _closed_log_bf(full_ybar, kappa / math.sqrt(n_tot), m, v, theta0)

        acc = 0.0
        cur_m, cur_v = m, v
        for n, ybar in zip(counts, means):
            acc = combine_sequential(acc, _closed_log_bf(ybar, kappa / math.sqrt(n), cur_m, cur_v, theta0))
            w = 1.0 / (1.0 / cur_v + n / kappa**2)
            cur_m = w * (cur_m / cur_v + n * ybar / kappa**2)
            cur_v = w
        assert acc == pytest.approx(full, abs=1e-10)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                combine_sequential(bad, 0.0)
            with pytest.raises(DomainError):
                combine_sequential(0.0, bad)

    def test_universal_bound_examples(self):
        assert universal_bound_pvalue(0.02) == 0.02
        assert universal_bound_pvalue(3.0) == 1.0
        assert universal_bound_pvalue(1.0) == 1.0

    def test_universal_bound_rejects_bad_input(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                universal_bound_pvalue(bad)
