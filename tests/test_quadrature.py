import math
import time

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from bff.errors import DomainError, NumericalError
from bff.quadrature import integrate, log_integrate, log_integrate_many


class TestIntegrate:
    def test_polynomial_exact(self):
        val, err = integrate(lambda x: 3 * x**2, 0.0, 2.0)
        assert val == pytest.approx(8.0, abs=1e-12)

    def test_against_scipy_on_smooth_functions(self):
        cases = [
            (lambda x: np.exp(-(x**2)), -4.0, 4.0),
            (lambda x: np.sin(7 * x) ** 2 / (1 + x**2), 0.0, 10.0),
            (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0),
        ]
        for f, a, b in cases:
            want, _ = scipy.integrate.quad(lambda t: float(f(np.array([t]))[0]), a, b,
                                           limit=300)
            val, err = integrate(f, a, b)
            assert val == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_narrow_spike_within_resolution(self):
        # mass-1 gaussian just wide enough for the initial cells to see
        s = 0.01
        f = lambda x: np.exp(-0.5 * ((x - 0.37) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        val, err = integrate(f, 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_breakpoints_resolve_sub_resolution_spike(self):
        # without the hint this spike is invisible to the initial nodes
        s = 1e-7
        f = lambda x: np.exp(-0.5 * ((x - 0.37) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        val, _ = integrate(f, 0.0, 1.0, breakpoints=(0.37 - 8 * s, 0.37 + 8 * s))
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_error_estimate_is_honest(self):
        f = lambda x: np.cos(3 * x) * np.exp(x / 3.0)
        want, _ = scipy.integrate.quad(lambda t: math.cos(3 * t) * math.exp(t / 3.0),
                                       -1.0, 5.0)
        val, err = integrate(f, -1.0, 5.0)
        assert abs(val - want) <= max(err * 10, 1e-12)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, math.inf)

    def test_budget_exhaustion_raises(self):
        f = lambda x: np.sin(1.0 / np.maximum(x, 1e-300))  # pathological near 0
        with pytest.raises(NumericalError):
            integrate(f, 0.0, 1.0, tol_abs=1e-300, tol_rel=1e-16, max_intervals=8)


class TestLogIntegrate:
    def test_matches_plain_integral_moderate(self):
        log_f = lambda x: -0.5 * (x - 1.0) ** 2
        want = math.sqrt(2 * math.pi)  # integral of exp over wide interval
        got = log_integrate(log_f, -12.0, 14.0)
        assert got == pytest.approx(math.log(want), abs=1e-9)

    def test_extreme_offset_is_stable(self):
        # integrand peaks at exp(1e5): plain exponentiation would overflow
        log_f = lambda x: 1e5 - 0.5 * ((x - 0.3) / 0.01) ** 2
        got = log_integrate(log_f, 0.0, 1.0)
        want = 1e5 + math.log(0.01 * math.sqrt(2 * math.pi))
        assert got == pytest.approx(want, abs=1e-8)

    def test_deep_underflow_is_stable(self):
        log_f = lambda x: -1e5 - 0.5 * ((x + 2.0) / 0.5) ** 2
        got = log_integrate(log_f, -4.0, 0.0)
        # interval is +-4 sd, so the truncated mass matters at 1e-5 scale
        want = -1e5 + math.log(
            0.5 * math.sqrt(2 * math.pi) * math.erf(4.0 / math.sqrt(2.0))
        )
        assert got == pytest.approx(want, abs=1e-8)

    def test_spike_missed_by_scan_is_recovered(self):
        # peak width 1e-6 cannot be seen by the coarse scan; the nested
        # sub-scans around the scan maximum must still locate it
        s = 1e-6
        log_f = lambda x: -0.5 * ((x - 0.456789) / s) ** 2
        got = log_integrate(log_f, 0.0, 1.0, scan_points=33)
        want = math.log(s * math.sqrt(2 * math.pi))
        assert got == pytest.approx(want, abs=1e-6)

    def test_all_minus_inf_gives_minus_inf(self):
        log_f = lambda x: np.full_like(np.asarray(x, dtype=float), -np.inf)
        assert log_integrate(log_f, 0.0, 1.0) == -math.inf

    def test_nan_in_scan_raises(self):
        log_f = lambda x: np.where(np.asarray(x) > 0.5, np.nan, 0.0)
        with pytest.raises(NumericalError):
            log_integrate(log_f, 0.0, 1.0)

    def test_matches_scipy_logsumexp_style_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            mu = rng.uniform(-3.0, 3.0)
            s = rng.uniform(0.05, 1.5)
            shift = rng.uniform(-600.0, 600.0)
            log_f = lambda x: shift - 0.5 * ((x - mu) / s) ** 2
            got = log_integrate(log_f, mu - 30 * s, mu + 30 * s)
            want = shift + math.log(s * math.sqrt(2 * math.pi))
            assert got == pytest.approx(want, abs=1e-8)


def _gaussian_rows(rows, a, b):
    """Log integrand whose row r is c_r - (x - mu_r)^2 / (2 s_r^2), and
    the closed-form log integrals over [a, b]."""
    mu, s, c = (np.array(v, dtype=float) for v in zip(*rows))

    def log_f(x, idx):
        return c[idx, None] - 0.5 * ((x - mu[idx, None]) / s[idx, None]) ** 2

    mass = [0.5 * (math.erf((b - m) / (w * math.sqrt(2.0))) - math.erf((a - m) / (w * math.sqrt(2.0))))
            for m, w in zip(mu, s)]
    want = c + np.log(s * math.sqrt(2.0 * math.pi)) + np.log(mass)
    return log_f, want


_ROW = st.tuples(
    st.floats(0.0, 1.0),      # peak position within its admissible range
    st.floats(-10.0, 0.0),    # log10 of the width as a fraction of the interval
    st.floats(-600.0, 600.0),  # log height
)


class TestLogIntegrateMany:
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(-2.0, 1.0),
        st.lists(_ROW, min_size=1, max_size=8),
    )
    def test_mixed_width_gaussians_match_closed_form_and_scalar_calls(self, zero_at, log_span, rows):
        # one call mixes peaks from 1e-10 of the interval to all of it:
        # every row must meet its own tolerance, however narrow its peak.
        # The origin sits at a random place in the interval and each peak
        # lies within 1e6 of its widths of it, where doubles resolve the
        # peak to 2e-10 of its width; farther out the sampled integrand is
        # itself jagged (a 1e-10-wide peak at 0.5 carries ~1e-7 relative
        # jitter from node rounding), which no quadrature rule can beat.
        span = 10.0**log_span
        a = -zero_at * span
        b = a + span
        params = []
        for pos, lw, c in rows:
            s = 10.0**lw * span
            lo, hi = max(a, -1e6 * s), min(b, 1e6 * s)
            params.append((lo + pos * (hi - lo), s, c))
        log_f, want = _gaussian_rows(params, a, b)
        got, rel = log_integrate_many(log_f, a, b, len(params))
        assert got.shape == rel.shape == (len(params),)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8)
        assert np.all((rel >= 0.0) & (rel <= 1e-9))
        for r, (m, w, c) in enumerate(params):
            one = log_integrate(lambda x: c - 0.5 * ((x - m) / w) ** 2, a, b)
            assert one == pytest.approx(got[r], abs=1e-9)

    def test_rows_are_independent_of_their_batch(self):
        params = [(0.3, 1e-9, 5.0), (0.7, 0.2, -40.0), (0.01, 1e-4, 800.0)]
        log_f, _ = _gaussian_rows(params, 0.0, 1.0)
        together, _ = log_integrate_many(log_f, 0.0, 1.0, 3)
        for r in range(3):
            alone, _ = log_integrate_many(lambda x, idx: log_f(x, idx * 0 + r), 0.0, 1.0, 1)
            assert alone[0] == together[r]

    def test_empty_row_gives_minus_inf_for_that_row_alone(self):
        def log_f(x, idx):
            return np.where(idx[:, None] == 1, -np.inf, -0.5 * (x - 0.5) ** 2)

        got, _ = log_integrate_many(log_f, 0.0, 1.0, 3)
        assert got[1] == -math.inf
        want = math.log(math.sqrt(2 * math.pi) * math.erf(0.5 / math.sqrt(2.0)))
        assert got[0] == got[2] == pytest.approx(want, abs=1e-10)

    def test_nan_in_any_row_raises(self):
        def log_f(x, idx):
            return np.where((idx[:, None] == 2) & (x > 0.5), np.nan, -x)

        with pytest.raises(NumericalError):
            log_integrate_many(log_f, 0.0, 1.0, 4)

    def test_peak_narrower_than_doubles_resolve_returns_with_its_estimate(self):
        # a width-1e-12 peak at 5.005 spans about 1100 doubles: cells are cut
        # down to 64 ulp, where node rounding dominates the estimate, and the
        # row comes back with that estimate, not a spent budget.  Measured:
        # 0.04 s, 6.1e-8 relative to the closed form, estimate 1.0e-4.  The
        # second row shares the call and still meets its own tolerance.
        s, c = 1e-12, 5.005
        params = [(c, s, 0.0), (5.003, 1e-3, 0.0)]
        log_f, want = _gaussian_rows(params, 5.0, 5.01)
        start = time.perf_counter()
        got, rel = log_integrate_many(log_f, 5.0, 5.01, 2)
        assert time.perf_counter() - start < 0.5
        err = abs(math.expm1(got[0] - want[0]))
        assert err <= 1e-7
        assert 0.0 < err <= rel[0]
        assert abs(got[1] - want[1]) <= 1e-9 and rel[1] <= 1e-9

    def test_shape_contract_and_zero_rows(self):
        with pytest.raises(NumericalError):
            log_integrate_many(lambda x, idx: np.zeros(x.shape[1]), 0.0, 1.0, 2)
        got, rel = log_integrate_many(lambda x, idx: x, 0.0, 1.0, 0)
        assert got.shape == rel.shape == (0,)
