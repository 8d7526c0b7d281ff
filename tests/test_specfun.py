import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from bff.errors import DomainError
from bff.specfun import (
    half_normal_log_density,
    log_beta,
    log_reg_inc_beta,
    log_trunc_beta_mass,
    normal_log_density,
)

mpmath.mp.dps = 50


class TestLogBeta:
    def test_unit(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_two_three(self):
        assert log_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), abs=1e-13)

    def test_gamma_one_is_zero(self):
        # B(1, b) = Gamma(1) Gamma(b) / Gamma(1 + b) = 1 / b needs log Gamma(1) = 0
        for b in (0.5, 1.0, 2.0, 5.0):
            assert log_beta(1.0, b) == pytest.approx(-math.log(b), abs=1e-14)

    def test_gamma_five_is_log_24(self):
        # B(1, 4) = 3! / 4! and B(4, 1) likewise: both read log Gamma(5) = log 24
        assert log_beta(1.0, 4.0) == pytest.approx(math.log(6.0 / 24.0), abs=1e-13)
        assert log_beta(4.0, 1.0) == pytest.approx(math.log(6.0 / 24.0), abs=1e-13)

    def test_coin_scale_against_high_precision(self):
        want = float(mpmath.log(mpmath.beta(5100, 4900)))
        assert log_beta(5100.0, 4900.0) == pytest.approx(want, rel=1e-12)

    def test_large_argument_against_high_precision(self):
        want = float(mpmath.log(mpmath.beta(5100, 2.5)))
        assert abs(log_beta(5100.0, 2.5) - want) <= 1e-10 * abs(want)

    def test_moderate_arguments_against_high_precision(self):
        rng = np.random.default_rng(11)
        for a, b in rng.uniform(0.1, 300.0, size=(40, 2)):
            want = float(mpmath.log(mpmath.beta(a, b)))
            assert log_beta(float(a), float(b)) == pytest.approx(want, abs=1e-11, rel=1e-11)

    def test_coin_study_shapes_against_high_precision(self):
        # shapes up to the bundled 350 757 flips; the cancellation between
        # the three log-gamma terms costs a few digits (1.5e-13 relative at
        # most over 2000 pairs in [0.5, 4e5])
        rng = np.random.default_rng(18)
        for a, b in rng.uniform(0.5, 4e5, size=(40, 2)):
            want = float(mpmath.log(mpmath.beta(a, b)))
            assert log_beta(float(a), float(b)) == pytest.approx(want, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            log_beta(0.0, 1.0)
        with pytest.raises(DomainError):
            log_beta(1.0, -2.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_shape(self, bad):
        with pytest.raises(DomainError):
            log_beta(bad, 1.0)
        with pytest.raises(DomainError):
            log_beta(1.0, bad)

    @pytest.mark.parametrize("a, b", [(1e308, 1.0), (1.0, 3e305), (1.5e305, 1.5e305)])
    def test_overflow_is_refused(self, a, b):
        with pytest.raises(DomainError):
            log_beta(a, b)

    @given(st.floats(min_value=5e-324, max_value=1.8e308),
           st.floats(min_value=5e-324, max_value=1.8e308))
    def test_finite_or_refused(self, a, b):
        try:
            out = log_beta(a, b)
        except DomainError:
            return
        assert math.isfinite(out)


def reg_inc_beta(x, a, b):
    """I_x(a, b) through the log-space routine that the package keeps."""
    return math.exp(log_reg_inc_beta(x, a, b))


class TestRegIncBeta:
    def test_bounds(self):
        assert reg_inc_beta(0.0, 3.0, 4.0) == 0.0
        assert reg_inc_beta(1.0, 3.0, 4.0) == 1.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 17.0, 400.0])
    def test_symmetric_half(self, a):
        assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)

    def test_against_quadrature_oracle(self):
        dens = lambda t: t * (1 - t) ** 2 / (1.0 / 12.0)
        want, err = scipy.integrate.quad(dens, 0.0, 0.5, epsabs=1e-14)
        assert err < 1e-12
        assert reg_inc_beta(0.5, 2.0, 3.0) == pytest.approx(want, abs=1e-10)

    def test_against_scipy_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            a = rng.uniform(0.2, 800.0)
            b = rng.uniform(0.2, 800.0)
            x = rng.uniform(0.0, 1.0)
            want = scipy.special.betainc(a, b, x)
            got = reg_inc_beta(float(x), float(a), float(b))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.uniform(0.3, 50.0)
            b = rng.uniform(0.3, 50.0)
            xs = np.linspace(0.0, 1.0, 101)
            vals = [reg_inc_beta(float(x), float(a), float(b)) for x in xs]
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_complement_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            a = rng.uniform(0.3, 200.0)
            b = rng.uniform(0.3, 200.0)
            x = rng.uniform(0.0, 1.0)
            s = reg_inc_beta(float(x), float(a), float(b)) + reg_inc_beta(
                float(1 - x), float(b), float(a)
            )
            assert s == pytest.approx(1.0, abs=1e-12)

    def test_log_version_deep_tail(self):
        # far left tail where the linear value underflows toward 0
        want = float(mpmath.log(mpmath.betainc(200, 300, 0, 0.05, regularized=True)))
        assert log_reg_inc_beta(0.05, 200.0, 300.0) == pytest.approx(want, rel=1e-9)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            log_reg_inc_beta(-0.1, 2.0, 2.0)
        with pytest.raises(DomainError):
            log_reg_inc_beta(1.1, 2.0, 2.0)


class TestLogTruncBetaMass:
    def test_full_interval_is_zero(self):
        assert log_trunc_beta_mass(3.0, 7.0, 0.0, 1.0) == 0.0

    def test_symmetric_half_mass(self):
        assert log_trunc_beta_mass(9.0, 9.0, 0.0, 0.5) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_coin_posterior_scale(self):
        # a+y and b+(n-y) at the bundled coin-study scale; mpmath's own
        # betainc diverges here, so integrate the log density directly
        a, b = 5100.0 + 178078.0, 4900.0 + 172679.0
        mode = (a - 1) / (a + b - 2)
        log_peak = (a - 1) * mpmath.log(mode) + (b - 1) * mpmath.log(1 - mode)

        def scaled(t):
            return mpmath.exp(
                (a - 1) * mpmath.log(t) + (b - 1) * mpmath.log(1 - t) - log_peak
            )

        integral = mpmath.quad(scaled, [0.5, mode, 0.52, 1.0])
        want = float(
            mpmath.log(integral)
            + log_peak
            - (mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b))
        )
        assert log_trunc_beta_mass(a, b, 0.5, 1.0) == pytest.approx(want, abs=1e-8)

    def test_never_positive(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            a = rng.uniform(0.5, 500.0)
            b = rng.uniform(0.5, 500.0)
            l = rng.uniform(0.0, 0.9)
            u = rng.uniform(l + 0.05, 1.0)
            assert log_trunc_beta_mass(float(a), float(b), float(l), float(u)) <= 0.0

    def test_against_high_precision_moderate(self):
        # scipy's betainc difference loses digits when both endpoints sit
        # in the same tail, so the oracle is mpmath's two-point betainc
        rng = np.random.default_rng(17)
        for _ in range(40):
            a = rng.uniform(1.0, 80.0)
            b = rng.uniform(1.0, 80.0)
            l = rng.uniform(0.0, 0.5)
            u = rng.uniform(l + 0.2, 1.0)
            want = float(
                mpmath.log(mpmath.betainc(float(a), float(b), float(l), float(u),
                                          regularized=True))
            )
            got = log_trunc_beta_mass(float(a), float(b), float(l), float(u))
            assert got == pytest.approx(want, abs=1e-7)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            log_trunc_beta_mass(2.0, 2.0, 0.7, 0.7)
        with pytest.raises(DomainError):
            log_trunc_beta_mass(2.0, 2.0, -0.1, 1.0)


class TestNormalLogDensity:
    def test_standard_at_zero(self):
        assert normal_log_density(0.0, 0.0, 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-14
        )

    def test_mode_value(self):
        assert normal_log_density(3.2, 3.2, 0.25) == pytest.approx(
            -0.5 * math.log(2 * math.pi * 0.25), abs=1e-14
        )

    def test_plug_in(self):
        want = -0.5 * math.log(2 * math.pi * 2.0) - 1.0 / 4.0
        assert normal_log_density(1.0, 0.0, 2.0) == pytest.approx(want, abs=1e-14)

    def test_rejects_bad_variance(self):
        with pytest.raises(DomainError):
            normal_log_density(0.0, 0.0, 0.0)


class TestHalfNormalLogDensity:
    def test_at_zero(self):
        s = 0.02
        want = math.log(math.sqrt(2.0 / math.pi)) - math.log(s)
        assert half_normal_log_density(0.0, s) == pytest.approx(want, abs=1e-14)

    def test_at_scale(self):
        s = 1.7
        want = math.log(math.sqrt(2.0 / math.pi)) - math.log(s) - 0.5
        assert half_normal_log_density(s, s) == pytest.approx(want, abs=1e-13)

    def test_integrates_to_one(self):
        val, err = scipy.integrate.quad(
            lambda t: math.exp(half_normal_log_density(t, 0.02)), 0.0, 0.4
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_rejects_negative_tau(self):
        with pytest.raises(DomainError):
            half_normal_log_density(-0.01, 1.0)


def test_determinism_bit_identical():
    calls = [
        lambda: log_beta(123.456, 7.25),
        lambda: log_reg_inc_beta(0.37, 41.5, 17.25),
        lambda: log_trunc_beta_mass(5100.0, 4900.0, 0.5, 1.0),
    ]
    for call in calls:
        assert call() == call()
