import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlmcx.errors import DomainError, NestingViolation
from vlmcx.stats import LrtResult, chi2_cdf, chi2_quantile, chi2_sf, lrt


def chi2_pdf(x, df):
    if x <= 0:
        return 0.0
    k = df / 2.0
    return math.exp((k - 1.0) * math.log(x) - x / 2.0 - k * math.log(2.0) - math.lgamma(k))


def simpson_cdf(x, df, tol=1e-12):
    """Adaptive Simpson integration of the density; independent oracle."""

    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = chi2_pdf(lm, df), chi2_pdf(rm, df)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, eps / 2.0, depth - 1) + recurse(
            m, b, fm, frm, fb, right, eps / 2.0, depth - 1
        )

    if x <= 0:
        return 0.0
    a, b = 0.0, float(x)
    fa, fb = chi2_pdf(a, df), chi2_pdf(b, df)
    fm = chi2_pdf(0.5 * (a + b), df)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 40)


class TestChi2Cdf:
    def test_closed_form_df2(self):
        for i in range(1000):
            x = 100.0 * (i + 1) / 1000.0
            assert abs(chi2_cdf(x, 2) - (1.0 - math.exp(-x / 2.0))) < 1e-12

    @pytest.mark.parametrize("df", [3, 7, 10])
    @pytest.mark.parametrize("x", [0.3, 2.0, 6.5, 18.0])
    def test_matches_quadrature(self, df, x):
        assert abs(chi2_cdf(x, df) - simpson_cdf(x, df)) < 1e-9

    @pytest.mark.parametrize("x", [0.3, 2.0, 6.5, 18.0])
    def test_df1_closed_form(self, x):
        # integrable singularity at 0 defeats plain quadrature; erf is exact
        assert abs(chi2_cdf(x, 1) - math.erf(math.sqrt(x / 2.0))) < 1e-12

    def test_known_quantile_value(self):
        # the 95th percentile of chi-square with 2 degrees of freedom
        assert abs(chi2_cdf(5.991464547107979, 2) - 0.95) < 1e-12

    def test_limits(self):
        assert chi2_cdf(0.0, 4) == 0.0
        assert chi2_cdf(1e6, 4) == 1.0

    def test_domain_validated(self):
        with pytest.raises(DomainError):
            chi2_cdf(-3.0, 2)
        with pytest.raises(DomainError):
            chi2_cdf(1.0, 0)
        with pytest.raises(DomainError, match="NaN"):
            chi2_cdf(math.nan, 1)
        with pytest.raises(DomainError, match="NaN"):
            chi2_sf(math.nan, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        x1=st.floats(0.0, 80.0),
        x2=st.floats(0.0, 80.0),
        df=st.integers(1, 20),
    )
    def test_monotone_and_in_range(self, x1, x2, df):
        lo, hi = sorted((x1, x2))
        c_lo, c_hi = chi2_cdf(lo, df), chi2_cdf(hi, df)
        assert 0.0 <= c_lo <= c_hi <= 1.0


class TestChi2Sf:
    @pytest.mark.parametrize("df", [1, 2, 5, 9])
    @pytest.mark.parametrize("x", [0.5, 4.0, 12.0, 30.0])
    def test_complement(self, x, df):
        assert abs(chi2_sf(x, df) + chi2_cdf(x, df) - 1.0) < 1e-14

    def test_deep_tail_keeps_precision(self):
        # far beyond where 1 - cdf would round to zero
        p = chi2_sf(1300.0, 1)
        assert 0.0 < p < 1e-250

    def test_zero_statistic(self):
        assert chi2_sf(0.0, 3) == 1.0

    @pytest.mark.parametrize("x, df", [(0.0, 1), (3.7, 2), (45.5, 7), (1300.0, 1)])
    def test_memo_returns_the_computed_value(self, x, df):
        chi2_sf.cache_clear()
        first = chi2_sf(x, df)
        assert chi2_sf.__wrapped__(x, df).hex() == first.hex()
        assert chi2_sf(x, df).hex() == first.hex()
        assert chi2_sf(np.float64(x), np.int64(df)).hex() == first.hex()
        chi2_sf.cache_clear()
        assert chi2_sf(np.float64(x), df).hex() == first.hex()
        assert chi2_sf(x, df).hex() == first.hex()

    def test_memo_is_bounded(self):
        assert chi2_sf.cache_info().maxsize is not None

    @pytest.mark.parametrize("x, df", [(math.nan, 1), (-1.0, 2), (-1e-300, 1), (3.0, 0), (3.0, -2)])
    def test_invalid_arguments_raise_on_every_call(self, x, df):
        for _ in range(3):
            with pytest.raises(DomainError):
                chi2_sf(x, df)


class TestChi2Quantile:
    @pytest.mark.parametrize("df", [1, 2, 6, 11])
    @pytest.mark.parametrize("q", [1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-9])
    def test_round_trip(self, q, df):
        x = chi2_quantile(q, df)
        assert abs(chi2_cdf(x, df) - q) < 1e-8

    def test_inverse_round_trip(self):
        for x in (0.04, 1.3, 7.7, 26.0):
            assert abs(chi2_quantile(chi2_cdf(x, 5), 5) - x) < 1e-8

    def test_edges(self):
        with pytest.raises(DomainError):
            chi2_quantile(0.0, 3)
        with pytest.raises(DomainError):
            chi2_quantile(1.5, 3)
        with pytest.raises(DomainError):
            chi2_quantile(-0.1, 3)


class TestLrt:
    def test_fields_and_known_value(self):
        res = lrt(-10.0, -7.0, 1)
        assert isinstance(res, LrtResult)
        assert res.statistic == pytest.approx(6.0, abs=1e-14)
        assert res.df == 1
        assert res.p_value == pytest.approx(chi2_sf(6.0, 1), abs=1e-15)

    def test_equal_logliks_give_p_one(self):
        res = lrt(-5.0, -5.0, 2)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_tiny_negative_deviance_clamped(self):
        res = lrt(-5.0, -5.0 - 1e-8, 3)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_real_nesting_violation_raises(self):
        with pytest.raises(NestingViolation):
            lrt(-5.0, -5.5, 1)

    def test_df_validated(self):
        with pytest.raises(DomainError):
            lrt(-6.0, -5.0, 0)
        with pytest.raises(DomainError, match="NaN"):
            lrt(math.nan, 0.0, 1)
