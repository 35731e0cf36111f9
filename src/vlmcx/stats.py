"""Chi-square distribution function, quantile, and the likelihood-ratio test.

The CDF is the regularized lower incomplete gamma function P(df/2, x/2),
computed by the usual pair of expansions: a power series for x < a + 1 and a
Lentz-style continued fraction for the complement otherwise.  Both converge
to near machine precision for the degrees of freedom used here.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import DomainError, NestingViolation

logger = logging.getLogger(__name__)

_MAX_ITER = 1000
_EPS = 1e-16
_FPMIN = 1e-300

#: negative deviances larger than this indicate an optimizer failure upstream
DEVIANCE_TOL = 1e-6


def _gamma_series(a: float, x: float) -> float:
    """P(a, x) by power series; requires 0 <= x < a + 1."""
    if x == 0.0:
        return 0.0
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float) -> float:
    """Q(a, x) by modified Lentz continued fraction; requires x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    frac = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < _EPS:
            break
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if log_prefactor < -745.0:
        return 0.0
    return math.exp(log_prefactor) * frac


def _check_chi2_args(x: float, df: int) -> None:
    if df < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {df}")
    if math.isnan(x):
        raise DomainError("chi-square argument x is NaN")
    if x < 0:
        raise DomainError(f"chi-square support is [0, inf), got x={x}")


def chi2_cdf(x: float, df: int) -> float:
    """P(X <= x) for X chi-square with ``df`` degrees of freedom."""
    _check_chi2_args(x, df)
    if not math.isfinite(x):
        return 1.0
    a = 0.5 * df
    hx = 0.5 * x
    if hx < a + 1.0:
        return min(1.0, _gamma_series(a, hx))
    return max(0.0, 1.0 - _gamma_cf(a, hx))


def chi2_sf(x: float, df: int) -> float:
    """P(X > x), computed directly so tiny tails keep full precision."""
    _check_chi2_args(x, df)
    if not math.isfinite(x):
        return 0.0
    a = 0.5 * df
    hx = 0.5 * x
    if hx < a + 1.0:
        return max(0.0, 1.0 - _gamma_series(a, hx))
    return min(1.0, _gamma_cf(a, hx))


def _chi2_pdf(x: float, df: int) -> float:
    if x <= 0.0:
        return 0.0 if df != 2 else 0.5
    a = 0.5 * df
    logp = (a - 1.0) * math.log(x) - 0.5 * x - a * math.log(2.0) - math.lgamma(a)
    return math.exp(logp) if logp > -745.0 else 0.0


def chi2_quantile(q: float, df: int) -> float:
    """Inverse CDF: the x with ``chi2_cdf(x, df) == q``.

    Bisection brackets the root, then Newton polishes it; accurate to about
    1e-12 in the CDF scale.
    """
    if df < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {q}")
    hi = float(df) + 10.0
    while chi2_cdf(hi, df) < q:
        hi *= 2.0
        if hi > 1e308:
            raise DomainError(f"quantile level {q} too close to 1")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * (1.0 + hi):
            break
    x = 0.5 * (lo + hi)
    for _ in range(20):
        f = chi2_cdf(x, df) - q
        g = _chi2_pdf(x, df)
        if g <= 0.0:
            break
        step = f / g
        x_new = x - step
        if x_new < lo or x_new > hi:
            break
        x = x_new
        if abs(step) <= 1e-13 * (1.0 + abs(x)):
            break
    return x


@dataclass(frozen=True)
class LrtResult:
    """Outcome of one likelihood-ratio test."""

    statistic: float
    df: int
    p_value: float


def lrt(loglik_null: float, loglik_alt: float, df_removed: int) -> LrtResult:
    """Likelihood-ratio test of a nested null against the alternative.

    The statistic is ``2 * (loglik_alt - loglik_null)``; its null law is
    chi-square with ``df_removed`` degrees of freedom.  Small negative
    deviances (within ``DEVIANCE_TOL``) are clamped to zero; larger ones
    raise NestingViolation since a nested optimum can never beat the full
    one.  A NaN log-likelihood raises DomainError.
    """
    if df_removed < 1:
        raise DomainError(f"df_removed must be >= 1, got {df_removed}")
    statistic = 2.0 * (loglik_alt - loglik_null)
    if statistic < 0.0:
        if statistic < -DEVIANCE_TOL:
            raise NestingViolation(
                f"null log-likelihood {loglik_null:.8f} exceeds alternative "
                f"{loglik_alt:.8f} by more than {DEVIANCE_TOL}"
            )
        logger.debug("clamping negative deviance %.3e to zero", statistic)
        statistic = 0.0
    return LrtResult(statistic=statistic, df=df_removed, p_value=chi2_sf(statistic, df_removed))
