"""Population-limit observable tables for synthetic DGPs.

For a DGP with lognormal potential incomes and cost C, the observable
conditional law given z decomposes through the selection event
psi_z(Y1) >= Y0 with psi_z(y) = y - C(y, z):

    F1(y | z) = P(X1 <= ln y, X0 <= ln psi_z(e^{X1}))
    F0(y | z) = P(X0 <= ln y, X1 <  ln psi_z^{-1}(e^{X0}))

Both are one-dimensional Gaussian integrals once the inner coordinate is
conditioned out; they are evaluated by composite Simpson cumulatives on a
dense node grid, which keeps absolute errors near 1e-12 and gives every y
grid value from a single pass per z column.  Quadratic-family truncation is
handled by capping both coordinates and renormalizing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .estimation import ConditionalCdfTable
from .model import DgpSpec, EvaluationGrid

_NODES = 20001
_TAIL_SD = 8.5


def _params_at(dgp: DgpSpec, z: float) -> tuple:
    return (float(dgp.mu0(z)), float(dgp.mu1(z)),
            float(dgp.sigma0(z)), float(dgp.sigma1(z)))


def _node_grid(mu: float, sigma: float, cap: float) -> np.ndarray:
    hi = min(mu + _TAIL_SD * sigma, cap)
    lo = hi - 2.0 * _TAIL_SD * sigma
    return np.linspace(lo, hi, _NODES)


def _pure_roy_degenerate(dgp: DgpSpec) -> bool:
    if dgp.family != "pure_roy" or dgp.outcome_corr != 1.0:
        return False
    z = dgp.z_law.support_probe()
    return (np.allclose(dgp.mu0(z), dgp.mu1(z), atol=0.0)
            and np.allclose(dgp.sigma0(z), dgp.sigma1(z), atol=0.0))


def _sector_cumulative(mu: float, s: float, mu_o: float, s_o: float, r: float,
                       cap: float, bound, z: float) -> tuple:
    """Nodes x over this sector's log income and the cumulative integral of
    P(X in dx, X_o <= ln bound(e^x, z)), X_o the other sector's log income
    (capped at ``cap``), conditioned on X = x through the correlation r."""
    from scipy.integrate import cumulative_simpson
    from scipy.stats import norm

    x = _node_grid(mu, s, cap)
    b = np.asarray(bound(np.exp(x), z), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ub = np.where(b > 0, np.log(np.where(b > 0, b, 1.0)), -np.inf)
    ub = np.minimum(ub, cap)
    m = mu_o + r * (s_o / s) * (x - mu)
    inner = norm.cdf((ub - m) / (s_o * math.sqrt(1.0 - r * r)))
    return x, cumulative_simpson(norm.pdf(x, loc=mu, scale=s) * inner, x=x, initial=0.0)


def _column(dgp: DgpSpec, z: float, log_y: np.ndarray) -> tuple:
    """(F0, F1, p) at one z."""
    from scipy.stats import norm

    mu0, mu1, s0, s1, r = *_params_at(dgp, z), dgp.outcome_corr
    cap = dgp._log_cap()
    zero = np.zeros_like(log_y)
    if dgp.foresight == "imperfect":  # everyone takes the sector of larger mean
        if dgp.mean_shifted_income(z) >= dgp.outcome_mean(0, z):
            return zero, _truncated_normal_cdf(log_y, mu1, s1, cap), 1.0
        return _truncated_normal_cdf(log_y, mu0, s0, cap), zero, 0.0
    if _pure_roy_degenerate(dgp):  # equal incomes, ties to sector 1
        return zero, norm.cdf((log_y - mu0) / s0), 1.0
    if abs(r) >= 1.0:
        raise DomainError("population tables need |outcome_corr| < 1 "
                          "(except the degenerate pure_roy closed form)")
    # sector 1 chooses where X0 <= ln psi_z(Y1); sector 0 where X1 lies below
    # ln psi_z^{-1}(Y0), both intersected with the cap under truncation
    x1, cum1 = _sector_cumulative(mu1, s1, mu0, s0, r, cap, dgp.shifted_income, z)
    x0, cum0 = _sector_cumulative(mu0, s0, mu1, s1, r, cap,
                                  dgp.shifted_income_inverse, z)

    # the two sector totals partition the (possibly capped) probability mass,
    # so their sum is the exact normalizer (it is 1 up to quadrature error
    # without truncation)
    normalizer = float(cum1[-1] + cum0[-1])
    F1 = np.interp(log_y, x1, cum1, left=0.0, right=float(cum1[-1])) / normalizer
    F0 = np.interp(log_y, x0, cum0, left=0.0, right=float(cum0[-1])) / normalizer
    return F0, F1, float(cum1[-1]) / normalizer


def population_tables(dgp: DgpSpec, grid: EvaluationGrid) -> ConditionalCdfTable:
    """Analytic observable tables (F, F0, F1, p) of a DGP on a grid."""
    if np.any(grid.y <= 0):
        raise DomainError("lognormal DGPs need a positive y grid")
    log_y = np.log(grid.y)
    F0, F1, p = zip(*(_column(dgp, float(z), log_y) for z in grid.z))
    F0, F1 = np.column_stack(F0), np.column_stack(F1)
    return ConditionalCdfTable(grid=grid, F=F0 + F1, F0=F0, F1=F1, p=np.array(p))


def _truncated_normal_cdf(x: np.ndarray, mu: float, sigma: float, cap: float) -> np.ndarray:
    from scipy.stats import norm

    if not math.isfinite(cap):
        return norm.cdf((x - mu) / sigma)
    a = (cap - mu) / sigma
    return norm.cdf(np.minimum((x - mu) / sigma, a)) / norm.cdf(a)
