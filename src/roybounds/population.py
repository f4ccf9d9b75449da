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

Every float is scipy's without loading ``scipy.stats`` or ``scipy.integrate``:
the normal cdf is ``scipy.special.ndtr``, which ``norm.cdf`` calls, and
``_normal_pdf`` and ``_cumulative_simpson`` transcribe ``norm.pdf`` and scipy
1.17's unequal-interval ``cumulative_simpson`` (the path taken given ``x``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidDgpError
from .estimation import ConditionalCdfTable
from .model import DgpSpec, EvaluationGrid

_NODES = 20001
_TAIL_SD = 8.5


def _params_at(dgp: DgpSpec, z: float) -> tuple:
    return (float(dgp.mu0(z)), float(dgp.mu1(z)),
            float(dgp.sigma0(z)), float(dgp.sigma1(z)))


def _normal_pdf(x: np.ndarray, mu: float, s: float) -> np.ndarray:
    """``scipy.stats.norm.pdf(x, loc=mu, scale=s)``, the same operations in order."""
    u = (x - mu) / s
    return np.exp(-u**2 / 2.0) / np.sqrt(2 * np.pi) / s


def _simpson_pieces(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson integral over the first interval of each panel [x_i, x_i+2]."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)`` for 1-D
    inputs of 3 or more points (eqn (8) of Cartwright 2017, as scipy cites it)."""
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    h1 = _simpson_pieces(y, dx)
    h2 = _simpson_pieces(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(dx.size)
    pieces[:-1:2], pieces[1::2], pieces[-1] = h1[::2], h2[::2], h2[-1]
    out = np.cumsum(pieces)
    out += 0.0  # scipy adds the initial value, which turns -0.0 into 0.0
    return np.concatenate(([0.0], out))


def _node_grid(mu: float, sigma: float, cap: float) -> np.ndarray:
    hi = min(mu + _TAIL_SD * sigma, cap)
    lo = hi - 2.0 * _TAIL_SD * sigma
    x = np.linspace(lo, hi, _NODES)
    if np.any(np.diff(x) <= 0):  # the nodes' spacing fell below the floats' at mu
        raise InvalidDgpError(f"dgp sigma {sigma!r} is too small beside mu {mu!r}: "
                              f"the population tables' {_NODES} nodes over "
                              f"{2 * _TAIL_SD:g} sigma do not increase")
    return x


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
    from scipy.special import ndtr

    x = _node_grid(mu, s, cap)
    b = np.asarray(bound(np.exp(x), z), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ub = np.where(b > 0, np.log(np.where(b > 0, b, 1.0)), -np.inf)
    ub = np.minimum(ub, cap)
    m = mu_o + r * (s_o / s) * (x - mu)
    inner = ndtr((ub - m) / (s_o * math.sqrt(1.0 - r * r)))
    return x, _cumulative_simpson(_normal_pdf(x, mu, s) * inner, x)


def _column(dgp: DgpSpec, z: float, log_y: np.ndarray) -> tuple:
    """(F0, F1, p) at one z."""
    from scipy.special import ndtr

    mu0, mu1, s0, s1, r = *_params_at(dgp, z), dgp.outcome_corr
    cap = dgp._log_cap()
    zero = np.zeros_like(log_y)
    if dgp.foresight == "imperfect":  # everyone takes the sector of larger mean
        if dgp.mean_shifted_income(z) >= dgp.outcome_mean(0, z):
            return zero, _truncated_normal_cdf(log_y, mu1, s1, cap), 1.0
        return _truncated_normal_cdf(log_y, mu0, s0, cap), zero, 0.0
    if _pure_roy_degenerate(dgp):  # equal incomes, ties to sector 1
        return zero, ndtr((log_y - mu0) / s0), 1.0
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
    from scipy.special import ndtr

    if not math.isfinite(cap):
        return ndtr((x - mu) / sigma)
    a = (cap - mu) / sigma
    return ndtr(np.minimum((x - mu) / sigma, a)) / ndtr(a)
