"""Sharp bounds on the non-pecuniary cost of sector 1.

Three constructions.  Under perfect foresight the deterministic cost
C(y, z) is squeezed pointwise: with the sandwich functions L <= H <= U
pinning the unobserved H(y|z) = P(Y - C(Y,Z) <= y, D=1 | z), inverting at
x = F1(y|z) gives

    Clow(y, z)  = max(0, y - Linv(F1(y|z) | z)),
    Chigh(y, z) = y - Uinv(F1(y|z) | z).

Under imperfect foresight (selection on mean utility) only per-z bounds on
a constant-in-y cost survive, built from running extrema of conditional
means.  With random (scalar, additively separable) costs among sector-1
choosers, the marginal cdf bounds on Y1 - C combine with the observed cdf
of Y1 given D=1 into two-marginal bounds on the cdf of C itself.

Cells where F1(y|z) sits below the identification tolerance carry no
information about sector-1 costs and are masked to NaN, as are cells where
the generalized inverse's defining set is empty on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelopes import CrossingReport, _inverse_count, crossing_test, envelope_table, sandwich
from .errors import DomainError
from .estimation import ConditionalCdfTable, conditional_mean, identification_tol
from .model import EvaluationGrid, ObservationSample


@dataclass(frozen=True)
class BoundSurface:
    """Pointwise cost bounds on a (y, z) grid with identification mask."""

    grid: EvaluationGrid
    Clow: np.ndarray
    Chigh: np.ndarray
    identified_mask: np.ndarray
    crossing: CrossingReport
    sandwich_crossing: CrossingReport
    identification_tol: float

    @property
    def rejected(self) -> bool:
        return self.crossing.rejected or self.sandwich_crossing.rejected


def cost_bounds_pf(table: ConditionalCdfTable, lower_support_bound: float = 0.0,
                   crossing_tol: float = 1e-9) -> BoundSurface:
    """Perfect-foresight bounds from envelope and sandwich inversion.

    Rejection (envelopes crossing, or L exceeding U) is flagged on the
    returned surface, never raised: population users may still inspect the
    cells.  When the surface is not rejected with crossing_tol=0 semantics,
    L <= U entrywise forces Clow <= Chigh at every identified cell.
    """
    id_tol = identification_tol(table.n_obs)
    Flow, Fhigh = envelope_table(table, lower_support_bound)
    report = crossing_test(Flow, Fhigh, crossing_tol)
    L, U = sandwich(table, Flow, Fhigh)
    sandwich_report = crossing_test(L, U, crossing_tol)

    y = table.grid.y
    x = table.F1
    idx_low = _inverse_count(L, x, "lower")
    idx_up = _inverse_count(U, x, "upper")
    # U never reaching x leaves the upper inverse's set empty on the grid;
    # the cell goes dark rather than carrying a -inf bound
    mask = (x >= id_tol) & (idx_up < y.size)
    linv = y[np.minimum(idx_low, y.size - 1)]
    # U already at/above x on the first grid point: the crossing sits
    # off-grid in [b_lower, y[0]] because shifted income of sector-1
    # choosers never falls below the outcome support bound
    uinv = np.where(idx_up == 0, min(lower_support_bound, y[0]),
                    y[np.maximum(idx_up - 1, 0)])
    Clow = np.where(mask, np.maximum(y[:, None] - linv, 0.0), np.nan)
    Chigh = np.where(mask, np.maximum(y[:, None] - uinv, 0.0), np.nan)
    return BoundSurface(grid=table.grid, Clow=Clow, Chigh=Chigh,
                        identified_mask=mask, crossing=report,
                        sandwich_crossing=sandwich_report,
                        identification_tol=id_tol)


@dataclass(frozen=True)
class IfBoundCurve:
    """Per-z bounds on a constant-in-y cost under imperfect foresight."""

    z_grid: np.ndarray
    Clow: np.ndarray
    Chigh: np.ndarray
    m: np.ndarray
    m0b: np.ndarray
    p: np.ndarray
    p_tol: float


def if_bounds_from_moments(z_grid, m, m0b, p, p_tol: float = 1e-6) -> IfBoundCurve:
    """Bounds from the moment vectors directly.

    Clow(z) scales the drop of m(z) below its running future minimum by
    1/p(z), zero where p(z) is below tolerance.  Chigh(z) compares m(z)
    against the running past maximum of m0b(z) = E[Y(1-D) + b_lower D | z];
    division by a p(z) below tolerance follows the x/0 = +inf convention.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    m = np.asarray(m, dtype=float)
    m0b = np.asarray(m0b, dtype=float)
    p = np.asarray(p, dtype=float)
    if not (z_grid.shape == m.shape == m0b.shape == p.shape) or z_grid.ndim != 1:
        raise DomainError("z grid and moment vectors must share a 1-D shape")
    if z_grid.size > 1 and np.any(np.diff(z_grid) <= 0):
        raise DomainError("z grid must be strictly increasing")

    future_min = np.flip(np.minimum.accumulate(np.flip(m)))
    past_max = np.maximum.accumulate(m0b)
    positive = p > p_tol
    Clow = np.zeros_like(m)
    Clow[positive] = np.maximum(m[positive] - future_min[positive], 0.0) / p[positive]
    Chigh = np.full_like(m, np.inf)
    Chigh[positive] = (m[positive] - past_max[positive]) / p[positive]
    return IfBoundCurve(z_grid=z_grid, Clow=Clow, Chigh=Chigh, m=m, m0b=m0b,
                        p=p, p_tol=p_tol)


def cost_bounds_if(sample: ObservationSample, z_grid,
                   bandwidth: float | None = None) -> IfBoundCurve:
    """Estimate the imperfect-foresight moment vectors and bound the cost,
    with the sample's identification tolerance as p_tol."""
    b_low = sample.lower_support_bound
    m, m0b, p = conditional_mean(
        sample, [sample.y, sample.y * (1.0 - sample.d) + b_low * sample.d, sample.d],
        z_grid, bandwidth)
    p = np.clip(p, 0.0, 1.0)
    return if_bounds_from_moments(z_grid, m, m0b, p, p_tol=identification_tol(sample.n))


@dataclass(frozen=True)
class TestabilityReport:
    """Joint refutation check available only where p vanishes."""

    rejected: bool
    worst_violation: float
    tol: float


def testability_if(curve: IfBoundCurve) -> TestabilityReport:
    """Reject iff m drops by more than tol = 1e-9 between two points with p <= tol."""
    tol = 1e-9
    m = curve.m[curve.p <= tol]
    # the largest drop m[a] - m[b] over a < b is the one from the running
    # maximum, exactly, since rounding x - m[b] is monotone in x; fmax skips
    # a NaN as a failed comparison would
    drops = np.fmax.accumulate(m)[:-1] - m[1:]
    worst = max(0.0, float(np.fmax.reduce(drops, initial=-np.inf)))
    return TestabilityReport(rejected=worst > tol, worst_violation=worst, tol=tol)


@dataclass(frozen=True)
class RandomCostCdfBounds:
    """Two-marginal bounds on the cost cdf among sector-1 choosers."""

    cost_grid: np.ndarray
    z_grid: np.ndarray
    FL: np.ndarray
    FU: np.ndarray
    identified_z: np.ndarray
    p_tol: float


def random_cost_bounds(table: ConditionalCdfTable, cost_grid,
                       lower_support_bound: float = 0.0) -> RandomCostCdfBounds:
    """Bound the cdf of C = Y1 - (Y1 - C) given D=1 from its two marginals.

    The shifted-income marginal is only partially identified, so the lower
    cost-cdf bound uses the upper marginal bound and vice versa.  The
    sup/inf defining the two-marginal bounds run over the union of the
    y-grid and the y-grid offset by the cost value, which contains every
    breakpoint of the step difference.
    """
    cost_grid = np.asarray(cost_grid, dtype=float)
    if cost_grid.ndim != 1 or cost_grid.size == 0:
        raise DomainError("cost grid must be a nonempty vector")
    p_tol = identification_tol(table.n_obs)
    Flow, Fhigh = envelope_table(table, lower_support_bound)
    y = table.grid.y
    nz = table.grid.z.size
    FL = np.full((cost_grid.size, nz), np.nan)
    FU = np.full((cost_grid.size, nz), np.nan)
    identified = table.p > p_tol
    c = cost_grid[:, None]
    t = np.concatenate([np.broadcast_to(y, (c.size, y.size)), y + c], axis=1)
    # right-continuous step read-offs: index k > 0 is grid point k - 1, 0 is below
    at_t = np.searchsorted(y, t, side="right")
    at_shift = np.searchsorted(y, t - c, side="right")
    for iz in np.flatnonzero(identified):
        p = table.p[iz]
        cond = np.clip(table.F1[:, iz] / p, 0.0, 1.0)
        low = np.clip((Flow[:, iz] - table.F[:, iz]) / p + cond, 0.0, 1.0)
        high = np.clip((Fhigh[:, iz] - table.F[:, iz]) / p + cond, 0.0, 1.0)
        # running max keeps low <= high since both pass through the same map
        cond, low, high = (np.concatenate([[0.0], np.maximum.accumulate(v)])
                           for v in (cond, low, high))
        # fmax/fmin give 0.0 for a zero or NaN extreme, as Python's max/min did
        FL[:, iz] = np.fmax(0.0, np.max(cond[at_t] - high[at_shift], axis=1))
        FU[:, iz] = 1.0 + np.fmin(0.0, np.min(cond[at_t] - low[at_shift], axis=1))
    return RandomCostCdfBounds(cost_grid=cost_grid, z_grid=table.grid.z,
                               FL=FL, FU=FU, identified_z=identified, p_tol=p_tol)
