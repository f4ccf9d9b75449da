"""Scalar and simulation oracles that only the tests call.

They are kept out of the package because no command and no script reaches
them: each checks a vectorized package path against a slower direct form.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from roybounds.bounds import BoundSurface
from roybounds.errors import DomainError
from roybounds.estimation import estimate_tables
from roybounds.inference import _pairs
from roybounds.model import DgpSpec, EvaluationGrid, ObservationSample, true_cost
from roybounds.population import _TAIL_SD, _params_at


def generalized_inverse(y_grid: np.ndarray, values: np.ndarray, x: float,
                        kind: str = "lower") -> float:
    """Generalized inverse of a non-decreasing tabulated column.

    kind="lower": sup{y : v(y) <= x}, resolved on the grid as the first
    point whose value exceeds x (the set's supremum may be a limit from an
    open interval, so it lands on the boundary point itself).  kind="upper"
    mirrors it from the other side: inf{y : v(y) >= x}, resolved as the
    last grid point whose value stays below x, since the tabulation only
    brackets the crossing between two adjacent points and cost bounds need
    the conservative end of that bracket.  Both clamp to the grid endpoints
    when the defining set is empty or everything qualifies; callers that
    must distinguish emptiness check the column range themselves.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if y_grid.shape != values.shape or y_grid.ndim != 1:
        raise DomainError("y grid and values must be equal-length vectors")
    if y_grid.size == 0:
        raise DomainError("cannot invert an empty column")
    if kind not in ("lower", "upper"):
        raise DomainError(f"unknown inverse kind {kind!r}")
    side = "right" if kind == "lower" else "left"
    idx = int(np.searchsorted(values, x, side=side))
    if idx >= y_grid.size:
        return float(y_grid[-1])
    if idx == 0:
        return float(y_grid[0])
    return float(y_grid[idx if kind == "lower" else idx - 1])


def searchsorted_theta(y: np.ndarray, F1: np.ndarray, Gstar: np.ndarray,
                       side: str) -> tuple:
    """The band's fiber inversion one pair at a time, as ``np.searchsorted``.

    Same arguments and results as ``inference._theta`` on a stack: the fiber
    of pair (i, j) is inverted at F1(y|i), ``side="right"`` for the lower
    inverse and ``side="left"`` for the upper.
    """
    ny = y.size
    theta = np.empty(Gstar.shape)
    clamped = np.zeros(Gstar.shape, dtype=bool)
    for b in range(Gstar.shape[0]):
        for k, (i, _) in enumerate(_pairs(F1.shape[-1], side)):
            x = F1[b, :, i]
            if side == "lower":
                idx = np.searchsorted(Gstar[b, :, k], x, side="right")
                clamped[b, :, k] = idx == 0
                theta[b, :, k] = y[np.minimum(idx, ny - 1)]
            else:
                idx = np.searchsorted(Gstar[b, :, k], x, side="left")
                clamped[b, :, k] = (idx == ny) | (idx == 0)
                theta[b, :, k] = y[np.where(idx >= ny, ny - 1, np.maximum(idx - 1, 0))]
    return theta, clamped


def cost_from_utilities(pair, y: float, z: float, tol: float = 1e-10) -> float:
    """Cost implied by a utility pair (u0, u1): y - u0^{-1}(u1(y, z), z).

    Both utilities are callables of (y, z), increasing in y at every z.  The
    inverse is taken in the first argument of u0 by bracketed root-finding
    (bracket expanded geometrically, then Brent) to absolute tolerance
    ``tol``.  Invariant under common strictly increasing transformations of
    both utilities.

    Raises
    ------
    ValueError
        if u0 is detected non-monotone on the bracket.
    DomainError
        if no bracket containing the root can be found.
    """
    from scipy import optimize

    u0, u1 = pair
    y = float(y)
    z = float(z)
    target = float(u1(y, z))

    def g(x: float) -> float:
        return float(u0(x, z)) - target

    lo, hi = y - 1.0, y + 1.0
    glo, ghi = g(lo), g(hi)
    width = 2.0
    for _ in range(200):
        if glo > ghi + 1e-12:
            raise ValueError("u0 decreasing over the search bracket")
        if glo <= 0.0 <= ghi:
            break
        width *= 2.0
        if glo > 0.0:
            lo -= width
            glo = g(lo)
        if ghi < 0.0:
            hi += width
            ghi = g(hi)
    else:
        raise DomainError("could not bracket u0 inverse; u0 may not span u1's value")

    probes = np.array([g(x) for x in np.linspace(lo, hi, 9)])
    if np.any(np.diff(probes) < -1e-9 * max(1.0, np.max(np.abs(probes)))):
        raise ValueError("u0 non-monotone on the bracket")

    root = optimize.brentq(g, lo, hi, xtol=min(tol, 1e-10) * 0.1, rtol=8.9e-16)
    return y - root


def utility_pair(dgp: DgpSpec) -> tuple:
    """Static utility pair (u0, u1) whose implied cost equals the family closed form.

    The quasi-linear and multiplicative pairs are the structural sector
    utilities themselves.  The quadratic and isoelastic families price risk
    through conditional moments, so the returned pair is the cost-equivalent
    static representation (u0 the identity, u1 shifted income).
    """
    if dgp.family == "quasi_linear":
        return (lambda y, z: y + float(dgp.g0(z)),
                lambda y, z: y + float(dgp.g1(z)))
    if dgp.family == "multiplicative":
        return (lambda y, z: float(dgp.g0(z)) * y,
                lambda y, z: float(dgp.g1(z)) * y)
    if dgp.family == "pure_roy":
        return (lambda y, z: y, lambda y, z: y)
    return (lambda y, z: y, lambda y, z: y - float(true_cost(dgp, y, z)))


@dataclass(frozen=True)
class SmivReport:
    """Outcome of a stochastic-monotonicity check."""

    ok: bool
    worst_violation: float
    location: tuple | None
    mode: str


def check_smiv_data(sample: ObservationSample, cost, y_grid, z_grid,
                    tol: float = 1e-9, bandwidth: float | None = None) -> SmivReport:
    """Observable-implication check on data under a candidate cost."""
    y_grid = np.asarray(y_grid, dtype=float)
    z_grid = np.asarray(z_grid, dtype=float)
    c = np.asarray(cost(sample.y, sample.z), dtype=float)
    v = sample.y - sample.d * c
    shifted = ObservationSample(y=v, d=sample.d, z=sample.z,
                                lower_support_bound=float(min(np.min(v), 0.0)))
    table = estimate_tables(shifted, EvaluationGrid(y=y_grid, z=z_grid), bandwidth=bandwidth)
    return _monotone_in_z_report(table.F, list(y_grid), z_grid, tol, mode="data")


def _monotone_in_z_report(mat: np.ndarray, row_labels, z_grid, tol: float, mode: str) -> SmivReport:
    """Non-increasing-in-z check for a matrix with one column per z."""
    if mat.shape[1] < 2:
        return SmivReport(ok=True, worst_violation=0.0, location=None, mode=mode)
    inc = np.diff(mat, axis=1)  # positive entries are violations
    worst = float(np.max(inc))
    if worst <= tol:
        return SmivReport(ok=True, worst_violation=max(worst, 0.0), location=None, mode=mode)
    iy, iz = np.unravel_index(int(np.argmax(inc)), inc.shape)
    loc = (row_labels[iy], float(z_grid[iz + 1]))
    return SmivReport(ok=False, worst_violation=worst, location=loc, mode=mode)


def _node_grid(mu: float, sigma: float, cap: float, nodes: int) -> np.ndarray:
    """``population._node_grid`` with its own node count."""
    hi = min(mu + _TAIL_SD * sigma, cap)
    lo = hi - 2.0 * _TAIL_SD * sigma
    return np.linspace(lo, hi, nodes)


def lower_orthant_table(dgp: DgpSpec, a_grid: np.ndarray, b_grid: np.ndarray,
                        z: float, nodes: int = 4001) -> np.ndarray:
    """P(Y0 <= a, Y1 - C(Y1, z) <= b | z) over an (a, b) grid at one z."""
    from scipy.integrate import cumulative_simpson
    from scipy.stats import norm

    a_grid = np.asarray(a_grid, dtype=float)
    b_grid = np.asarray(b_grid, dtype=float)
    mu0, mu1, s0, s1, r = *_params_at(dgp, float(z)), dgp.outcome_corr
    cap = dgp._log_cap()
    inv = np.asarray(dgp.shifted_income_inverse(b_grid, z), dtype=float)
    with np.errstate(divide="ignore"):
        beta = np.where(inv > 0, np.log(np.where(inv > 0, inv, 1.0)), -np.inf)
    beta = np.where(np.isposinf(inv), np.inf, beta)
    with np.errstate(divide="ignore"):
        alpha = np.where(a_grid > 0, np.log(np.where(a_grid > 0, a_grid, 1.0)), -np.inf)

    if abs(r) >= 1.0:
        if math.isfinite(cap):
            raise DomainError("degenerate correlation with truncation is unsupported")
        pa = norm.cdf((alpha - mu0) / s0)
        pb = norm.cdf((beta - mu1) / s1)
        if r >= 1.0:
            return np.minimum(pa[:, None], pb[None, :])
        return np.maximum(0.0, pa[:, None] + pb[None, :] - 1.0)

    x1 = _node_grid(mu1, s1, cap, nodes)
    m0 = mu0 + r * (s0 / s1) * (x1 - mu1)
    sc0 = s0 * math.sqrt(1.0 - r * r)
    phi1 = norm.pdf(x1, loc=mu1, scale=s1)
    if math.isfinite(cap):
        total = cumulative_simpson(phi1 * norm.cdf((cap - m0) / sc0), x=x1, initial=0.0)
        normalizer = float(total[-1])
    else:
        normalizer = 1.0

    out = np.empty((a_grid.size, b_grid.size))
    beta_eval = np.minimum(beta, x1[-1])
    for i, al in enumerate(alpha):
        thresh = min(al, cap) if math.isfinite(cap) else al
        integrand = phi1 * norm.cdf((thresh - m0) / sc0)
        cum = cumulative_simpson(integrand, x=x1, initial=0.0)
        row = np.interp(beta_eval, x1, cum, left=0.0, right=float(cum[-1]))
        out[i, :] = np.where(np.isneginf(beta), 0.0, row) / normalizer
    return out


def check_smiv_dgp(dgp: DgpSpec, y_grid, z_grid, tol: float = 1e-9,
                   b_grid=None, nodes: int = 4001) -> SmivReport:
    """DGP-mode stochastic monotonicity check on joint lower orthants."""
    y_grid = np.asarray(y_grid, dtype=float)
    z_grid = np.asarray(z_grid, dtype=float)
    if y_grid.size == 0 or z_grid.size == 0:
        raise DomainError("check_smiv_dgp needs non-empty grids")
    b_grid = y_grid if b_grid is None else np.asarray(b_grid, dtype=float)
    stacked = np.empty((y_grid.size * b_grid.size, z_grid.size))
    for j, z in enumerate(z_grid):
        stacked[:, j] = lower_orthant_table(dgp, y_grid, b_grid, float(z), nodes=nodes).ravel()
    labels = [(float(a), float(b)) for a in y_grid for b in b_grid]
    return _monotone_in_z_report(stacked, labels, z_grid, tol, mode="dgp")


def lower_bound_interpolator(surface: BoundSurface):
    """Callable (y, z) -> Clow, linear in y over identified cells, nearest z.

    Columns with no identified cell fall back to zero cost (no claim is
    made there, and zero keeps the shifted income map the identity).
    """
    y_grid = surface.grid.y
    z_grid = surface.grid.z
    columns = []
    for iz in range(z_grid.size):
        keep = surface.identified_mask[:, iz]
        if np.any(keep):
            columns.append((y_grid[keep], surface.Clow[keep, iz]))
        else:
            columns.append(None)

    def evaluate(y, z):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        z = np.atleast_1d(np.asarray(z, dtype=float))
        iz = np.argmin(np.abs(z[:, None] - z_grid[None, :]), axis=1)
        out = np.zeros_like(y)
        for col in np.unique(iz):
            sel = iz == col
            if columns[col] is not None:
                knots, vals = columns[col]
                out[sel] = np.interp(y[sel], knots, vals)
        return out

    return evaluate


def resimulate_sample(sample: ObservationSample, surface: BoundSurface) -> ObservationSample:
    """Rebuild observables under the lower-bound cost.

    Potential outcomes are reconstructed record by record: the sector-0
    value is y - d * Clow(y, z) and the sector-1 value inverts the shifted
    income map m(y) = y - Clow(y, z) on the grid (so it lands on a grid
    point; round-trip error is at most one grid step).  Sector choices are
    kept: the reconstruction makes every record exactly indifferent, and
    ties resolve to the observed sector.
    """
    cost_at = lower_bound_interpolator(surface)
    y_grid = surface.grid.y
    z_grid = surface.grid.z
    v = sample.y - sample.d * cost_at(sample.y, sample.z)
    y1 = np.empty_like(v)
    iz = np.argmin(np.abs(sample.z[:, None] - z_grid[None, :]), axis=1)
    for col in np.unique(iz):
        sel = iz == col
        keep = surface.identified_mask[:, col]
        if np.any(keep):
            knots = y_grid[keep]
            # protect inversion against sub-tolerance wiggles in y - Clow
            m = np.maximum.accumulate(knots - surface.Clow[keep, col])
            idx = np.searchsorted(m, v[sel], side="right")
            y1[sel] = knots[np.minimum(idx, knots.size - 1)]
        else:
            y1[sel] = v[sel]
    y_new = np.where(sample.d == 1, y1, v)
    b_low = min(sample.lower_support_bound, float(np.min(y_new)))
    return ObservationSample(y=y_new, d=sample.d, z=sample.z,
                             lower_support_bound=b_low)


def parse_float(s: str) -> float:
    s = s.strip()
    if s == "":
        return math.nan
    if s == "inf":
        return math.inf
    if s == "-inf":
        return -math.inf
    return float(s)


def read_long_csv(path):
    """Generic reader for any artifact CSV: (columns dict, config dict or None).

    Blank lines are skipped, as ``ingest_csv`` skips them.  Columns parse to
    float arrays; label columns that contain any non-numeric cell come back
    as string arrays instead.
    """
    config = None
    with open(path, newline="") as handle:
        header = None
        data = []
        reader = csv.reader(handle)
        for row in reader:
            if not row:
                continue
            if row[0].lstrip().startswith("#"):
                text = ",".join(row)
                stripped = text.lstrip().lstrip("#").strip()
                if stripped.startswith("config:"):
                    config = json.loads(stripped[len("config:"):])
                continue
            if header is None:
                header = [c.strip() for c in row]
                continue
            data.append(row)
    if header is None:
        raise DomainError("empty file: no header row")
    out = {}
    for k, name in enumerate(header):
        cells = [row[k] for row in data]
        try:
            out[name] = np.array([parse_float(c) for c in cells])
        except ValueError:
            out[name] = np.array(cells)
    return out, config
