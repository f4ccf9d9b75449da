"""Local linear estimation of conditional CDF tables.

All conditional objects are estimated the same way: an Epanechnikov-weighted
local linear regression of an indicator (or of y itself) on z, evaluated at
each grid point z0.  Because the fit is linear in the responses, the
intercept is a fixed linear functional of the records once z0 and the
bandwidth are fixed: one set of weights per z column, over the records in
its kernel window, computed in one place (``_Window.weights``).
``TableKernel`` applies them as weighted cumulative sums over a y grid, for
a sample and for any bootstrap index draw from it; ``conditional_mean``
applies them to one response vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoSupportError
from .model import EvaluationGrid, ObservationSample

_SINGULAR_REL_TOL = 1e-12


def epanechnikov(u: np.ndarray) -> np.ndarray:
    """K(u) = 0.75 (1 - u^2) on |u| <= 1."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def silverman_bandwidth(z: np.ndarray) -> float:
    """Rule-of-thumb default bandwidth: 1.06 min(sd, iqr/1.34) n^(-1/5)."""
    z = np.asarray(z, dtype=float)
    n = z.size
    sd = float(np.std(z))
    q75, q25 = np.quantile(z, [0.75, 0.25])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    if scale <= 0:
        scale = max(abs(float(np.mean(z))), 1.0) * 0.1
    return 1.06 * scale * n ** (-0.2)


def resolve_bandwidth(z: np.ndarray, bandwidth: float | None) -> float:
    """The given bandwidth, or Silverman's rule on z when it is None."""
    h = float(bandwidth) if bandwidth is not None else silverman_bandwidth(z)
    if h <= 0:
        raise DomainError("bandwidth must be positive")
    return h


def identification_tol(n_obs: int | None) -> float:
    """Cells with F1 (or p) below this are unidentified; n_obs None: population."""
    if n_obs is None:
        return 1e-6
    return max(5.0 / n_obs, 1e-3)


@dataclass(frozen=True)
class ConditionalCdfTable:
    """Estimated (or analytic) conditional CDF decomposition on a grid.

    F[i, j]  = P(Y <= y_i | z_j)
    F0[i, j] = P(Y <= y_i, D = 0 | z_j)
    F1[i, j] = P(Y <= y_i, D = 1 | z_j)
    p[j]     = P(D = 1 | z_j)

    Invariants: entries in [0, 1], F = F0 + F1 entrywise, each column non
    decreasing in y.  ``n_obs`` is None for population tables.
    """

    grid: EvaluationGrid
    F: np.ndarray
    F0: np.ndarray
    F1: np.ndarray
    p: np.ndarray
    bandwidth: float | None = None
    n_obs: int | None = None

    def __post_init__(self):
        shape = self.grid.shape
        for name in ("F", "F0", "F1"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise DomainError(f"{name} must have shape {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        p = np.asarray(self.p, dtype=float)
        if p.shape != (shape[1],):
            raise DomainError("p must have one entry per z grid point")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class _Window:
    """One z column's kernel window over the sample records.

    ``slot[i]`` is 0 for a record outside the window (zero weight) and
    k + 1 for the k-th record inside it, so ``moments[:, slot]`` gives every
    record's w, w dz and w dz^2, and ``dz[slot]`` its z - z0.
    """

    z0: float
    slot: np.ndarray
    moments: np.ndarray
    dz: np.ndarray

    def weights(self, slots: np.ndarray, h: float) -> tuple:
        """In-window positions ``pos`` of ``slots`` (``slot`` or a draw of it)
        and their intercept weights ``a``; NoSupportError if the window is empty.

        The kernel moments sum the full-length gathered weights, in the
        draw's pairwise summation order (``np.take`` gathers contiguous rows;
        ``moments[:, slots]`` does not, and sums in another order).  A
        singular design (all in-window z equal) takes the Nadaraya-Watson
        weights w / s0.
        """
        s0, s1, s2 = np.take(self.moments, slots, axis=1).sum(axis=1).tolist()
        if s0 <= 0.0:
            raise NoSupportError(self.z0, h)
        pos = (slots != 0).nonzero()[0]
        k = slots[pos]
        w = self.moments[0, k]
        den = s0 * s2 - s1 * s1
        if den <= _SINGULAR_REL_TOL * max(s0 * s2, s1 * s1, s0 * s0 * h * h):
            return pos, w / s0
        return pos, w * (s2 - s1 * self.dz[k]) / den


def _window(z: np.ndarray, z0: float, h: float) -> _Window:
    dz = z - z0
    w = epanechnikov(dz / h)
    wdz = w * dz
    inside = np.flatnonzero(w > 0.0)
    slot = np.zeros(z.size, dtype=np.intp)
    slot[inside] = np.arange(1, inside.size + 1)
    moments = np.zeros((3, inside.size + 1))
    moments[:, 1:] = (w[inside], wdz[inside], wdz[inside] * dz[inside])
    return _Window(z0=z0, slot=slot, moments=moments,
                   dz=np.concatenate(([0.0], dz[inside])))


class TableKernel:
    """Local linear CDF tables of one sample, or of any index draw from it.

    A draw ``idx`` stands for the resample ``(y[idx], d[idx], z[idx])``, as a
    pairs bootstrap makes it, and None for the sample itself; ``tables``
    returns the tables of a stack of draws without building any resample.
    The constructor ranks y once and computes the Epanechnikov weights of
    each z column.  Per draw and column:

    * the intercept weights come from ``_Window.weights``;
    * only the in-window records (a few percent of n at the default
      bandwidth) are sorted, by y and then draw position: the full stable
      sort restricted to the window, ties included;
    * their cumulative sums give F and F1 at the y grid;
    * F is pinned to 1 where y >= the largest y drawn, as the weights sum
      to one algebraically.

    One ``_repair_columns`` call repairs the stack.  Every zero is +0.0.
    """

    def __init__(self, sample: ObservationSample, grid: EvaluationGrid,
                 bandwidth: float | None = None):
        h = resolve_bandwidth(sample.z, bandwidth)
        self.sample = sample
        self.grid = grid
        self.bandwidth = h
        self._d = sample.d.astype(float)
        order = np.argsort(sample.y, kind="stable")
        y_sorted = sample.y[order]
        self._ymax = y_sorted[-1]
        # rank of y among the distinct values: equal y, equal rank
        self._rank = np.empty(sample.n, dtype=np.intp)
        self._rank[order] = np.concatenate(
            ([0], np.cumsum(y_sorted[1:] != y_sorted[:-1])))
        self._windows = [_window(sample.z, float(z0), h) for z0 in grid.z]

    def tables(self, draws) -> tuple:
        """Repaired F, F0, F1 of shape (c, n_y, n_z) and p of shape (c, n_z)
        for an iterable of c draws."""
        F, F1, p = (np.stack(a) for a in zip(*map(self._raw, draws)))
        F, F0, F1 = _repair_columns(F, F - F1, F1)
        # adding +0.0 is exact for every nonzero value and turns -0.0 into +0.0
        return F + 0.0, F0 + 0.0, F1 + 0.0, np.clip(p, 0.0, 1.0) + 0.0

    def _raw(self, idx) -> tuple:
        """Raw F and F1 on the grid, and p, of one draw."""
        ymax = self._ymax if idx is None else np.max(self.sample.y[idx])
        F, F1 = np.empty((2,) + self.grid.shape)
        p = np.empty(self.grid.z.size)
        for j, win in enumerate(self._windows):
            F[:, j], F1[:, j], p[j] = self._column(win, idx)
        F[self.grid.y >= ymax] = 1.0
        return F, F1, p

    def _column(self, win: _Window, idx) -> tuple:
        """Raw F and F1 on the y grid, and p, for one z column."""
        slots = win.slot if idx is None else win.slot[idx]
        pos, a = win.weights(slots, self.bandwidth)
        rec = pos if idx is None else idx[pos]
        # unique keys (y rank, then draw position) let the faster unstable
        # sort give the stable order
        order = np.argsort(self._rank[rec] * (self.sample.n + 1) + pos)
        rec = rec[order]
        aw = a[order]
        cum_all = np.concatenate(([0.0], np.cumsum(aw)))
        cum_d1 = np.concatenate(([0.0], np.cumsum(aw * self._d[rec])))
        at = np.searchsorted(self.sample.y[rec], self.grid.y, side="right")
        return cum_all[at], cum_d1[at], float(cum_d1[-1])


def _repair_columns(F: np.ndarray, F0: np.ndarray, F1: np.ndarray) -> tuple:
    """Clip to [0, 1], restore F = F0 + F1, and monotonize in y (axis -2).

    Works on one table or a stack of them.  F is clipped then run-max'ed;
    F1 follows a running maximum whose per-step increments are capped by
    those of F, which keeps F0 = F - F1 monotone as well.  Raw local linear
    output can overshoot [0, 1] near boundaries, and the raw decomposition
    survives clipping only through the proportional rescale below.
    """
    Fc, F0c, F1c = (np.clip(a, 0.0, 1.0) for a in (F, F0, F1))
    s = F0c + F1c
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(s > 0, Fc / np.where(s > 0, s, 1.0), 0.0)
    F1c = F1c * scale
    Fm = np.clip(np.maximum.accumulate(Fc, axis=-2), 0.0, 1.0)
    F1m = np.empty_like(F1c)
    step = np.diff(Fm, axis=-2)
    prev = F1m[..., 0, :] = np.clip(F1c[..., 0, :], 0.0, Fm[..., 0, :])
    # the running clip is sequential in y: one np.clip per row of the stack
    for i in range(1, F1c.shape[-2]):
        prev = F1m[..., i, :] = np.clip(F1c[..., i, :], prev, prev + step[..., i - 1, :])
    return Fm, Fm - F1m, F1m


def estimate_tables(sample: ObservationSample, grid: EvaluationGrid,
                    bandwidth: float | None = None) -> ConditionalCdfTable:
    """Estimate the conditional CDF decomposition on a grid.

    One set of local linear weights is computed per z column and applied to
    every indicator response via a weighted cumulative sum over the records
    inside the column's kernel window (``TableKernel``).  The cost is one
    O(n log n) sort of y, O(n) per z column for the weights, and
    O(m log m + n_y log m) per column for the m in-window records, then
    the repair of ``_repair_columns``.
    """
    kernel = TableKernel(sample, grid, bandwidth)
    F, F0, F1, p = (a[0] for a in kernel.tables([None]))  # a stack of one
    return ConditionalCdfTable(grid=grid, F=F, F0=F0, F1=F1, p=p,
                               bandwidth=kernel.bandwidth, n_obs=sample.n)


def conditional_mean(sample: ObservationSample, responses: np.ndarray,
                     z_grid: np.ndarray, bandwidth: float | None = None) -> np.ndarray:
    """Local linear E[response | z] over a z grid, one response per record.

    ``responses`` is one vector of n or a (k, n) stack; the result has one
    entry, or one row per response, per z.  The tables' weights
    (``_Window.weights``) are built once per z and applied to each response
    as its own full-length dot product that is zero outside the window: the
    summation order over all n, which a matrix product would not keep.
    """
    h = resolve_bandwidth(sample.z, bandwidth)
    responses = np.asarray(responses, dtype=float)
    if responses.shape[-1:] != sample.z.shape or responses.ndim > 2:
        raise DomainError("responses must align with the sample records")
    stack = responses.reshape(-1, sample.n)
    out = np.empty((len(stack), len(z_grid)))
    for j, z0 in enumerate(np.asarray(z_grid, dtype=float)):
        win = _window(sample.z, float(z0), h)
        pos, a_in = win.weights(win.slot, h)
        a = np.zeros(sample.n)
        a[pos] = a_in
        for i, r in enumerate(stack):
            out[i, j] = float(a @ r)
    return out.reshape(responses.shape[:-1] + (len(z_grid),))
