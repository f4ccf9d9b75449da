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

The sample is sorted by z once, and each window is a contiguous range of z
ranks.  A draw is bucketed by window once, in O(n); a column then costs
O(m log m) in the m records of its window, plus one contiguous sum of 3n
floats that keeps the full-length summation order of the kernel moments.
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
    """One z column's kernel window: the z ranks [lo, hi) of the z-sorted
    sample, with their moments w, w dz, w dz^2 and their dz = z - z0 in z
    order.

    The window is one contiguous rank range: dz / h is monotone in z under
    correctly rounded arithmetic, and w > 0 exactly when fl(u^2) < 1, which
    holds on one interval of u.  Tied z get the same weight, so a window
    holds all of a tie or none of it.
    """

    z0: float
    lo: int
    hi: int
    moments: np.ndarray
    dz: np.ndarray

    def weights(self, buf: np.ndarray, pos: np.ndarray, k: np.ndarray,
                h: float) -> np.ndarray:
        """Intercept weights of the in-window draw positions ``pos``, whose
        records hold ``moments[:, k]``; NoSupportError if the window is empty.

        The moments are scattered into ``buf`` (all zero, one column per
        draw position) and summed there: the full-length array with +0.0
        outside the window, in the draw's pairwise summation order.  ``buf``
        is all zero again on return, raise or not.  A singular design (all
        in-window z equal) takes the Nadaraya-Watson weights w / s0.
        """
        mom = np.take(self.moments, k, axis=1)
        # row by row: a 1-d scatter is several times faster than buf[:, pos]
        try:
            for row, m in zip(buf, mom):
                row[pos] = m
            s0, s1, s2 = buf.sum(axis=1).tolist()
        finally:
            for row in buf:
                row[pos] = 0.0
        if s0 <= 0.0:
            raise NoSupportError(self.z0, h)
        w = mom[0]
        den = s0 * s2 - s1 * s1
        if den <= _SINGULAR_REL_TOL * max(s0 * s2, s1 * s1, s0 * s0 * h * h):
            return w / s0
        return w * (s2 - s1 * self.dz[k]) / den


def _windows(z: np.ndarray, z_grid, h: float) -> tuple:
    """A z order of the records and the kernel window of each z0.

    Tied z may come in any order: every per-record quantity is looked up
    through this same order, and no sum depends on it.
    """
    order = np.argsort(z)
    zs = z[order]
    windows = []
    for z0 in map(float, z_grid):
        inside = np.flatnonzero(epanechnikov((zs - z0) / h) > 0.0)
        lo, hi = (int(inside[0]), int(inside[-1]) + 1) if inside.size else (0, 0)
        dz = zs[lo:hi] - z0
        w = epanechnikov(dz / h)
        wdz = w * dz
        windows.append(_Window(z0=z0, lo=lo, hi=hi, moments=np.array([w, wdz, wdz * dz]),
                               dz=dz))
    return order, windows


class TableKernel:
    """Local linear CDF tables of one sample, or of any index draw from it.

    A draw ``idx`` stands for the resample ``(y[idx], d[idx], z[idx])``, as a
    pairs bootstrap makes it, and None for the sample itself; ``tables``
    returns the tables of a stack of draws without building any resample.
    The constructor ranks y once, sorts z once and finds each z column's
    window as a range of z ranks, with its records' y ranks and d in z
    order.  The window bounds cut the z ranks into segments, and each record
    carries its segment's small-int id.

    Per draw, one gather of the records' z ranks and segment ids and one
    stable (radix) argsort of the ids group the draw positions by segment,
    in draw order within each; a window's in-window positions are then one
    slice of that permutation (for the sample itself, the z order is that
    permutation), and nothing per column touches all n draw positions but
    the moment sum.  Per column:

    * the intercept weights come from ``_Window.weights``;
    * only the in-window records (a few percent of n at the default
      bandwidth) are sorted, by y and then draw position: the full stable
      sort restricted to the window, ties included;
    * their cumulative sums give F and F1 at the y grid;
    * F is pinned to 1 where y >= the largest y drawn, as the weights sum
      to one algebraically.

    So a draw costs O(n) once, and a column with m records in its window
    O(m log m + n_y log m) plus one contiguous sum of 3n floats.  One
    ``_repair_columns`` call repairs the stack.  Every zero is +0.0.
    """

    def __init__(self, sample: ObservationSample, grid: EvaluationGrid,
                 bandwidth: float | None = None):
        h = resolve_bandwidth(sample.z, bandwidth)
        n = sample.n
        self.sample = sample
        self.grid = grid
        self.bandwidth = h
        order = np.argsort(sample.y)
        y_sorted = sample.y[order]
        self._ymax = y_sorted[-1]
        first = np.concatenate(([True], y_sorted[1:] != y_sorted[:-1]))
        # rank of y among the distinct values: equal y, equal rank, in any
        # order of the ties
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.cumsum(first) - 1
        # a record's y is at most grid.y[i] exactly when its key
        # rank * (n + 1) + draw position lies below _ykey[i]
        self._ykey = np.searchsorted(y_sorted[first], grid.y, side="right") * (n + 1)
        self._zorder, self._windows = _windows(sample.z, grid.z, h)
        self._zrank = np.empty(n, dtype=np.intp)
        self._zrank[self._zorder] = np.arange(n)
        # each window's records in z order: their y rank key and d
        inside = [self._zorder[w.lo:w.hi] for w in self._windows]
        self._keys = [rank[r] * (n + 1) for r in inside]
        self._ds = [sample.d[r].astype(float) for r in inside]
        # segments: the cells that the window bounds cut the z ranks into;
        # _starts[s] is where segment s starts in the z order.  Ids of 8 or
        # 16 bits (up to 65 536 segments) make the stable argsort a radix sort
        self._starts = np.unique([0, n] + [b for w in self._windows for b in (w.lo, w.hi)])
        ids = np.arange(self._starts.size - 1)
        self._seg = np.empty(n, dtype=np.min_scalar_type(ids[-1]))
        self._seg[self._zorder] = np.repeat(ids, np.diff(self._starts))
        self._spans = [np.searchsorted(self._starts, (w.lo, w.hi)) for w in self._windows]
        self._buf = np.zeros((3, n))

    def tables(self, draws) -> tuple:
        """Repaired F, F0, F1 of shape (c, n_y, n_z) and p of shape (c, n_z)
        for an iterable of c draws."""
        F, F1, p = (np.stack(a) for a in zip(*map(self._raw, draws)))
        F, F0, F1 = _repair_columns(F, F - F1, F1)
        # adding +0.0 is exact for every nonzero value and turns -0.0 into +0.0
        return F + 0.0, F0 + 0.0, F1 + 0.0, np.clip(p, 0.0, 1.0) + 0.0

    def _raw(self, idx) -> tuple:
        """Raw F and F1 on the grid, and p, of one draw."""
        if idx is None:
            ymax, zrank, by_seg, starts = self._ymax, self._zrank, self._zorder, self._starts
        else:
            # the one pass over the draw: z ranks, and positions by segment
            ymax = np.max(self.sample.y[idx])
            zrank = self._zrank[idx]
            seg = self._seg[idx]
            by_seg = np.argsort(seg, kind="stable")
            counts = np.bincount(seg, minlength=self._starts.size - 1)
            starts = np.concatenate(([0], np.cumsum(counts)))
        F, F1 = np.empty((2,) + self.grid.shape)
        p = np.empty(self.grid.z.size)
        for j, (win, (a, b)) in enumerate(zip(self._windows, self._spans)):
            pos = by_seg[starts[a]:starts[b]]
            F[:, j], F1[:, j], p[j] = self._column(j, pos, zrank[pos] - win.lo)
        F[self.grid.y >= ymax] = 1.0
        return F, F1, p

    def _column(self, j: int, pos: np.ndarray, k: np.ndarray) -> tuple:
        """Raw F and F1 on the y grid, and p, for z column j from its
        in-window draw positions ``pos`` and their records' offsets ``k`` in
        the window."""
        a = self._windows[j].weights(self._buf, pos, k, self.bandwidth)
        # unique keys (y rank, then draw position) let the faster unstable
        # sort give the stable order, whatever the order of pos
        key = self._keys[j][k] + pos
        order = np.argsort(key)
        aw = a[order]
        cum_all = np.concatenate(([0.0], np.cumsum(aw)))
        cum_d1 = np.concatenate(([0.0], np.cumsum(aw * self._ds[j][k[order]])))
        at = np.searchsorted(key[order], self._ykey)
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
    O(n log n) sort each of y and z, O(n) per z column to find its window,
    and O(m log m + n_y log m) per column for the m in-window records plus
    one contiguous sum of 3n floats, then the repair of ``_repair_columns``.
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
    order, windows = _windows(sample.z, np.asarray(z_grid, dtype=float), h)
    buf = np.zeros((3, sample.n))
    for j, win in enumerate(windows):
        pos = order[win.lo:win.hi]
        a = np.zeros(sample.n)
        a[pos] = win.weights(buf, pos, np.arange(pos.size), h)
        for i, r in enumerate(stack):
            out[i, j] = float(a @ r)
    return out.reshape(responses.shape[:-1] + (len(z_grid),))
