"""Local linear estimation of conditional CDF tables.

All conditional objects are estimated the same way: an Epanechnikov-weighted
local linear regression of an indicator (or of y itself) on z, evaluated at
each grid point z0.  Because the fit is linear in the responses, the
intercept is a fixed linear functional of the records once z0 and the
bandwidth are fixed: one set of weights per z column, over the records in
its kernel window, computed in one place (``_Windows.weights``).
``TableKernel`` applies them as weighted cumulative sums over a y grid, for
any index draw from a sample, the sample itself being the identity draw;
``conditional_mean`` applies them to one response vector.

The sample is sorted by z once, and each window is a contiguous range of z
ranks, found by bisection in O(m + log n) for its m records.  A draw is
bucketed by window once, in O(n).  Its (draw, column) cells then run in
groups of consecutive cells, a stack's small windows many to a group, and
the cost model is a fixed set of numpy calls per group of cells: O(m log m)
in each cell's m records, plus one contiguous sum of 3n floats per cell
that keeps the full-length summation order of the kernel moments.
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


class _Windows:
    """The kernel window of each z0 in a z grid, as a range [lo, hi) of the
    z ranks of the sample, and the moments w, w dz, w dz^2 and dz = z - z0
    of each window's records, in z order, all windows' one after another.

    A window is one contiguous rank range: dz / h is monotone in z under
    correctly rounded arithmetic, and w > 0 exactly when fl(u^2) < 1, which
    holds on one interval of u.  Tied z get the same weight, so a window
    holds all of a tie or none of it.  The records of window j with z ranks
    r sit at ``base[j] + r`` in ``moments`` and ``dz``.
    """

    def __init__(self, z: np.ndarray, z_grid, h: float):
        # tied z may come in any order: every per-record quantity is looked
        # up through this same order, and no sum depends on it
        self.order = np.argsort(z)
        zs = z[self.order]
        self.z0 = np.asarray(z_grid, dtype=float)
        self.h = h
        self.lo = np.empty(self.z0.size, dtype=np.intp)
        self.hi = np.empty_like(self.lo)
        for j, z0 in enumerate(self.z0.tolist()):
            # |u| < 1 lies well inside [z0 - 2h, z0 + 2h], rounding of the
            # ends included, so the exact weight test need only run there
            a = int(np.searchsorted(zs, z0 - 2.0 * h, side="left"))
            b = int(np.searchsorted(zs, z0 + 2.0 * h, side="right"))
            inside = np.flatnonzero(epanechnikov((zs[a:b] - z0) / h) > 0.0)
            self.lo[j], self.hi[j] = ((a + inside[0], a + inside[-1] + 1) if inside.size
                                      else (0, 0))
        sizes = self.hi - self.lo
        self.base = np.cumsum(sizes) - sizes - self.lo
        # window by window, so no temporary spans all windows' records
        self.dz = np.empty(sizes.sum())
        self.moments = np.empty((3, self.dz.size))
        for z0, lo, hi, base in zip(self.z0.tolist(), self.lo.tolist(), self.hi.tolist(),
                                    self.base.tolist()):
            dz = self.dz[lo + base:hi + base] = zs[lo:hi] - z0
            w = epanechnikov(dz / h)
            wdz = w * dz
            self.moments[:, lo + base:hi + base] = w, wdz, wdz * dz

    def weights(self, buf: np.ndarray, cols: list, pos: np.ndarray,
                at: np.ndarray, counts: list) -> np.ndarray:
        """Intercept weights of a group of g cells: cell c is window
        ``cols[c]`` of one draw and holds the next ``counts[c]`` entries of
        the draw positions ``pos``, whose records sit at ``at`` in
        ``moments``.  NoSupportError names the first empty cell.

        Each cell's moments are scattered into its rows of ``buf`` (all
        zero, shape (>= g, 3, n), one column per draw position) and summed
        there: the full-length array with +0.0 outside the window, in the
        draw's pairwise summation order.  ``buf`` is all zero again on
        return, raise or not.  A singular design (all in-window z equal)
        takes the Nadaraya-Watson weights w / s0.
        """
        g, n = len(cols), buf.shape[-1]
        mom = np.take(self.moments, at, axis=1)
        # a lone cell scatters row by row, the fastest scatter; the cells of
        # a group take their rows of buf through one flat index
        if g == 1:
            parts = [(row, pos, m) for row, m in zip(buf[0], mom)]
        else:
            slot = (pos + np.repeat(np.arange(0, g * 3 * n, 3 * n), counts)
                    + np.arange(0, 3 * n, n)[:, None])
            parts = [(buf.reshape(-1), slot, mom)]
        try:
            for row, index, m in parts:
                row[index] = m
            sums = buf[:g].sum(axis=-1).tolist()
        finally:
            for row, index, _ in parts:
                row[index] = 0.0
        h, coef = self.h, []
        for j, (s0, s1, s2) in zip(cols, sums):
            if s0 <= 0.0:
                raise NoSupportError(float(self.z0[j]), h)
            den = s0 * s2 - s1 * s1
            if den <= _SINGULAR_REL_TOL * max(s0 * s2, s1 * s1, s0 * s0 * h * h):
                # the formula below at s1 = 0, s2 = 1, den = s0 gives the
                # Nadaraya-Watson weights w / s0, bit for bit
                s1, s2, den = 0.0, 1.0, s0
            coef.append((s2, s1, den))
        s2, s1, den = coef[0] if g == 1 else np.repeat(np.array(coef).T, counts, axis=1)
        return mom[0] * (s2 - s1 * self.dz[at]) / den


# a group of cells costs one fixed set of numpy calls: cells join it up to
# this many in-window records, and while their moment rows (3n floats a
# cell) fit in this many floats (512 KiB: the buffer adds to peak memory)
_GROUP_RECORDS = 2 ** 12
_GROUP_FLOATS = 2 ** 16


class TableKernel:
    """Local linear CDF tables of one sample, or of any index draw from it.

    A draw ``idx`` stands for the resample ``(y[idx], d[idx], z[idx])``, as a
    pairs bootstrap makes it (``np.arange(n)`` is the sample itself);
    ``tables`` returns the tables of a stack of draws without building any
    resample.  The constructor ranks y once, sorts z once and finds each z
    column's window as a range of z ranks, with its records' y ranks and d
    in z order.  The window bounds cut the z ranks into segments, and each
    record carries its segment's small-int id.

    Per draw, one gather of the records' z ranks and segment ids and one
    stable (radix) argsort of the ids group the draw positions by segment;
    each (draw, column) cell's in-window positions are then one slice of
    that permutation.  Consecutive cells form groups, and a group costs a
    fixed set of numpy calls, however many cells it holds:

    * the intercept weights come from ``_Windows.weights``;
    * one argsort by (cell, y rank, draw position) orders each cell's
      records as the full stable sort by y restricted to the window would,
      ties included;
    * one row-wise prefix sum over a zero-padded (2, g, m_max + 1) block
      and one searchsorted give F and F1 at the y grid, and p;
    * F is pinned to 1 where y >= the largest y drawn, as the weights sum
      to one algebraically.

    So the cost model is a fixed set of numpy calls per group of cells, plus
    O(n) per draw and, per cell of m records, O(m log m + n_y log m) and one
    contiguous sum of 3n floats.  Windows of a few hundred records (n = 2000
    on a 25x5 grid) share groups of up to ``_GROUP_RECORDS`` records; a
    window of more than a quarter of that (n = 20 000 on 200x8) is a group
    of one, which skips the group's offsets, as their per-record cost would
    exceed the calls they save.  One ``_repair_columns`` call repairs the
    stack.  Every zero is +0.0.
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
        first = np.concatenate(([True], y_sorted[1:] != y_sorted[:-1]))
        # rank of y among the distinct values: equal y, equal rank, in any
        # order of the ties
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.cumsum(first) - 1
        self._win = win = _Windows(sample.z, grid.z, h)
        self._zrank = np.empty(n, dtype=np.intp)
        self._zrank[win.order] = np.arange(n)
        # the windows' records in z order: their y rank key and d (0 or 1,
        # kept as int8: a weight times d is exact either way)
        inside = np.concatenate([win.order[lo:hi] for lo, hi in zip(win.lo, win.hi)])
        self._keys = rank[inside] * (n + 1)
        self._d = sample.d[inside]
        # segments: the cells that the window bounds cut the z ranks into;
        # starts[s] is where segment s starts in the z order.  Ids of 8 or
        # 16 bits (up to 65 536 segments) make the stable argsort a radix sort
        starts = np.unique(np.concatenate(([0, n], win.lo, win.hi)))
        ids = np.arange(starts.size - 1)
        self._seg = np.empty(n, dtype=np.min_scalar_type(ids[-1]))
        self._seg[win.order] = np.repeat(ids, np.diff(starts))
        self._spans = np.searchsorted(starts, np.column_stack((win.lo, win.hi))).tolist()
        self._nseg = ids.size
        # a record's y is at most grid.y[i] exactly when its key
        # rank * (n + 1) + draw position lies below ykey[i], and every key
        # lies below _stride - 1, where p is read.  Cell c of a group has
        # its keys and its row of _query offset by c * _stride
        self._stride = stride = (n + 1) ** 2
        ykey = np.searchsorted(y_sorted[first], grid.y, side="right") * (n + 1)
        cap = max(1, _GROUP_FLOATS // (3 * n))
        self._query = (np.append(ykey, stride - 1)
                       + np.arange(0, cap * stride, stride)[:, None])
        self._buf = np.zeros((cap, 3, n))

    def tables(self, draws) -> tuple:
        """Repaired F, F0, F1 of shape (c, n_y, n_z) and p of shape (c, n_z)
        for an iterable of c draws."""
        F, F1, p = self._raw(draws)
        F, F0, F1 = _repair_columns(F, F - F1, F1)
        # adding +0.0 is exact for every nonzero value and turns -0.0 into +0.0
        return F + 0.0, F0 + 0.0, F1 + 0.0, np.clip(p, 0.0, 1.0) + 0.0

    def _raw(self, draws) -> tuple:
        """Raw F and F1 of shape (c, n_y, n_z) and p of shape (c, n_z); the
        groups' arrays are gone before the repair allocates its own."""
        vals, ymax = [], []
        cols, poss, zranks, records = [], [], [], 0
        for idx in draws:
            top, by_seg, zrank, starts = self._draw(idx)
            ymax.append(top)
            for j, (a, b) in enumerate(self._spans):
                lo, hi = starts[a], starts[b]
                # a window of more than a quarter of the cap is a group alone
                m = hi - lo if 4 * (hi - lo) <= _GROUP_RECORDS else _GROUP_RECORDS
                if cols and (records + m > _GROUP_RECORDS or len(cols) == len(self._buf)):
                    vals.append(self._group(cols, poss, zranks))
                    cols, poss, zranks, records = [], [], [], 0
                pos = by_seg[lo:hi]
                cols.append(j)
                poss.append(pos)
                zranks.append(zrank[pos])
                records += m
        if cols:
            vals.append(self._group(cols, poss, zranks))
        ny, nz = self.grid.shape
        # one row per cell, draw by draw and column by column
        raw = np.concatenate(vals, axis=1).reshape(2, -1, nz, ny + 1)
        F, F1 = (np.ascontiguousarray(r[..., :ny].swapaxes(-1, -2)) for r in raw)
        F[self.grid.y >= np.array(ymax)[:, None]] = 1.0
        return F, F1, np.ascontiguousarray(raw[1, ..., ny])

    def _draw(self, idx) -> tuple:
        """The one pass over a draw: its largest y, its positions by segment,
        the z rank of each draw position, and where each segment starts."""
        seg = self._seg[idx]
        counts = np.bincount(seg, minlength=self._nseg)
        return (np.max(self.sample.y[idx]), np.argsort(seg, kind="stable"),
                self._zrank[idx], [0] + np.cumsum(counts).tolist())

    def _group(self, cols: list, poss: list, zranks: list) -> np.ndarray:
        """Raw F and F1 at the y grid, each with p as a last entry, shape
        (2, g, n_y + 1), of g cells: window ``cols[c]`` of one draw, with
        the in-window draw positions ``poss[c]`` and their z ranks."""
        win, g = self._win, len(cols)
        counts = [pos.size for pos in poss]
        if g == 1:
            pos, at = poss[0], zranks[0] + win.base[cols[0]]
        else:
            pos = np.concatenate(poss)
            at = np.concatenate(zranks) + np.repeat(win.base[cols], counts)
        a = win.weights(self._buf, cols, pos, at, counts)
        # unique keys (cell, y rank, draw position) let the faster unstable
        # sort give each cell the stable order, whatever the order of pos
        key = self._keys[at] + pos
        if g > 1:
            key += np.repeat(np.arange(0, g * self._stride, self._stride), counts)
        order = np.argsort(key)
        # cell c's prefix sums of aw and aw * d fill row c of the block after
        # a leading zero, one sequential sum per row
        width = max(counts) + 1
        block = np.zeros((2, g, width))
        flat = block.reshape(2, -1)
        aw = a[order]
        awd = aw * self._d[at[order]]
        if g == 1:
            np.add.accumulate(aw, out=flat[0, 1:])
            np.add.accumulate(awd, out=flat[1, 1:])
        else:
            # sorted record t of the group goes to 1 + t + offset[c]
            offset = np.arange(0, g * width, width) - (np.cumsum(counts) - counts)
            slot = np.arange(1, pos.size + 1) + np.repeat(offset, counts)
            flat[0, slot] = aw
            flat[1, slot] = awd
            np.add.accumulate(block[..., 1:], axis=-1, out=block[..., 1:])
        hit = np.searchsorted(key[order], self._query[:g])
        if g > 1:
            hit += offset[:, None]
        return np.take(flat, hit, axis=1)


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
    inside the column's kernel window (``TableKernel``), on the identity
    draw ``np.arange(n)``.  The cost is one O(n log n) sort each of y and z,
    O(m + log n) per z column to find its window of m records, the draw's
    O(n) pass, and O(m log m + n_y log m) per column plus one contiguous sum
    of 3n floats, then the repair of ``_repair_columns``.
    """
    kernel = TableKernel(sample, grid, bandwidth)
    # the identity draw, a stack of one
    F, F0, F1, p = (a[0] for a in kernel.tables([np.arange(sample.n)]))
    return ConditionalCdfTable(grid=grid, F=F, F0=F0, F1=F1, p=p,
                               bandwidth=kernel.bandwidth, n_obs=sample.n)


def conditional_mean(sample: ObservationSample, responses: np.ndarray,
                     z_grid: np.ndarray, bandwidth: float | None = None) -> np.ndarray:
    """Local linear E[response | z] over a z grid, one response per record.

    ``responses`` is one vector of n or a (k, n) stack; the result has one
    entry, or one row per response, per z.  The tables' weights
    (``_Windows.weights``, each z column a group of one cell) are built once
    per z and applied to each response as its own full-length dot product
    that is zero outside the window: the summation order over all n, which a
    matrix product would not keep.
    """
    h = resolve_bandwidth(sample.z, bandwidth)
    responses = np.asarray(responses, dtype=float)
    if responses.shape[-1:] != sample.z.shape or responses.ndim > 2:
        raise DomainError("responses must align with the sample records")
    stack = responses.reshape(-1, sample.n)
    out = np.empty((len(stack), len(z_grid)))
    win = _Windows(sample.z, np.asarray(z_grid, dtype=float), h)
    buf = np.zeros((1, 3, sample.n))
    for j, (lo, hi) in enumerate(zip(win.lo.tolist(), win.hi.tolist())):
        pos = win.order[lo:hi]
        a = np.zeros(sample.n)
        a[pos] = win.weights(buf, [j], pos, np.arange(lo, hi) + win.base[j], [hi - lo])
        for i, r in enumerate(stack):
            out[i, j] = float(a @ r)
    return out.reshape(responses.shape[:-1] + (len(z_grid),))
