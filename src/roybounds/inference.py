"""One-sided uniform confidence bands for the cost bounds.

Pipeline for the lower-bound band, mirrored for the upper:

  1. estimate conditional cdf tables on the grid;
  2. build fibers G(ytilde | z, ztilde) = F(ytilde | ztilde) - F0(ytilde | z)
     for ztilde >= z, each made non-decreasing in ytilde by its running max
     where ``_fiber_matrix`` builds it, for the point estimate and every
     bootstrap chunk alike: the lower sandwich's own rule.  A flat stretch
     stays flat, so a fiber that ties with its target inverts past y as the
     sharp bound does: the lower band's point estimate, floored at 0, is the
     pf lower bound on the cells both identify.  The upper fibers take the
     same running max, not the upper sandwich's running min from above;
  3. invert every fiber at x = F1(y|z) by the envelope module's inverse
     count, the one the cost bounds invert the sandwich functions with;
  4. pairs bootstrap of whole records: each replication draws n record
     indices from its own child of the master seed, and the estimation
     module's table kernel turns that index draw into the resample's tables
     directly (no resampled copy of the data, bit for bit the tables of the
     copy), giving cellwise standard errors and centered draws.  Draw b
     depends only on its seed, so the replications split into one range per
     CPU (``parallel.fork_join``) with the same bytes at any width.  A draw
     is a point of the y grid, kept as its index in the smallest unsigned
     dtype; the standard errors gather the grid values in blocks of cells at
     least 2 wide, since numpy sums a lone column pairwise, not in draw order;
  5. critical value by the two-stage intersection-bounds recipe: a
     preliminary quantile of the studentized max over a y-subset screens
     out slack fibers (adaptive inequality selection), the final quantile
     runs over the kept cells only.

Steps 1 to 3 run on stacks of tables (c, n_y, n_z): the point estimate is a
stack of one, the bootstrap one chunk of c replications at a time.  Every
float is the one a table estimated alone would give.

The band then subtracts the inflated infimum from y:

    Cn(y, z) = y - min over ztilde of (theta_hat + c_n * s_n)

so Cn <= the point estimate at every cell by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelopes import _inverse_count, _worst_case_cdf
from .errors import ConfigError, DomainError
from .estimation import (ConditionalCdfTable, TableKernel, estimate_tables,
                         identification_tol)
from .model import EvaluationGrid, ObservationSample, _philox
from .parallel import fork_join

SE_FLOOR = 1e-8
# least cells per block of the standard errors: on (200, 200, 36) draws, blocks
# of 256 cells peaked at 1.0 MB of temporaries and 2048 at 7.8 MB, in no less
# time (6.3 against 6.8 ms; the whole array at once took 8.6 ms and 23 MB)
_SE_BLOCK = 256
# fiber entries per bootstrap chunk: at 2**16 the temporaries of a 25x5 grid's
# chunk raised peak memory, and larger chunks save little time
_CHUNK_ENTRIES = 2 ** 15


def _pairs(nz: int, side: str) -> tuple:
    if side == "lower":
        return tuple((i, j) for i in range(nz) for j in range(i, nz))
    if side == "upper":
        return tuple((i, j) for i in range(nz) for j in range(i + 1))
    raise DomainError(f"unknown band side {side!r}")


def _z_runs(nz: int, side: str) -> tuple:
    """Each pair's z, and where each z's run starts (pairs run z by z)."""
    z_of_pair = np.array([i for i, _ in _pairs(nz, side)])
    return z_of_pair, np.flatnonzero(np.diff(z_of_pair, prepend=-1))


def _fiber_matrix(grid: EvaluationGrid, F: np.ndarray, F0: np.ndarray,
                  p: np.ndarray, side: str, lower_support_bound: float) -> np.ndarray:
    """Fibers G (c, n_y, n_pairs) of a stack F, F0 (c, n_y, n_z), p (c, n_z), one
    per pair (i, j): F(.|j) - F0(.|i) (lower), F0(.|j) + p(j) 1{y >= b} - F0(.|i)
    (upper), each made non-decreasing in y by its running max."""
    i, j = np.array(_pairs(grid.z.size, side)).T
    top = F if side == "lower" else _worst_case_cdf(grid.y, F0, p, lower_support_bound)
    return np.maximum.accumulate(top[..., j] - F0[..., i], axis=-2)


def _theta(y: np.ndarray, F1: np.ndarray, G: np.ndarray, side: str) -> tuple:
    """Invert the non-decreasing fiber of each pair (i, j) in G at every
    F1(y|i); return theta as its index into ``y`` and the inverses clamped at
    the uninformative end (target outside the fiber's range), all
    (c, n_y, n_pairs).
    """
    ny = y.size
    i, _ = np.array(_pairs(F1.shape[-1], side)).T
    idx = _inverse_count(G, F1[..., i], side)
    if side == "lower":
        return np.minimum(idx, ny - 1), idx == 0
    return np.where(idx >= ny, ny - 1, np.maximum(idx - 1, 0)), (idx == ny) | (idx == 0)


def bootstrap_errors(sample: ObservationSample, grid: EvaluationGrid,
                     bandwidth: float, B: int = 200, seed: int = 0,
                     side: str = "lower") -> tuple:
    """Pairs bootstrap of the fiber inverses; returns (sn, draws).

    Replications resample whole (y, d, z) records, keeping their dependence.
    Replication b draws n record indices from the b-th child of the master
    seed; the table kernel estimates that resample's tables from the index
    draw alone, with the full sample's bandwidth.  Each CPU's range runs in
    chunks that are repaired, fibered and inverted as one stack.

    ``draws`` (B, n_y, n_pairs) holds each inverse as its index into
    ``grid.y``, in the smallest unsigned dtype that holds n_y - 1 (uint8 up
    to 256 grid rows).  ``sn`` gathers ``grid.y[draws]`` in blocks of at
    least ``_SE_BLOCK`` cells, which numpy reduces in the whole array's
    order, so it has the bits of the cellwise ``np.std`` of the float draws
    without building them.
    """
    if B < 50:
        raise ConfigError(f"need at least 50 bootstrap replications, got {B}")
    kernel = TableKernel(sample, grid, bandwidth)
    seeds = np.random.SeedSequence(seed).spawn(B)
    shape = (grid.y.size, len(_pairs(grid.z.size, side)))
    chunk = max(1, _CHUNK_ENTRIES // (shape[0] * shape[1]))

    def run(lo, hi, draws):
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            F, F0, F1, p = kernel.tables(_philox(s).integers(0, sample.n, size=sample.n)
                                         for s in seeds[a:b])
            G = _fiber_matrix(grid, F, F0, p, side, sample.lower_support_bound)
            draws[a:b] = _theta(grid.y, F1, G, side)[0]

    draws = fork_join(run, B, shape, np.min_scalar_type(shape[0] - 1))
    flat = draws.reshape(B, -1)
    blocks = np.array_split(flat, max(1, flat.shape[1] // _SE_BLOCK), axis=1)
    sn = np.concatenate([np.std(grid.y[block], axis=0, ddof=1) for block in blocks])
    return np.maximum(sn, SE_FLOOR).reshape(shape), draws


@dataclass(frozen=True)
class ConfidenceBand:
    """Uniform one-sided band over the (y, z) grid of its ``table``."""

    Cn: np.ndarray
    Chat: np.ndarray
    se: np.ndarray
    critical_value: float
    identified_mask: np.ndarray
    alpha: float
    B: int
    seed: int
    side: str
    subset_indices: tuple
    table: ConditionalCdfTable


def default_selection_subset(y_grid: np.ndarray, y_obs: np.ndarray) -> tuple:
    """Grid indices nearest the empirical deciles of Y (deduplicated)."""
    deciles = np.quantile(y_obs, np.linspace(0.1, 0.9, 9))
    idx = np.unique(np.argmin(np.abs(deciles[:, None] - y_grid[None, :]), axis=1))
    return tuple(int(i) for i in idx)


def clr_band(theta: np.ndarray, draws: np.ndarray, sn: np.ndarray,
             grid: EvaluationGrid, alpha: float, subset_indices,
             n_obs: int, side: str = "lower") -> tuple:
    """Two-stage critical value and band assembly.

    ``theta`` (n_y, n_pairs) holds the point estimate's inverses as grid
    values and ``draws`` (B, n_y, n_pairs) the bootstrap's as indices into
    ``grid.y``, as ``bootstrap_errors`` returns them; only the selection
    rows of the draws are gathered.  The pairs run z by z, as
    ``_pairs(grid.z.size, side)`` makes them.  Returns (Cn, Chat,
    se_binding, critical value).  The final critical value is the
    (1-alpha) quantile of the bootstrap max over kept cells, uniform across
    the grid, floored at zero so the band never exceeds the point estimate.
    """
    if not 0.0 < alpha <= 0.5:
        raise ConfigError(f"alpha must lie in (0, 0.5], got {alpha}")
    sub_idx = np.asarray(sorted({int(i) for i in subset_indices}), dtype=int)
    if sub_idx.size == 0:
        raise ConfigError("selection subset of the y grid is empty")
    if sub_idx[0] < 0 or sub_idx[-1] >= grid.y.size:
        bad = sub_idx[0] if sub_idx[0] < 0 else sub_idx[-1]
        raise ConfigError(f"selection subset index {bad} is outside the "
                          f"y grid of {grid.y.size} points")
    sign = 1.0 if side == "lower" else -1.0
    dev = (sign * (theta[None, sub_idx, :] - grid.y[draws[:, sub_idx, :]])
           / sn[None, sub_idx, :])

    sub = dev.reshape(draws.shape[0], -1)
    gamma = 1.0 - 0.1 / max(np.log(n_obs), 1.0)
    k_prelim = max(float(np.quantile(np.max(sub, axis=1), gamma)), 0.0)

    z_of_pair, first = _z_runs(grid.z.size, side)
    # the upper side runs the lower side's rule on -theta; negation is exact
    theta_best = sign * np.minimum.reduceat(sign * theta, first, axis=1)
    selected = sign * theta <= sign * theta_best[:, z_of_pair] + 2.0 * k_prelim * sn

    keep = selected[sub_idx, :]
    kept_dev = dev[:, keep]
    if kept_dev.shape[1] == 0:
        crit = 0.0
    else:
        crit = max(float(np.quantile(np.max(kept_dev, axis=1), 1.0 - alpha)), 0.0)

    inflated = theta + sign * crit * sn
    binding = sign * np.minimum.reduceat(sign * inflated, first, axis=1)
    # the first pair of each z that binds, as argmin or argmax picks it
    at = np.where(inflated == binding[:, z_of_pair], np.arange(theta.shape[1]),
                  theta.shape[1])
    pick = np.minimum.reduceat(at, first, axis=1)
    Cn = grid.y[:, None] - binding
    Chat = grid.y[:, None] - theta_best
    se_binding = np.take_along_axis(sn, pick, axis=1)
    return Cn, Chat, se_binding, crit


def confidence_band(sample: ObservationSample, grid: EvaluationGrid,
                    bandwidth: float | None = None, alpha: float = 0.05,
                    B: int = 200, seed: int = 0, subset_indices=None,
                    side: str = "lower") -> ConfidenceBand:
    """End-to-end band construction from a sample.

    The sample's tables are estimated here, once, and kept on the band as
    ``table``.  Their fiber matrix gives the point estimate; the bootstrap
    reuses the tables' bandwidth.
    """
    table = estimate_tables(sample, grid, bandwidth)
    F, F0, F1, p = (a[None] for a in (table.F, table.F0, table.F1, table.p))
    G = _fiber_matrix(grid, F, F0, p, side, sample.lower_support_bound)
    k, clamped = (a[0] for a in _theta(grid.y, F1, G, side))
    theta = grid.y[k]
    sn, draws = bootstrap_errors(sample, grid, table.bandwidth, B, seed, side=side)
    if subset_indices is None:
        subset_indices = default_selection_subset(grid.y, sample.y)
    Cn, Chat, se_binding, crit = clr_band(theta, draws, sn, grid, alpha,
                                          subset_indices, sample.n, side)

    mask = ((table.F1 >= identification_tol(table.n_obs))
            & ~np.logical_or.reduceat(clamped, _z_runs(grid.z.size, side)[1], axis=1))
    return ConfidenceBand(Cn=Cn, Chat=Chat, se=se_binding,
                          critical_value=crit,
                          identified_mask=mask, alpha=alpha, B=B, seed=seed, side=side,
                          subset_indices=tuple(int(i) for i in subset_indices),
                          table=table)
