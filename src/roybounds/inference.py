"""One-sided uniform confidence bands for the cost bounds.

Pipeline for the lower-bound band, mirrored for the upper:

  1. estimate conditional cdf tables on the grid;
  2. build fibers G(ytilde | z, ztilde) = F(ytilde | ztilde) - F0(ytilde | z)
     for ztilde >= z and make each fiber strictly increasing by the
     epsilon-monotonization  out_k = max(raw_k, out_{k-1} + eps);
  3. invert every fiber at x = F1(y|z) with the same right-continuous
     convention as the envelope module's generalized inverse;
  4. pairs bootstrap of whole records: each replication draws n record
     indices from its own child of the master seed, and the estimation
     module's table kernel turns that index draw into the resample's tables
     directly (no resampled copy of the data, bit for bit the tables of the
     copy), giving cellwise standard errors and centered draws;
  5. critical value by the two-stage intersection-bounds recipe: a
     preliminary quantile of the studentized max over a y-subset screens
     out slack fibers (adaptive inequality selection), the final quantile
     runs over the kept cells only.

The band then subtracts the inflated infimum from y:

    Cn(y, z) = y - min over ztilde of (theta_hat + c_n * s_n)

so Cn <= the point estimate at every cell by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .estimation import ConditionalCdfTable, TableKernel, estimate_tables
from .model import EvaluationGrid, ObservationSample, _philox

SE_FLOOR = 1e-8


def monotonize_eps(values: np.ndarray, eps: float) -> np.ndarray:
    """Strict monotonization: out[k] = max(values[k], out[k-1] + eps).

    Equivalent closed form eps*k + running max of (values[k] - eps*k),
    which vectorizes.  Works columnwise on matrices.
    """
    values = np.asarray(values, dtype=float)
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    if values.ndim == 1:
        drift = eps * np.arange(values.size)
    else:
        drift = eps * np.arange(values.shape[0])[:, None]
    return drift + np.maximum.accumulate(values - drift, axis=0)


def default_epsilon(G: np.ndarray) -> float:
    span = float(np.max(G) - np.min(G)) if G.size else 0.0
    return 1e-4 * span


def _pairs(nz: int, side: str) -> tuple:
    if side == "lower":
        return tuple((i, j) for i in range(nz) for j in range(i, nz))
    if side == "upper":
        return tuple((i, j) for i in range(nz) for j in range(i + 1))
    raise DomainError(f"unknown band side {side!r}")


def _fiber_matrix(table: ConditionalCdfTable, side: str,
                  lower_support_bound: float) -> tuple:
    pairs = _pairs(table.grid.z.size, side)
    if side == "lower":
        cols = [table.F[:, j] - table.F0[:, i] for i, j in pairs]
    else:
        ind = (table.grid.y >= lower_support_bound).astype(float)
        cols = [table.F0[:, j] + table.p[j] * ind - table.F0[:, i]
                for i, j in pairs]
    return pairs, np.column_stack(cols)


def _theta(table: ConditionalCdfTable, pairs, Gstar: np.ndarray, side: str):
    """Invert all fibers at all targets; flag cells whose inverse set is empty.

    Returns theta[n_y, n_pairs] on grid values, plus a boolean matrix marking
    inverses clamped at the uninformative end (target outside fiber range).
    """
    y = table.grid.y
    ny = y.size
    npairs = len(pairs)
    theta = np.empty((ny, npairs))
    clamped = np.zeros((ny, npairs), dtype=bool)
    for k, (i, _) in enumerate(pairs):
        x = table.F1[:, i]
        if side == "lower":
            idx = np.searchsorted(Gstar[:, k], x, side="right")
            clamped[:, k] = idx == 0
            theta[:, k] = y[np.minimum(idx, ny - 1)]
        else:
            idx = np.searchsorted(Gstar[:, k], x, side="left")
            clamped[:, k] = (idx == ny) | (idx == 0)
            theta[:, k] = y[np.where(idx >= ny, ny - 1, np.maximum(idx - 1, 0))]
    return theta, clamped


def bootstrap_errors(sample: ObservationSample, grid: EvaluationGrid,
                     bandwidth: float, epsilon: float, B: int = 200,
                     seed: int = 0, side: str = "lower") -> tuple:
    """Pairs bootstrap of the fiber inverses; returns (sn, draws).

    Replications resample whole (y, d, z) records, keeping their dependence.
    Replication b draws n record indices from the b-th child of the master
    seed; the table kernel estimates that resample's tables from the index
    draw alone, with the full sample's bandwidth and epsilon.
    """
    if B < 50:
        raise ConfigError(f"need at least 50 bootstrap replications, got {B}")
    kernel = TableKernel(sample, grid, bandwidth)
    lsb = sample.lower_support_bound
    seeds = np.random.SeedSequence(seed).spawn(B)
    n = sample.n
    pairs = _pairs(grid.z.size, side)
    draws = np.empty((B, grid.y.size, len(pairs)))
    for b in range(B):
        idx = _philox(seeds[b]).integers(0, n, size=n)
        table = kernel.table(idx)
        _, G = _fiber_matrix(table, side, lsb)
        draws[b], _ = _theta(table, pairs, monotonize_eps(G, epsilon), side)
    sn = np.maximum(np.std(draws, axis=0, ddof=1), SE_FLOOR)
    return sn, draws


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
    epsilon: float
    side: str
    subset_indices: tuple
    sn: np.ndarray
    table: ConditionalCdfTable


def default_selection_subset(y_grid: np.ndarray, y_obs: np.ndarray) -> tuple:
    """Grid indices nearest the empirical deciles of Y (deduplicated)."""
    deciles = np.quantile(y_obs, np.linspace(0.1, 0.9, 9))
    idx = np.unique(np.argmin(np.abs(deciles[:, None] - y_grid[None, :]), axis=1))
    return tuple(int(i) for i in idx)


def clr_band(theta: np.ndarray, draws: np.ndarray, sn: np.ndarray, pairs,
             grid: EvaluationGrid, alpha: float, subset_indices,
             n_obs: int, side: str = "lower") -> tuple:
    """Two-stage critical value and band assembly.

    Returns (Cn, Chat, se_binding, critical value).  The
    final critical value is the (1-alpha) quantile of the bootstrap max
    over kept cells, uniform across the grid, floored at zero so the band
    never exceeds the point estimate.
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
    dev = sign * (theta[None, :, :] - draws) / sn[None, :, :]

    sub = dev[:, sub_idx, :].reshape(draws.shape[0], -1)
    gamma = 1.0 - 0.1 / max(np.log(n_obs), 1.0)
    k_prelim = max(float(np.quantile(np.max(sub, axis=1), gamma)), 0.0)

    ny, npairs = theta.shape
    nz = grid.z.size
    z_of_pair = np.array([i for i, _ in pairs])
    selected = np.zeros((ny, npairs), dtype=bool)
    for iz in range(nz):
        cols = np.flatnonzero(z_of_pair == iz)
        block = theta[:, cols]
        if side == "lower":
            best = np.min(block, axis=1, keepdims=True)
            selected[:, cols] = block <= best + 2.0 * k_prelim * sn[:, cols]
        else:
            best = np.max(block, axis=1, keepdims=True)
            selected[:, cols] = block >= best - 2.0 * k_prelim * sn[:, cols]

    keep = selected[sub_idx, :]
    kept_dev = dev[:, sub_idx, :][:, keep]
    if kept_dev.shape[1] == 0:
        crit = 0.0
    else:
        crit = max(float(np.quantile(np.max(kept_dev, axis=1), 1.0 - alpha)), 0.0)

    Cn = np.empty((ny, nz))
    Chat = np.empty((ny, nz))
    se_binding = np.empty((ny, nz))
    for iz in range(nz):
        cols = np.flatnonzero(z_of_pair == iz)
        inflated = theta[:, cols] + sign * crit * sn[:, cols]
        if side == "lower":
            pick = np.argmin(inflated, axis=1)
            Chat[:, iz] = grid.y - np.min(theta[:, cols], axis=1)
        else:
            pick = np.argmax(inflated, axis=1)
            Chat[:, iz] = grid.y - np.max(theta[:, cols], axis=1)
        rows = np.arange(ny)
        Cn[:, iz] = grid.y - inflated[rows, pick]
        se_binding[:, iz] = sn[:, cols][rows, pick]
    return Cn, Chat, se_binding, crit


def confidence_band(sample: ObservationSample, grid: EvaluationGrid,
                    bandwidth: float | None = None, alpha: float = 0.05,
                    B: int = 200, seed: int = 0, epsilon: float | None = None,
                    subset_indices=None, side: str = "lower") -> ConfidenceBand:
    """End-to-end band construction from a sample.

    The sample's tables are estimated here, once, and kept on the band as
    ``table``.  Their fiber matrix gives both the default epsilon and the
    point estimate; the bootstrap reuses the tables' bandwidth.
    """
    table = estimate_tables(sample, grid, bandwidth)
    pairs, G = _fiber_matrix(table, side, sample.lower_support_bound)
    if epsilon is None:
        epsilon = default_epsilon(G)
    theta, clamped = _theta(table, pairs, monotonize_eps(G, epsilon), side)
    sn, draws = bootstrap_errors(sample, grid, table.bandwidth, epsilon, B, seed,
                                 side=side)
    if subset_indices is None:
        subset_indices = default_selection_subset(grid.y, sample.y)
    Cn, Chat, se_binding, crit = clr_band(theta, draws, sn, pairs, grid, alpha,
                                          subset_indices, sample.n, side)

    id_tol = table.identification_tol()
    z_of_pair = np.array([i for i, _ in pairs])
    mask = table.F1 >= id_tol
    for iz in range(grid.z.size):
        cols = np.flatnonzero(z_of_pair == iz)
        mask[:, iz] &= ~np.any(clamped[:, cols], axis=1)
    return ConfidenceBand(Cn=Cn, Chat=Chat, se=se_binding,
                          critical_value=crit,
                          identified_mask=mask, alpha=alpha, B=B, seed=seed,
                          epsilon=epsilon, side=side,
                          subset_indices=tuple(int(i) for i in subset_indices),
                          sn=sn, table=table)
