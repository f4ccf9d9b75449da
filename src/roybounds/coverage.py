"""Monte-Carlo coverage study for the one-sided confidence bands.

Each replication draws a fresh sample from a known data-generating
process, builds the lower band on a fixed evaluation grid, and compares
it cellwise against two references computed once up front: the population
lower bound on that grid and the true cost itself.  A replication counts
as a uniform violation when the band exceeds the reference at any cell
that is identified both in the population and in the replication.
Replication r depends only on its seed, so the replications split into one
range per CPU (``parallel.fork_join``), each band's bootstrap running
serially inside its range, with the same counts at any width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import cost_bounds_pf
from .errors import ConfigError
from .inference import confidence_band
from .model import DgpSpec, EvaluationGrid, generate_sample, true_cost
from .parallel import fork_join
from .population import population_tables


@dataclass(frozen=True)
class CoverageReport:
    grid: EvaluationGrid
    reps: int
    n: int
    alpha: float
    B: int
    seed: int
    pointwise_vs_lower: np.ndarray
    pointwise_vs_cost: np.ndarray
    cell_counts: np.ndarray
    uniform_coverage_vs_lower: float
    uniform_coverage_vs_cost: float
    violations_vs_lower: int
    violations_vs_cost: int
    population_lower: np.ndarray
    population_mask: np.ndarray
    true_cost: np.ndarray

    def to_dict(self) -> dict:
        return {
            "y_grid": self.grid.y,
            "z_grid": self.grid.z,
            "reps": self.reps,
            "n": self.n,
            "alpha": self.alpha,
            "B": self.B,
            "seed": self.seed,
            "pointwise_coverage_vs_lower": self.pointwise_vs_lower,
            "pointwise_coverage_vs_cost": self.pointwise_vs_cost,
            "cell_counts": self.cell_counts,
            "uniform_coverage_vs_lower": self.uniform_coverage_vs_lower,
            "uniform_coverage_vs_cost": self.uniform_coverage_vs_cost,
            "violations_vs_lower": self.violations_vs_lower,
            "violations_vs_cost": self.violations_vs_cost,
            "population_lower": self.population_lower,
            "population_mask": self.population_mask,
            "true_cost": self.true_cost,
        }


def default_coverage_grid(dgp: DgpSpec, seed: int) -> EvaluationGrid:
    """Fixed interior 25 x 5 grid from a large pilot draw.

    Quantile range [0.05, 0.95] in both coordinates keeps every cell away
    from the support edges where kernel estimates are noisiest.
    """
    pilot = generate_sample(dgp, 20000, np.random.SeedSequence([seed, 0xC0FFEE]))
    y = np.unique(np.quantile(pilot.y, np.linspace(0.05, 0.95, 25)))
    z = np.unique(np.quantile(pilot.z, np.linspace(0.05, 0.95, 5)))
    return EvaluationGrid(y=y, z=z)


def run_coverage(dgp: DgpSpec, reps: int, n: int, alpha: float = 0.05,
                 B: int = 200, seed: int = 0,
                 bandwidth: float | None = None) -> CoverageReport:
    """Lower-band coverage on ``default_coverage_grid``, with a slack of 1e-9."""
    if reps < 1:
        raise ConfigError(f"replication count must be at least 1, got {reps}")
    grid = default_coverage_grid(dgp, seed)
    slack = 1e-9
    pop = population_tables(dgp, grid)
    surface = cost_bounds_pf(pop)
    truth = np.column_stack([true_cost(dgp, grid.y, zv) for zv in grid.z])

    def run(lo, hi, out):
        for r in range(lo, hi):
            # two independent child streams per replication, order-stable
            sample_seed, boot_seed = np.random.SeedSequence([seed, r]).spawn(2)
            sample = generate_sample(dgp, n, sample_seed)
            band = confidence_band(sample, grid, bandwidth=bandwidth, alpha=alpha,
                                   B=B, seed=int(boot_seed.generate_state(1)[0]))
            valid = surface.identified_mask & band.identified_mask
            out[r] = (valid, valid & (band.Cn <= surface.Clow + slack),
                      valid & (band.Cn <= truth + slack))

    # (valid, good vs lower, good vs cost) per replication and cell
    valid, good_lower, good_cost = fork_join(
        run, reps, (3, *surface.Clow.shape), bool).swapaxes(0, 1)
    counts, ok_lower, ok_cost = (a.sum(axis=0, dtype=float)
                                 for a in (valid, good_lower, good_cost))
    uni_lower = int(np.any(valid & ~good_lower, axis=(1, 2)).sum())
    uni_cost = int(np.any(valid & ~good_cost, axis=(1, 2)).sum())

    with np.errstate(invalid="ignore"):
        pw_lower = np.where(counts > 0, ok_lower / np.maximum(counts, 1), np.nan)
        pw_cost = np.where(counts > 0, ok_cost / np.maximum(counts, 1), np.nan)
    return CoverageReport(grid=grid, reps=reps, n=n, alpha=alpha, B=B, seed=seed,
                          pointwise_vs_lower=pw_lower, pointwise_vs_cost=pw_cost,
                          cell_counts=counts,
                          uniform_coverage_vs_lower=1.0 - uni_lower / reps,
                          uniform_coverage_vs_cost=1.0 - uni_cost / reps,
                          violations_vs_lower=uni_lower,
                          violations_vs_cost=uni_cost,
                          population_lower=surface.Clow,
                          population_mask=surface.identified_mask,
                          true_cost=truth)
