"""Analytic population tables checked against brute Monte-Carlo draws."""

import numpy as np
import pytest

from roybounds import (
    DgpSpec,
    EvaluationGrid,
    generate_sample,
    population_tables,
    true_cost,
)
from roybounds.errors import DomainError

from conftest import interior_grid
from reference import check_smiv_dgp, lower_orthant_table


def assert_valid(table):
    """Entries in [0, 1], F = F0 + F1, and every column non-decreasing in y."""
    atol = 1e-9
    for arr in (table.F, table.F0, table.F1, table.p):
        assert np.all((arr >= -atol) & (arr <= 1 + atol))
    assert np.max(np.abs(table.F - table.F0 - table.F1)) <= atol
    for arr in (table.F, table.F0, table.F1):
        assert np.all(np.diff(arr, axis=0) >= -atol)


def mc_tables(dgp, grid, n=400_000, seed=0):
    """Empirical conditional CDFs at fixed z values, the brute-force oracle.

    Conditioning on Z=z exactly by generating at a degenerate z law, so no
    kernel smoothing enters the reference.
    """
    from roybounds.model import ZLaw
    from dataclasses import replace

    ny, nz = grid.shape
    F = np.empty((ny, nz))
    F0 = np.empty((ny, nz))
    F1 = np.empty((ny, nz))
    p = np.empty(nz)
    for j, z0 in enumerate(grid.z):
        fixed = replace(dgp, z_law=ZLaw(kind="fixed", value=float(z0)))
        s = generate_sample(fixed, n, seed=seed + j)
        for i, yv in enumerate(grid.y):
            le = s.y <= yv
            F[i, j] = le.mean()
            F0[i, j] = (le & (s.d == 0)).mean()
            F1[i, j] = (le & (s.d == 1)).mean()
        p[j] = s.d.mean()
    return F, F0, F1, p


@pytest.mark.parametrize("family", ["quasi_linear", "pure_roy", "isoelastic"])
def test_population_tables_match_monte_carlo(family, quasi_dgp, pure_roy_dgp):
    dgp = {
        "quasi_linear": quasi_dgp,
        "pure_roy": pure_roy_dgp,
        "isoelastic": DgpSpec.isoelastic(mu0=(0.0, 0.2), mu1=(0.1, 0.4),
                                         sigma0=0.45, sigma1=0.6, rho=1.7),
    }[family]
    grid = interior_grid(dgp, n_y=12, n_z=3, seed=77)
    t = population_tables(dgp, grid)
    F, F0, F1, p = mc_tables(dgp, grid, n=400_000, seed=123)
    # MC error at 4e5 draws is ~2.5e-3 at 3 sigma; allow 4e-3
    assert np.max(np.abs(t.F - F)) < 4e-3
    assert np.max(np.abs(t.F0 - F0)) < 4e-3
    assert np.max(np.abs(t.F1 - F1)) < 4e-3
    assert np.max(np.abs(t.p - p)) < 4e-3


def test_population_tables_are_valid(quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=30, n_z=5)
    t = population_tables(quasi_dgp, grid)
    assert_valid(t)
    assert t.n_obs is None and t.bandwidth is None


def test_population_pure_roy_selects_everyone(pure_roy_dgp):
    grid = interior_grid(pure_roy_dgp, n_y=10, n_z=3)
    t = population_tables(pure_roy_dgp, grid)
    assert np.allclose(t.p, 1.0, atol=1e-9)
    assert np.allclose(t.F0, 0.0, atol=1e-9)


def test_population_rejects_unit_correlation_mixture():
    dgp = DgpSpec.quasi_linear(mu0=0.0, mu1=0.1, sigma0=0.5, sigma1=0.5,
                               g0=(1.0, 0.0), g1=(0.2, 0.0), outcome_corr=1.0)
    grid = EvaluationGrid(y=np.linspace(0.5, 3.0, 5), z=np.array([0.3, 0.6]))
    with pytest.raises(DomainError):
        population_tables(dgp, grid)


def test_check_smiv_dgp_quasi(quasi_dgp):
    rep = check_smiv_dgp(quasi_dgp, np.linspace(0.3, 4.0, 15),
                         np.linspace(0.05, 0.95, 5))
    assert rep.ok, rep.worst_violation


def test_lower_orthant_table_matches_mc(quasi_dgp):
    a_grid = np.array([0.8, 1.5])
    b_grid = np.array([0.5, 1.2])
    z0 = 0.4
    got = lower_orthant_table(quasi_dgp, a_grid, b_grid, z0)

    from roybounds.model import ZLaw, _philox
    from dataclasses import replace
    fixed = replace(quasi_dgp, z_law=ZLaw(kind="fixed", value=z0))
    rng = _philox(404)
    n = 400_000
    x0 = rng.normal(fixed.mu0(z0), fixed.sigma0(z0), n)
    x1 = fixed.mu1(z0) + fixed.sigma1(z0) * (
        fixed.outcome_corr * (x0 - fixed.mu0(z0)) / fixed.sigma0(z0)
        + np.sqrt(1 - fixed.outcome_corr**2) * rng.normal(size=n))
    y0, y1 = np.exp(x0), np.exp(x1)
    v1 = y1 - true_cost(fixed, y1, z0)
    for ia, a in enumerate(a_grid):
        for ib, b in enumerate(b_grid):
            ref = np.mean((y0 <= a) & (v1 <= b))
            assert got[ia, ib] == pytest.approx(ref, abs=4e-3)


def test_imperfect_foresight_population(quasi_dgp):
    from dataclasses import replace
    dgp = replace(quasi_dgp, foresight="imperfect")
    grid = interior_grid(dgp, n_y=10, n_z=3, seed=31)
    t = population_tables(dgp, grid)
    assert_valid(t)
    F, F0, F1, p = mc_tables(dgp, grid, n=200_000, seed=55)
    assert np.max(np.abs(t.F - F)) < 5e-3
    assert np.max(np.abs(t.p - p)) < 5e-3
