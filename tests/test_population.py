"""Analytic population tables checked against brute Monte-Carlo draws, and
their scipy-free normal and Simpson pieces against scipy bit for bit."""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.special import ndtr
from scipy.stats import norm

from roybounds import (
    DgpSpec,
    EvaluationGrid,
    cost_bounds_pf,
    generate_sample,
    population_tables,
    true_cost,
)
from roybounds.errors import DomainError
from roybounds.model import _lognormal_moment
from roybounds.population import (_cumulative_simpson, _node_grid, _normal_pdf,
                                  _params_at)

from conftest import content_dgp_spec, interior_grid, quasi_dgp_spec
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


def test_content_design_has_a_positive_lower_bound():
    # the 200x8 grid of the coverage studies: [0.05, 0.95] quantiles of a pilot
    dgp = content_dgp_spec()
    pilot = generate_sample(dgp, 20000, np.random.SeedSequence([7, 0xC0FFEE]))
    y = np.quantile(pilot.y, np.linspace(0.05, 0.95, 200))
    z = np.quantile(pilot.z, np.linspace(0.05, 0.95, 8))
    grid = EvaluationGrid(y=np.unique(y), z=np.unique(z))
    surface = cost_bounds_pf(population_tables(dgp, grid))
    truth = np.column_stack([true_cost(dgp, grid.y, z) for z in grid.z])
    ident = surface.identified_mask
    clow = surface.Clow[ident]
    assert ident.sum() > 1000
    assert np.mean(clow > 0.0) >= 0.3
    assert np.all(clow <= truth[ident])
    rep = check_smiv_dgp(dgp, grid.y[::5], grid.z)
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


def quadratic_dgp_spec(**kw):
    """The golden quadratic design: its income cap truncates both sectors."""
    return DgpSpec.quadratic(mu0=(-1.3, 0.2), mu1=(-1.2, 0.3), sigma0=0.6,
                             sigma1=0.7, eta0=0.25, eta1=(0.45, -0.1), f=0.8, **kw)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# u past the tails (ndtr(-38) is 0, the density is subnormal by 38 and 0 by
# 40), and signed zeros
_EDGE_U = np.array([-np.inf, -40.0, -38.5, -38.0, -37.5, -8.5, -1.0, -1e-300, -0.0,
                    0.0, 1e-300, 1.0, 8.5, 37.5, 38.0, 38.5, 40.0, np.inf])


def test_ndtr_is_norm_cdf_bit_for_bit():
    u = np.concatenate([_EDGE_U, np.random.default_rng(5).normal(0.0, 6.0, 2000)])
    assert same_bits(ndtr(u), norm.cdf(u))
    for v in _EDGE_U:  # scalars, as _lognormal_moment gets them
        assert same_bits(ndtr(v), norm.cdf(v))


@pytest.mark.parametrize("mu, s", [(0.0, 1.0), (-1.2, 0.7), (0.35, 0.45)])
def test_normal_pdf_is_norm_pdf_bit_for_bit(mu, s):
    x = np.concatenate([mu + s * _EDGE_U, np.random.default_rng(6).normal(mu, 5 * s, 2000)])
    assert same_bits(_normal_pdf(x, mu, s), norm.pdf(x, loc=mu, scale=s))


@pytest.mark.parametrize("dgp", [quasi_dgp_spec(), quadratic_dgp_spec(),
                                 content_dgp_spec()],
                         ids=["uncapped", "capped", "content"])
def test_cumulative_simpson_is_scipy_bit_for_bit_on_node_grids(dgp):
    # the integrand of _sector_cumulative (outcome_corr 0), on each sector's
    # node grid, with and without the income cap
    cap = dgp._log_cap()
    for z in (0.05, 0.5, 0.95):
        mu0, mu1, s0, s1 = _params_at(dgp, z)
        for mu, s, mu_o, s_o, bound in ((mu1, s1, mu0, s0, dgp.shifted_income),
                                        (mu0, s0, mu1, s1, dgp.shifted_income_inverse)):
            x = _node_grid(mu, s, cap)
            with np.errstate(divide="ignore"):  # a bound at or below 0 gives ln = -inf
                ub = np.minimum(np.log(np.maximum(bound(np.exp(x), z), 0.0)), cap)
            y = norm.pdf(x, loc=mu, scale=s) * norm.cdf((ub - mu_o) / s_o)
            assert same_bits(_cumulative_simpson(y, x),
                             cumulative_simpson(y, x=x, initial=0.0))


def test_cumulative_simpson_is_scipy_bit_for_bit_on_short_uneven_grids():
    # both parities of the interval count, and signed zeros in the integrand
    rng = np.random.default_rng(8)
    for size in (3, 4, 5, 6, 11, 12):
        x = np.cumsum(rng.uniform(0.01, 1.0, size))
        y = rng.normal(size=size)
        y[::3] = -0.0
        assert same_bits(_cumulative_simpson(y, x),
                         cumulative_simpson(y, x=x, initial=0.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        _cumulative_simpson(np.ones(4), np.array([0.0, 1.0, 1.0, 2.0]))


def test_truncated_branches_match_scipy_bit_for_bit():
    # imperfect foresight on the quadratic family: every moment and every
    # table column is truncated at the income cap
    dgp = quadratic_dgp_spec(foresight="imperfect")
    cap = dgp._log_cap()
    assert np.isfinite(cap)
    z = np.linspace(0.0, 1.0, 11)
    for mu, sg in ((dgp.mu0(z), dgp.sigma0(z)), (dgp.mu1(z), dgp.sigma1(z))):
        mu, sg = np.asarray(mu, dtype=float), np.asarray(sg, dtype=float)
        a = (cap - mu) / sg
        for k in (1, 2):
            base = np.exp(k * mu + 0.5 * (k * sg) ** 2)
            assert same_bits(_lognormal_moment(mu, sg, k, cap),
                             base * norm.cdf(a - k * sg) / norm.cdf(a))
    grid = EvaluationGrid(y=np.linspace(0.05, 1.2, 40), z=np.linspace(0.05, 0.95, 5))
    t = population_tables(dgp, grid)
    log_y = np.log(grid.y)
    for j, zv in enumerate(grid.z):
        mu0, mu1, s0, s1 = _params_at(dgp, zv)
        mu, s, col = (mu1, s1, t.F1) if t.p[j] == 1.0 else (mu0, s0, t.F0)
        a = (cap - mu) / s
        ref = norm.cdf(np.minimum((log_y - mu) / s, a)) / norm.cdf(a)
        assert same_bits(col[:, j], ref)


def test_degenerate_pure_roy_closed_form_is_norm_cdf():
    dgp = DgpSpec.pure_roy(mu=(0.0, 0.3), sigma=0.6)  # comonotone, equal laws
    grid = EvaluationGrid(y=np.linspace(0.2, 4.0, 30), z=np.linspace(0.05, 0.95, 4))
    t = population_tables(dgp, grid)
    for j, zv in enumerate(grid.z):
        mu0, _, s0, _ = _params_at(dgp, zv)
        assert same_bits(t.F1[:, j], norm.cdf((np.log(grid.y) - mu0) / s0))


def _falling_wage_design(rng):
    """A quasi-linear design whose sector-1 wages fall in z while its cost
    falls faster, so payoff SMIV can hold with an informative lower bound."""
    s = rng.uniform(0.4, 0.8)
    ga = rng.uniform(0.8, 2.0)
    return DgpSpec.quasi_linear(mu0=(rng.uniform(-0.2, 0.2), 0.0),
                                mu1=(rng.uniform(0.0, 0.4), -rng.uniform(0.1, 0.4)),
                                sigma0=s, sigma1=s,
                                g0=(ga, -ga * rng.uniform(0.6, 1.0)), g1=(0.0, 0.0))


def test_containment_on_random_falling_wage_designs():
    # the random counterpart of the content design: criterion 2's families
    # all have Clow = 0, so only here does Clow <= C compare a positive bound
    rng = np.random.default_rng(20260815)
    kept = positive = 0
    for k in range(20):
        dgp = _falling_wage_design(rng)
        grid = interior_grid(dgp, n_y=30, n_z=5, seed=100 + k)
        if not check_smiv_dgp(dgp, grid.y[::3], grid.z).ok:
            continue
        kept += 1
        surface = cost_bounds_pf(population_tables(dgp, grid))
        truth = np.column_stack([true_cost(dgp, grid.y, z) for z in grid.z])
        ident = surface.identified_mask
        assert np.all(surface.Clow[ident] <= truth[ident]), k
        assert np.all(truth[ident] <= surface.Chigh[ident]), k
        positive += int(np.sum(surface.Clow[ident] > 0.0))
    assert kept >= 5
    assert positive > 0
