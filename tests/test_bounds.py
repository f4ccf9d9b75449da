"""Cost bound constructions: pointwise squeeze, per-z closed forms, Makarov."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roybounds import (
    DgpSpec,
    EvaluationGrid,
    cost_bounds_if,
    cost_bounds_pf,
    estimate_tables,
    generate_sample,
    if_bounds_from_moments,
    population_tables,
    random_cost_bounds,
    true_cost,
)
from roybounds import testability_if as check_testability
from roybounds.estimation import ConditionalCdfTable, identification_tol

from conftest import interior_grid
from reference import check_smiv_data, lower_bound_interpolator, resimulate_sample


# -- perfect-foresight surface -------------------------------------------------

def test_pure_roy_population_lower_bound_is_zero(pure_roy_dgp):
    grid = interior_grid(pure_roy_dgp, n_y=40, n_z=6)
    t = population_tables(pure_roy_dgp, grid)
    surf = cost_bounds_pf(t, 0.0)
    assert not surf.rejected
    m = surf.identified_mask
    assert m.any()
    assert np.max(np.abs(surf.Clow[m])) <= 1e-9


def test_constant_cost_containment_population():
    # cost gap g0 - g1 = 3 constant in z: bounds must straddle 3
    dgp = DgpSpec.quasi_linear(mu0=(0.0, 0.2), mu1=(1.2, 0.3),
                               sigma0=0.5, sigma1=0.55,
                               g0=(3.5, 0.0), g1=(0.5, 0.0))
    grid = interior_grid(dgp, n_y=50, n_z=6)
    t = population_tables(dgp, grid)
    surf = cost_bounds_pf(t, 0.0)
    assert not surf.rejected
    m = surf.identified_mask
    assert m.any()
    assert np.all(surf.Clow[m] <= 3.0 + 1e-9)
    assert np.all(surf.Chigh[m] >= 3.0 - 1e-9)


def test_containment_on_quasi_linear(quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=40, n_z=6)
    t = population_tables(quasi_dgp, grid)
    surf = cost_bounds_pf(t, 0.0)
    tc = true_cost(quasi_dgp, grid.y[:, None], grid.z[None, :])
    m = surf.identified_mask
    assert np.all(surf.Clow[m] <= tc[m] + 1e-8)
    assert np.all(surf.Chigh[m] >= tc[m] - 1e-8)


def test_surface_order_and_clip(quasi_sample, small_grid):
    t = estimate_tables(quasi_sample, small_grid)
    surf = cost_bounds_pf(t, quasi_sample.lower_support_bound, crossing_tol=1.0)
    m = surf.identified_mask
    assert np.all(surf.Clow[m] >= 0.0)
    assert np.all(surf.Clow[m] <= surf.Chigh[m] + 1e-12)
    assert np.all(np.isnan(surf.Clow[~m]))


def test_all_d0_table_fully_unidentified():
    grid = EvaluationGrid(y=np.array([1.0, 2.0, 3.0]), z=np.array([0.2, 0.8]))
    F = np.array([[0.2, 0.3], [0.6, 0.7], [1.0, 1.0]])
    t = ConditionalCdfTable(grid=grid, F=F, F0=F, F1=np.zeros_like(F),
                            p=np.array([0.0, 0.0]))
    surf = cost_bounds_pf(t, 0.0)
    assert not surf.identified_mask.any()
    assert np.all(np.isnan(surf.Clow))


def test_monotone_map_property(quasi_dgp):
    # y - Clow(y, z) non decreasing along y at identified cells
    grid = interior_grid(quasi_dgp, n_y=40, n_z=5)
    t = population_tables(quasi_dgp, grid)
    surf = cost_bounds_pf(t, 0.0)
    for j in range(grid.z.size):
        col = surf.identified_mask[:, j]
        psi = grid.y[col] - surf.Clow[col, j]
        assert np.all(np.diff(psi) >= -1e-9)


# -- sharpness re-simulation ---------------------------------------------------

def test_resimulation_reproduces_tables(quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=40, n_z=5)
    t = population_tables(quasi_dgp, grid)
    surf = cost_bounds_pf(t, 0.0)

    s = generate_sample(quasi_dgp, 60_000, seed=17)
    s2 = resimulate_sample(s, surf)
    t1 = estimate_tables(s, grid, bandwidth=0.12)
    t2 = estimate_tables(s2, grid, bandwidth=0.12)
    # cdfs are Lipschitz-ish on the interior grid; compare on probability scale
    assert np.max(np.abs(t1.F - t2.F)) <= 0.05
    assert np.max(np.abs(t1.p - t2.p)) <= 0.02

    rep = check_smiv_data(s2, lambda yy, zz: np.zeros_like(np.asarray(yy, float)),
                          grid.y[::4], grid.z, tol=0.05)
    assert rep.ok


def test_lower_bound_interpolator_matches_surface(quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=30, n_z=5)
    t = population_tables(quasi_dgp, grid)
    surf = cost_bounds_pf(t, 0.0)
    f = lower_bound_interpolator(surf)
    for j, zv in enumerate(grid.z):
        col = surf.identified_mask[:, j]
        ys = grid.y[col]
        if ys.size:
            got = f(ys, np.full(ys.size, zv))
            assert np.allclose(got, surf.Clow[col, j], atol=1e-12)


# -- imperfect-foresight closed form -------------------------------------------

def brute_force_if_lower(z_grid, m, p, tol=1e-12):
    """Smallest constant c(z) >= 0 making m(z) - p(z) c(z)... the bound takes
    the drop of m below its running future minimum, rescaled; search directly
    over a fine c grid per z for the least c with m(z) - p(z) c <= future m."""
    out = np.zeros(len(z_grid))
    for k in range(len(z_grid)):
        if p[k] <= 0:
            continue
        fut = m[k:].min()
        lo, hi = 0.0, max((m[k] - fut) / p[k] + 1.0, 1.0)
        # bisection on the defining inequality m_k - p_k c <= fut
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if m[k] - p[k] * mid <= fut + tol:
                hi = mid
            else:
                lo = mid
        out[k] = hi
    return out


def test_if_lower_worked_example():
    curve = if_bounds_from_moments(
        z_grid=[0.1, 0.2, 0.3], m=[10.0, 8.0, 9.0],
        m0b=[0.0, 0.0, 0.0], p=[0.5, 0.5, 0.5])
    assert np.allclose(curve.Clow, [4.0, 0.0, 0.0])


def test_if_upper_worked_example():
    curve = if_bounds_from_moments(
        z_grid=[0.1, 0.2, 0.3], m=[10.0, 8.0, 9.0],
        m0b=[4.0, 4.0, 4.5], p=[0.5, 0.5, 0.5])
    assert curve.Chigh[1] == pytest.approx((8.0 - 4.0) / 0.5)


def test_if_monotone_m_gives_zero_lower():
    curve = if_bounds_from_moments(
        z_grid=[0.1, 0.2, 0.3], m=[5.0, 6.0, 7.0],
        m0b=[1.0, 1.0, 1.0], p=[0.3, 0.4, 0.5])
    assert np.allclose(curve.Clow, 0.0)


def test_if_zero_p_conventions():
    curve = if_bounds_from_moments(
        z_grid=[0.1, 0.2], m=[10.0, 8.0], m0b=[2.0, 2.0], p=[0.0, 0.5])
    assert curve.Clow[0] == 0.0
    assert np.isposinf(curve.Chigh[0])


def test_if_closed_form_matches_brute_force_fuzz():
    rng = np.random.default_rng(8)
    for rep in range(50):
        k = rng.integers(3, 9)
        z = np.sort(rng.uniform(0, 1, k))
        z += np.arange(k) * 1e-4
        m = rng.uniform(2, 12, k)
        p = np.round(rng.uniform(0.1, 0.9, k), 3)
        curve = if_bounds_from_moments(z, m, np.zeros(k), p)
        ref = brute_force_if_lower(z, m, p)
        assert np.allclose(curve.Clow, ref, atol=1e-9), rep


def test_if_estimated_from_sample(quasi_dgp):
    from dataclasses import replace
    dgp = replace(quasi_dgp, foresight="imperfect")
    s = generate_sample(dgp, 20_000, seed=23)
    zg = np.linspace(0.1, 0.9, 7)
    curve = cost_bounds_if(s, zg)
    assert np.all(curve.Clow >= 0.0)
    # mean-comparison choice is deterministic in z, so p steps 0 -> 1;
    # only cells clear of the p_tol floor carry a finite upper bound
    live = curve.p > curve.p_tol
    assert np.any(live)
    finite = live & np.isfinite(curve.Chigh)
    assert np.all(curve.Clow[finite] <= curve.Chigh[finite] + 0.75)


# -- testability ---------------------------------------------------------------

def test_testability_positive_p_never_rejects():
    curve = if_bounds_from_moments([0.1, 0.2], [9.0, 5.0], [1.0, 1.0], [0.4, 0.4])
    assert not check_testability(curve).rejected


def test_testability_rejects_decreasing_m_at_zero_p():
    curve = if_bounds_from_moments([0.1, 0.2], [5.0, 7.0], [0.0, 0.0], [0.0, 0.0])
    # hold on: with z ordered increasing, rejection needs m decreasing as z rises
    rep = check_testability(curve)
    assert not rep.rejected
    curve2 = if_bounds_from_moments([0.1, 0.2], [7.0, 5.0], [0.0, 0.0], [0.0, 0.0])
    rep2 = check_testability(curve2)
    assert rep2.rejected and rep2.worst_violation == pytest.approx(2.0)


def test_testability_equal_m_not_rejected():
    curve = if_bounds_from_moments([0.1, 0.2], [5.0, 5.0], [0.0, 0.0], [0.0, 0.0])
    assert not check_testability(curve).rejected


def _pairwise_worst_drop(m):
    """The double loop testability_if replaced: the largest m[a] - m[b], a < b."""
    worst = 0.0
    for a in range(m.size):
        for b in range(a + 1, m.size):
            if m[a] - m[b] > worst:
                worst = m[a] - m[b]
    return worst


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=12))
def test_testability_running_max_equals_the_pairwise_loop(seed, n):
    rng = np.random.default_rng(seed)
    # a few levels of mixed magnitude: ties, and drops that round
    levels = rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3, 4)
    m = rng.choice(levels, n)
    p = np.where(rng.random(n) < 0.7, 0.0, 0.3)
    curve = if_bounds_from_moments(np.arange(n) / 10.0, m, m, p)
    want = _pairwise_worst_drop(m[p <= 1e-9])
    rep = check_testability(curve)
    assert np.float64(rep.worst_violation).tobytes() == np.float64(want).tobytes()
    assert rep.rejected == (want > 1e-9)


# -- random-cost cdf bounds ----------------------------------------------------

def point_mass_table():
    # Y | z, D=1 is a point mass at 2; envelopes collapse so that the
    # implied Y1 - C distribution is a point mass at 1
    grid = EvaluationGrid(y=np.array([0.5, 1.0, 2.0]), z=np.array([0.5]))
    F1 = np.array([[0.0], [0.0], [1.0]])
    F = np.array([[0.0], [1.0], [1.0]])  # mixture: D=0 mass at 1... F-F1 below
    F0 = F - F1
    return ConditionalCdfTable(grid=grid, F=F, F0=F0, F1=F1, p=np.array([1.0]))


def test_makarov_point_mass_upper():
    # two p=1 columns: the higher-z column carries Y at 1, so the lower
    # envelope pins the shifted-income mass at 1 while the evaluated column
    # keeps Y1 at 2; the implied cost is exactly 1
    grid = EvaluationGrid(y=np.array([0.5, 1.0, 2.0]), z=np.array([0.5, 0.9]))
    F = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    t = ConditionalCdfTable(grid=grid, F=F, F0=np.zeros_like(F), F1=F.copy(),
                            p=np.array([1.0, 1.0]))
    rc = random_cost_bounds(t, cost_grid=np.array([0.0, 0.5, 0.99, 1.0, 1.5]))
    assert np.allclose(rc.FU[:3, 0], 0.0, atol=1e-12)
    assert np.allclose(rc.FU[3:, 0], 1.0, atol=1e-12)
    assert np.allclose(rc.FL[:3, 0], 0.0, atol=1e-12)


def test_makarov_no_violation_gives_fu_one():
    # Flow = Fhigh = F among D=1: zero cost is admissible, so FU = 1 at c >= 0
    grid = EvaluationGrid(y=np.linspace(0.5, 3.0, 6), z=np.array([0.4]))
    F = np.sort(np.random.default_rng(3).uniform(0, 1, 6))[:, None]
    F[-1] = 1.0
    t = ConditionalCdfTable(grid=grid, F=F, F0=np.zeros_like(F), F1=F,
                            p=np.array([1.0]))
    rc = random_cost_bounds(t, cost_grid=np.array([0.0, 0.5, 2.0]))
    assert np.allclose(rc.FU[:, 0], 1.0, atol=1e-12)


def test_makarov_order_and_monotonicity_fuzz(quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=30, n_z=4)
    t = population_tables(quasi_dgp, grid)
    cost_grid = np.linspace(0.0, 3.0, 13)
    rc = random_cost_bounds(t, cost_grid, 0.0)
    ok = rc.identified_z
    assert ok.all()
    assert np.all(rc.FL[:, ok] <= rc.FU[:, ok] + 1e-12)
    assert np.all((rc.FL >= -1e-12) & (rc.FU <= 1 + 1e-12))
    assert np.all(np.diff(rc.FL, axis=0) >= -1e-12)
    assert np.all(np.diff(rc.FU, axis=0) >= -1e-12)


def test_makarov_brackets_true_cost_cdf(quasi_dgp):
    # population tables: the true cost cdf among D=1 lies inside [FL, FU]
    grid = interior_grid(quasi_dgp, n_y=50, n_z=4)
    t = population_tables(quasi_dgp, grid)
    cost_grid = np.linspace(0.0, 2.5, 11)
    rc = random_cost_bounds(t, cost_grid, 0.0)

    s = generate_sample(quasi_dgp, 200_000, seed=41)
    for j, zv in enumerate(grid.z):
        near = np.abs(s.z - zv) < 0.04
        sel = near & (s.d == 1)
        if sel.sum() < 500:
            continue
        c_true = true_cost(quasi_dgp, s.y[sel], zv)
        emp = np.array([(c_true <= c).mean() for c in cost_grid])
        assert np.all(emp >= rc.FL[:, j] - 0.05)
        assert np.all(emp <= rc.FU[:, j] + 0.05)


def test_makarov_zero_p_column_unidentified():
    grid = EvaluationGrid(y=np.array([1.0, 2.0]), z=np.array([0.2, 0.8]))
    F = np.array([[0.3, 0.4], [1.0, 1.0]])
    t = ConditionalCdfTable(grid=grid, F=F, F0=F, F1=np.zeros_like(F),
                            p=np.array([0.0, 0.6]))
    rc = random_cost_bounds(t, np.array([0.0, 1.0]))
    assert not rc.identified_z[0]
    assert np.all(np.isnan(rc.FL[:, 0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_makarov_fl_below_fu_random_tables(seed):
    # the bracket order only has content for tables compatible with the
    # model, so condition on the envelope crossing check passing
    from roybounds import crossing_test, envelope_table

    rng = np.random.default_rng(seed)
    ny, nz = 7, 3
    y = np.sort(rng.uniform(0.1, 5.0, ny))
    y += np.arange(ny) * 1e-5
    grid = EvaluationGrid(y=y, z=np.sort(rng.uniform(0, 1, nz) + np.arange(nz)))
    F = np.sort(rng.uniform(0, 1, (ny, nz)), axis=0)
    F[-1] = 1.0
    w = rng.uniform(0.2, 0.8, nz)
    F1 = F * w[None, :]
    t = ConditionalCdfTable(grid=grid, F=F, F0=F - F1, F1=F1, p=w)
    assume(not crossing_test(*envelope_table(t, 0.0)).rejected)
    rc = random_cost_bounds(t, np.linspace(0, 4, 9))
    ok = rc.identified_z
    assert np.all(rc.FL[:, ok] <= rc.FU[:, ok] + 1e-12)


def _reference_random_cost_bounds(table, cost_grid, lower_support_bound):
    """The per-cost loop that random_cost_bounds replaced: (FL, FU)."""
    from roybounds import envelope_table

    def step(grid, vals, t):
        idx = np.searchsorted(grid, t, side="right")
        return np.where(idx > 0, vals[np.maximum(idx - 1, 0)], 0.0)

    Flow, Fhigh = envelope_table(table, lower_support_bound)
    y = table.grid.y
    FL = np.full((cost_grid.size, table.grid.z.size), np.nan)
    FU = FL.copy()
    for iz in np.flatnonzero(table.p > identification_tol(table.n_obs)):
        p = table.p[iz]
        cond = np.clip(table.F1[:, iz] / p, 0.0, 1.0)
        low = np.clip((Flow[:, iz] - table.F[:, iz]) / p + cond, 0.0, 1.0)
        high = np.clip((Fhigh[:, iz] - table.F[:, iz]) / p + cond, 0.0, 1.0)
        cond, low, high = (np.maximum.accumulate(v) for v in (cond, low, high))
        for ic, c in enumerate(cost_grid):
            t = np.concatenate([y, y + c])
            a = step(y, cond, t)
            FL[ic, iz] = max(0.0, float(np.max(a - step(y, high, t - c))))
            FU[ic, iz] = 1.0 + min(0.0, float(np.min(a - step(y, low, t - c))))
    return FL, FU


@pytest.mark.parametrize("family", ["quasi", "mult"])
def test_random_cost_bounds_match_the_per_cost_loop(quasi_dgp, family):
    from roybounds import DgpSpec

    dgp = quasi_dgp if family == "quasi" else DgpSpec.multiplicative(
        mu0=(0.0, 0.3), mu1=(0.2, 0.5), sigma0=0.6, sigma1=0.7, g0=(0.4, -0.3), g1=(0.1, 0.0))
    s = generate_sample(dgp, 3000, seed=5)
    t = estimate_tables(s, EvaluationGrid.from_sample(s, 30, 5))
    cost_grid = np.concatenate([np.linspace(0.0, 3.0, 41), [-0.5, 1e-9, 10.0]])
    rc = random_cost_bounds(t, cost_grid, s.lower_support_bound)
    FL, FU = _reference_random_cost_bounds(t, cost_grid, s.lower_support_bound)
    assert rc.FL.tobytes() == FL.tobytes() and rc.FU.tobytes() == FU.tobytes()
