"""Band construction: fibers, their inversion, bootstrap, CLR step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds import (
    DgpSpec,
    EvaluationGrid,
    ObservationSample,
    bootstrap_errors,
    clr_band,
    confidence_band,
    cost_bounds_pf,
    default_selection_subset,
    estimate_tables,
    generate_sample,
    population_tables,
    write_sample_csv,
)
from roybounds.cli import main
from roybounds.errors import ConfigError
from roybounds.estimation import identification_tol
from roybounds.inference import (
    SE_FLOOR,
    _fiber_matrix,
    _pairs,
    _theta,
)

from conftest import interior_grid, quasi_dgp_spec
from reference import generalized_inverse, searchsorted_theta


# -- fiber table -----------------------------------------------------------------

def test_fibers_match_table_combinations(quasi_sample, small_grid):
    table = estimate_tables(quasi_sample, small_grid, 0.15)
    pairs = _pairs(small_grid.z.size, "lower")
    G = _fiber_matrix(small_grid, table.F, table.F0, table.p, "lower",
                      quasi_sample.lower_support_bound)
    for k, (i, j) in enumerate(pairs):
        assert j >= i
        expect = table.F[:, j] - table.F0[:, i]
        assert np.allclose(G[:, k], expect, atol=1e-12)


def test_diagonal_fiber_is_sector_one_cdf(quasi_sample, small_grid):
    table = estimate_tables(quasi_sample, small_grid, 0.15)
    pairs = _pairs(small_grid.z.size, "lower")
    G = _fiber_matrix(small_grid, table.F, table.F0, table.p, "lower",
                      quasi_sample.lower_support_bound)
    for k, (i, j) in enumerate(pairs):
        if i == j:
            assert np.allclose(G[:, k], table.F1[:, i], atol=1e-12)


def test_upper_side_fibers_carry_support_mass(quasi_sample, small_grid):
    table = estimate_tables(quasi_sample, small_grid, 0.15)
    pairs = _pairs(small_grid.z.size, "upper")
    G = _fiber_matrix(small_grid, table.F, table.F0, table.p, "upper",
                      quasi_sample.lower_support_bound)
    ind = (small_grid.y >= quasi_sample.lower_support_bound).astype(float)
    for k, (i, j) in enumerate(pairs):
        assert j <= i
        expect = table.F0[:, j] + table.p[j] * ind - table.F0[:, i]
        assert np.allclose(G[:, k], expect, atol=1e-12)


def test_fibers_agree_when_outcome_ignores_z(pure_roy_dgp):
    # no z in the outcome law, so every ztilde fiber estimates the same curve
    dgp = DgpSpec.pure_roy((0.3, 0.0), (0.5, 0.0))
    s = generate_sample(dgp, 20_000, seed=5)
    grid = EvaluationGrid(y=np.quantile(s.y, np.linspace(0.05, 0.95, 25)),
                          z=np.linspace(0.2, 0.8, 4))
    table = estimate_tables(s, grid, 0.2)
    pairs = _pairs(grid.z.size, "lower")
    G = _fiber_matrix(grid, table.F, table.F0, table.p, "lower",
                      s.lower_support_bound)
    for iz in range(4):
        cols = [k for k, (i, _) in enumerate(pairs) if i == iz]
        block = G[:, cols]
        spread = np.max(block, axis=1) - np.min(block, axis=1)
        assert np.max(spread) < 0.06


# -- fiber inversion -------------------------------------------------------------

def _theta_single(y, values, x):
    """The band's lower inverse of one monotone fiber at one target value."""
    y = np.asarray(y, dtype=float)
    targets = np.full((y.size, 1), float(x))
    theta, _ = _theta(y, targets, np.asarray(values, dtype=float)[:, None], "lower")
    return theta[0, 0]


def test_theta_matches_lower_generalized_inverse_on_step():
    y = np.array([0.0, 0.5, 1.0])
    v = np.array([0.0, 0.6, 0.6])
    for x in (0.3, 0.7, -0.1, 0.0, 0.6, 1.5):
        got = _theta_single(y, v, x)
        ref = generalized_inverse(y, v, x, kind="lower")
        assert got == ref


@st.composite
def _fiber_problems(draw):
    """Fibers on a shared y grid, non-decreasing with ties, plus targets."""
    ny = draw(st.integers(2, 10))
    nz = draw(st.integers(1, 3))
    side = draw(st.sampled_from(["lower", "upper"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.uniform(0.01, 1.0, ny))
    # a few levels force ties inside fibers and between fibers and targets
    if draw(st.booleans()):
        levels = np.linspace(-0.2, 1.2, draw(st.integers(2, 8)))
    else:
        levels = rng.uniform(-0.2, 1.2, 64)
    pairs = _pairs(nz, side)
    Gstar = np.sort(rng.choice(levels, size=(ny, len(pairs))), axis=0)
    F1 = rng.choice(levels, size=(ny, nz))
    return y, F1, pairs, Gstar, side


@settings(max_examples=80, deadline=None)
@given(_fiber_problems())
def test_theta_matches_generalized_inverse_fuzz(problem):
    y, F1, pairs, Gstar, side = problem
    theta, _ = _theta(y, F1, Gstar, side)
    for k, (i, _) in enumerate(pairs):
        for row in range(y.size):
            ref = generalized_inverse(y, Gstar[:, k], F1[row, i], kind=side)
            assert theta[row, k] == ref


@st.composite
def _fiber_stacks(draw):
    """Stacks of non-decreasing fibers with ties and signed zeros, and
    unsorted targets."""
    c, ny, nz = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    side = draw(st.sampled_from(["lower", "upper"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = np.concatenate(([-0.0, 0.0, 1.0],
                             rng.uniform(-0.2, 1.2, draw(st.integers(1, 8)))))
    npairs = len(_pairs(nz, side))
    Gstar = np.sort(rng.choice(levels, size=(c, ny, npairs)), axis=1)
    F1 = rng.choice(levels, size=(c, ny, nz))
    return np.cumsum(rng.uniform(0.01, 1.0, ny)), F1, Gstar, side


@settings(max_examples=200, deadline=None)
@given(_fiber_stacks())
def test_stacked_theta_matches_per_pair_searchsorted(problem):
    y, F1, Gstar, side = problem
    theta, clamped = _theta(y, F1, Gstar, side)
    want_theta, want_clamped = searchsorted_theta(y, F1, Gstar, side)
    assert theta.tobytes() == want_theta.tobytes()
    assert np.array_equal(clamped, want_clamped)


def test_theta_below_fiber_minimum_clamps_low():
    assert _theta_single([1.0, 2.0, 3.0], [0.2, 0.5, 0.9], 0.1) == 1.0


def _population_theta(t):
    G = _fiber_matrix(t.grid, t.F, t.F0, t.p, "lower", 0.0)
    theta, _ = _theta(t.grid.y, t.F1, np.maximum.accumulate(G, axis=-2), "lower")
    return _pairs(t.grid.z.size, "lower"), theta


def test_diagonal_inversion_recovers_y(quasi_dgp):
    # inverting F1 at its own value walks back to y, one grid step of slack
    grid = interior_grid(quasi_dgp, n_y=40, n_z=4)
    t = population_tables(quasi_dgp, grid)
    spacing = np.max(np.diff(grid.y))
    pairs, theta = _population_theta(t)
    for iz in range(grid.z.size):
        diagonal = pairs.index((iz, iz))
        for k in range(5, grid.y.size, 7):
            got = theta[k, diagonal]
            assert abs(got - grid.y[k]) <= spacing + 1e-12


def test_population_fiber_infimum_stays_below_lower_bound(quasi_dgp):
    # per-fiber inversion can only be more generous than the envelope route
    grid = interior_grid(quasi_dgp, n_y=50, n_z=5)
    t = population_tables(quasi_dgp, grid)
    surface = cost_bounds_pf(t)
    assert not surface.rejected
    pairs, theta = _population_theta(t)
    for iz in range(grid.z.size):
        cols = [k for k, (i, _) in enumerate(pairs) if i == iz]
        for k in range(grid.y.size):
            if not surface.identified_mask[k, iz]:
                continue
            implied = grid.y[k] - float(np.min(theta[k, cols]))
            assert surface.Clow[k, iz] >= implied - 1e-12


# -- bootstrap -------------------------------------------------------------------

def _tiny_sample(n=60):
    rng = np.random.default_rng(11)
    return ObservationSample(y=rng.uniform(1, 3, n),
                             d=(rng.uniform(size=n) < 0.6).astype(np.int8),
                             z=rng.uniform(0, 1, n))


def test_bootstrap_needs_fifty_replications(small_grid):
    with pytest.raises(ConfigError):
        bootstrap_errors(_tiny_sample(), small_grid, 0.3, B=49)


def test_bootstrap_same_seed_reproduces(small_grid):
    s = _tiny_sample()
    sn_a, draws_a = bootstrap_errors(s, small_grid, 0.3, B=50, seed=4)
    sn_b, draws_b = bootstrap_errors(s, small_grid, 0.3, B=50, seed=4)
    assert np.array_equal(sn_a, sn_b)
    assert np.array_equal(draws_a, draws_b)
    sn_c, _ = bootstrap_errors(s, small_grid, 0.3, B=50, seed=5)
    assert not np.array_equal(sn_a, sn_c)


def test_infer_estimates_the_table_and_its_fibers_once(tmp_path, monkeypatch):
    import roybounds.cli
    import roybounds.inference
    import roybounds.parallel

    # counts in this process: the replications must not fork
    monkeypatch.setattr(roybounds.parallel, "_width", lambda: 1)
    tables, fibers = [], []

    def counting_estimate(*args, **kwargs):
        tables.append(estimate_tables(*args, **kwargs))
        return tables[-1]

    def counting_fibers(grid, F, *args):
        fibers.append(F)
        return _fiber_matrix(grid, F, *args)

    for module in (roybounds.cli, roybounds.inference):
        monkeypatch.setattr(module, "estimate_tables", counting_estimate)
    monkeypatch.setattr(roybounds.inference, "_fiber_matrix", counting_fibers)
    sample_csv = tmp_path / "sample.csv"
    write_sample_csv(_tiny_sample(400), sample_csv, {})
    code = main(["infer", "--input", str(sample_csv), "--output",
                 str(tmp_path / "band.csv"), "--bootstrap", "50",
                 "--grid-y", "15", "--grid-z", "3", "--bandwidth", "0.3"])
    assert code in (0, 2)
    assert len(tables) == 1
    assert sum(np.shares_memory(F, tables[0].F) for F in fibers) == 1
    # fibers built, summed over stacks: the sample's and 50 replications'
    assert sum(len(F) for F in fibers) == 51


def test_degenerate_sample_hits_se_floor():
    n = 50
    s = ObservationSample(y=np.full(n, 2.0), d=np.ones(n, dtype=np.int8),
                          z=np.full(n, 0.5))
    grid = EvaluationGrid(y=np.array([1.0, 2.0, 3.0]), z=np.array([0.5]))
    sn, _ = bootstrap_errors(s, grid, 0.25, B=50, seed=0)
    assert np.all(sn == SE_FLOOR)


def test_bootstrap_errors_shrink_with_n(quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=15, n_z=3)
    med = []
    for n in (2_000, 8_000, 32_000):
        s = generate_sample(quasi_dgp, n, seed=31)
        sn, _ = bootstrap_errors(s, grid, 0.2, B=60, seed=2)
        med.append(float(np.median(sn)))
    assert med[0] > med[1] > med[2]


# -- band assembly ---------------------------------------------------------------

def test_band_alpha_range_enforced(quasi_sample, small_grid):
    for bad in (0.0, 0.6, -0.1):
        with pytest.raises(ConfigError):
            confidence_band(quasi_sample, small_grid, bandwidth=0.2,
                            alpha=bad, B=50, seed=0)


def test_band_empty_subset_rejected(quasi_sample, small_grid):
    with pytest.raises(ConfigError):
        confidence_band(quasi_sample, small_grid, bandwidth=0.2, B=50,
                        seed=0, subset_indices=())


def test_band_sits_below_point_estimate(quasi_sample, small_grid):
    band = confidence_band(quasi_sample, small_grid, bandwidth=0.2, B=50, seed=3)
    assert band.critical_value >= 0.0
    assert np.all(band.Cn <= band.Chat + 1e-12)


def test_upper_band_sits_above_point_estimate(quasi_sample, small_grid):
    band = confidence_band(quasi_sample, small_grid, bandwidth=0.2, B=50,
                           seed=3, side="upper")
    assert np.all(band.Cn >= band.Chat - 1e-12)


# pure Roy with independent sector outcomes: every cost is zero
_INDEPENDENT_ROY = DgpSpec(family="pure_roy", mu0=(0.0, 0.3), mu1=(0.2, 0.5),
                           sigma0=0.6, sigma1=0.7, outcome_corr=0.0)


@pytest.mark.parametrize("dgp", [quasi_dgp_spec(), _INDEPENDENT_ROY], ids=["quasi", "roy"])
def test_lower_band_estimate_is_the_sharp_lower_bound(dgp):
    # on the CLI grid, where F1 is flat over many y steps, a fiber that ties
    # with its target must invert past y as the sandwich does
    sample = generate_sample(dgp, 2000, seed=11)
    grid = EvaluationGrid.from_sample(sample, 200, 8)
    band = confidence_band(sample, grid, B=50, seed=11)
    surface = cost_bounds_pf(band.table, sample.lower_support_bound)
    both = band.identified_mask & surface.identified_mask
    assert both.sum() > 1000
    assert np.maximum(band.Chat, 0.0)[both].tobytes() == surface.Clow[both].tobytes()


def test_band_monotone_in_alpha(quasi_sample, small_grid):
    tight = confidence_band(quasi_sample, small_grid, bandwidth=0.2, B=60,
                            seed=9, alpha=0.05)
    loose = confidence_band(quasi_sample, small_grid, bandwidth=0.2, B=60,
                            seed=9, alpha=0.25)
    assert tight.critical_value >= loose.critical_value
    assert np.all(tight.Cn <= loose.Cn + 1e-12)


def test_band_deterministic_given_seed(quasi_sample, small_grid):
    a = confidence_band(quasi_sample, small_grid, bandwidth=0.2, B=50, seed=7)
    b = confidence_band(quasi_sample, small_grid, bandwidth=0.2, B=50, seed=7)
    assert np.array_equal(a.Cn, b.Cn)
    assert a.critical_value == b.critical_value


def test_zero_variance_single_inequality_collapses_band():
    y = np.linspace(1.0, 2.0, 4)
    grid = EvaluationGrid(y=y, z=np.array([0.5]))
    theta = np.linspace(0.8, 1.6, 4)[:, None]
    draws = np.repeat(theta[None, :, :], 60, axis=0)
    sn = np.full_like(theta, SE_FLOOR)
    Cn, Chat, _, crit = clr_band(theta, draws, sn, ((0, 0),), grid,
                                    alpha=0.05, subset_indices=(0, 2),
                                    n_obs=500)
    assert crit == 0.0
    assert np.array_equal(Cn, Chat)
    assert np.allclose(Chat[:, 0], y - theta[:, 0])


def test_default_subset_lands_on_deciles():
    y_obs = np.linspace(0.0, 1.0, 100_001)
    y_grid = np.linspace(0.0, 1.0, 11)
    assert default_selection_subset(y_grid, y_obs) == tuple(range(1, 10))


def test_band_mask_is_subset_of_identified(quasi_sample, small_grid):
    band = confidence_band(quasi_sample, small_grid, bandwidth=0.2, B=50, seed=3)
    table = estimate_tables(quasi_sample, small_grid, 0.2)
    weak = table.F1 >= identification_tol(table.n_obs)
    assert np.all(band.identified_mask <= weak)
