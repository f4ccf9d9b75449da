"""The table kernel and conditional means against the estimator they
replaced, bit for bit.

The reference below is the earlier estimator, kept verbatim in spirit: build
the resample ``(y[idx], d[idx], z[idx])``, then per z column compute the
local linear weights over all n records, stable-argsort all of y and take
full-length cumulative sums.  The kernel must give the same floats, for the
sample itself and for any index draw; its zeros are all +0.0, so the
reference's signed zeros are made +0.0 before the byte comparison.  A
conditional mean must equal the dot product of those weights with the
response, which pins the imperfect-foresight artifacts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roybounds import EvaluationGrid, ObservationSample, generate_sample
from roybounds.errors import NoSupportError
from roybounds.estimation import (
    TableKernel,
    _repair_columns,
    conditional_mean,
    epanechnikov,
    estimate_tables,
    resolve_bandwidth,
)
from roybounds.inference import (
    _CHUNK_ENTRIES,
    _fiber_matrix,
    _pairs,
    _theta,
    bootstrap_errors,
)
from roybounds.model import _philox

from conftest import quasi_dgp_spec


# -- reference: resample, then one full stable argsort per z column ------------

def _reference_weights(z, z0, h):
    w = epanechnikov((z - z0) / h)
    s0 = float(np.sum(w))
    if s0 <= 0.0:
        raise NoSupportError(z0, h)
    dz = z - z0
    s1 = float(np.sum(w * dz))
    s2 = float(np.sum(w * dz * dz))
    den = s0 * s2 - s1 * s1
    if den <= 1e-12 * max(s0 * s2, s1 * s1, s0 * s0 * h * h):
        return w / s0
    return w * (s2 - s1 * dz) / den


def _reference_repair(F, F0, F1):
    Fc = np.clip(F, 0.0, 1.0)
    F0c = np.clip(F0, 0.0, 1.0)
    F1c = np.clip(F1, 0.0, 1.0)
    s = F0c + F1c
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(s > 0, Fc / np.where(s > 0, s, 1.0), 0.0)
    F1c = F1c * scale
    Fm = np.clip(np.maximum.accumulate(Fc, axis=0), 0.0, 1.0)
    F1m = np.empty_like(F1c)
    prev = np.clip(F1c[0], 0.0, Fm[0])
    F1m[0] = prev
    for i in range(1, F1c.shape[0]):
        step = Fm[i] - Fm[i - 1]
        prev = np.clip(F1c[i], prev, prev + step)
        F1m[i] = prev
    return Fm, Fm - F1m, F1m


def _reference_tables(sample, grid, h, idx=None):
    if idx is None:
        idx = np.arange(sample.n)
    y, d, z = sample.y[idx], sample.d[idx], sample.z[idx]
    ny, nz = grid.shape
    F, F0, F1, p = np.empty((ny, nz)), np.empty((ny, nz)), np.empty((ny, nz)), np.empty(nz)
    for j, z0 in enumerate(grid.z):
        a = _reference_weights(z, float(z0), h)
        order = np.argsort(y, kind="stable")
        aw = a[order]
        cum_all = np.concatenate(([0.0], np.cumsum(aw)))
        cum_d1 = np.concatenate(([0.0], np.cumsum(aw * d[order].astype(float))))
        cum_all[-1] = 1.0
        at = np.searchsorted(y[order], grid.y, side="right")
        F[:, j], F1[:, j], p[j] = cum_all[at], cum_d1[at], cum_d1[-1]
        F0[:, j] = F[:, j] - F1[:, j]
    F, F0, F1 = _reference_repair(F, F0, F1)
    return F + 0.0, F0 + 0.0, F1 + 0.0, np.clip(p, 0.0, 1.0) + 0.0


def _assert_bitwise(table, ref):
    for name, got, want in zip(("F", "F0", "F1", "p"), table, ref):
        assert np.array_equal(got, want), name
        assert got.tobytes() == want.tobytes(), f"{name}: signed zeros differ"


def _check(sample, grid, h, draws=4, seed=0):
    kernel = TableKernel(sample, grid, h)
    h = kernel.bandwidth
    table = estimate_tables(sample, grid, h)
    _assert_bitwise([table.F, table.F0, table.F1, table.p],
                    _reference_tables(sample, grid, h))
    rng = np.random.default_rng(seed)
    idx = [None] + [rng.integers(0, sample.n, size=sample.n) for _ in range(draws)]
    # one stack of the sample and its draws, each table as the reference makes it
    stack = kernel.tables(idx)
    for b, i in enumerate(idx):
        _assert_bitwise([a[b] for a in stack], _reference_tables(sample, grid, h, i))


def _two_cluster_sample(n=400, seed=5):
    rng = np.random.default_rng(seed)
    return ObservationSample(
        y=rng.uniform(1.0, 3.0, n),
        d=(rng.uniform(size=n) < 0.5).astype(np.int8),
        z=np.where(rng.uniform(size=n) < 0.5, 0.25, 0.75))


# -- the cases -----------------------------------------------------------------

@pytest.mark.parametrize("n,n_y,n_z,seed", [(2000, 25, 5, 2), (500, 40, 6, 3),
                                            (20000, 200, 8, 1)])
def test_random_samples_and_draws(n, n_y, n_z, seed):
    sample = generate_sample(quasi_dgp_spec(), n, seed=seed)
    grid = EvaluationGrid.from_sample(sample, n_y, n_z)
    # n = 20 000 takes the default (Silverman) bandwidth
    _check(sample, grid, h=None if n == 20000 else 0.2,
           draws=2 if n == 20000 else 5, seed=seed)


def test_heavy_ties_in_y():
    base = generate_sample(quasi_dgp_spec(), 3000, seed=4)
    y = np.round(base.y, 1)
    sample = ObservationSample(y=y, d=base.d, z=base.z,
                               lower_support_bound=float(min(0.0, y.min())))
    assert np.unique(y).size < sample.n / 20
    _check(sample, EvaluationGrid.from_sample(sample, 40, 5), h=0.15, draws=6)


def test_singular_window_takes_nadaraya_watson():
    # every in-window z equals z0, so the local design is singular
    sample = _two_cluster_sample()
    grid = EvaluationGrid(y=np.linspace(0.5, 3.5, 30), z=np.array([0.25, 0.75]))
    _check(sample, grid, h=0.3, draws=10)


def test_records_exactly_on_the_window_edge():
    # z0 = 0.25, h = 0.5: the z = 0.75 cluster sits at |u| = 1, weight 0
    sample = _two_cluster_sample(seed=6)
    grid = EvaluationGrid(y=np.linspace(0.5, 3.5, 30), z=np.array([0.25, 0.75]))
    assert epanechnikov(np.array([(0.75 - 0.25) / 0.5]))[0] == 0.0
    _check(sample, grid, h=0.5, draws=10)
    mixed = EvaluationGrid(y=np.linspace(0.5, 3.5, 30), z=np.array([0.2, 0.5, 0.8]))
    _check(sample, mixed, h=0.3, draws=10)


def test_tied_z_on_a_coarse_grid():
    # z rounded to tenths: z0 = 0.5 sits on a tie, and at h = 0.2 the z = 0.3
    # cluster lies exactly at |u| = 1 (weight 0) while z = 0.7 lies just inside
    base = generate_sample(quasi_dgp_spec(), 2000, seed=9)
    sample = ObservationSample(y=base.y, d=base.d, z=np.round(base.z, 1),
                               lower_support_bound=base.lower_support_bound)
    z0, h = 0.5, 0.2
    assert np.unique(sample.z).size <= 11 and np.any(sample.z == z0)
    assert np.any(sample.z == 0.3) and np.any(sample.z == 0.7)
    u = (np.array([0.3, 0.7]) - z0) / h
    assert epanechnikov(u)[0] == 0.0 and epanechnikov(u)[1] > 0.0
    grid = EvaluationGrid(y=np.quantile(sample.y, np.linspace(0.05, 0.95, 30)),
                          z=np.array([0.25, z0, 0.8]))
    _check(sample, grid, h, draws=6, seed=9)


def test_kernel_after_an_empty_window_draw():
    # a draw with only z = 0.25 records empties the window at z0 = 0.75 after
    # the first column has used the kernel's moment buffer; the next call on
    # the same kernel must still give the reference's bytes
    sample = _two_cluster_sample(seed=7)
    grid = EvaluationGrid(y=np.linspace(0.5, 3.5, 20), z=np.array([0.25, 0.75]))
    h = 0.3
    kernel = TableKernel(sample, grid, h)
    rng = np.random.default_rng(3)
    low = rng.choice(np.flatnonzero(sample.z == 0.25), size=sample.n)
    with pytest.raises(NoSupportError):
        _reference_tables(sample, grid, h, low)
    with pytest.raises(NoSupportError):
        kernel.tables([low])
    idx = [None, rng.integers(0, sample.n, size=sample.n)]
    stack = kernel.tables(idx)
    for b, i in enumerate(idx):
        _assert_bitwise([a[b] for a in stack], _reference_tables(sample, grid, h, i))


def test_grid_at_and_above_max_y():
    sample = generate_sample(quasi_dgp_spec(), 1500, seed=8)
    top = float(np.max(sample.y))
    y = np.concatenate((np.quantile(sample.y, np.linspace(0.0, 0.9, 20)),
                        [top, top + 0.5, top + 3.0]))
    grid = EvaluationGrid(y=np.unique(y), z=np.linspace(0.1, 0.9, 4))
    _check(sample, grid, h=0.25, draws=8)


def test_one_sided_outcomes():
    rng = np.random.default_rng(12)
    n = 600
    for d_value in (0, 1):
        sample = ObservationSample(y=rng.uniform(1.0, 3.0, n),
                                   d=np.full(n, d_value, dtype=np.int8),
                                   z=rng.uniform(0.0, 1.0, n))
        _check(sample, EvaluationGrid.from_sample(sample, 20, 4), h=0.3, draws=4)


def test_empty_window_raises_like_the_reference():
    sample = _two_cluster_sample()
    grid = EvaluationGrid(y=np.linspace(0.5, 3.5, 5), z=np.array([0.5]))
    with pytest.raises(NoSupportError):
        _reference_tables(sample, grid, 0.25)
    with pytest.raises(NoSupportError):
        TableKernel(sample, grid, 0.25).tables([None])


def test_bootstrap_draws_equal_the_resampling_path():
    sample = generate_sample(quasi_dgp_spec(), 1500, seed=21)
    grid = EvaluationGrid.from_sample(sample, 40, 5)
    h, seed, B = 0.2, 17, 120
    lsb = sample.lower_support_bound

    def reference_stack(idx=None):
        return tuple(a[None] for a in _reference_tables(sample, grid, h, idx))

    replications = [reference_stack(_philox(child).integers(0, sample.n, size=sample.n))
                    for child in np.random.SeedSequence(seed).spawn(B)]
    table = estimate_tables(sample, grid, h)
    for side in ("lower", "upper"):
        # the replications span several chunks, the last of them ragged
        chunk = _CHUNK_ENTRIES // (grid.y.size * len(_pairs(grid.z.size, side)))
        assert chunk < B and B % chunk
        _, draws = bootstrap_errors(sample, grid, h, B=B, seed=seed, side=side)
        for b, (F, F0, F1, p) in enumerate(replications):
            G = _fiber_matrix(grid, F, F0, p, side, lsb)
            theta, _ = _theta(grid.y, F1, np.maximum.accumulate(G, axis=-2), side)
            assert np.array_equal(draws[b], theta[0]), (side, b)


# -- conditional means against the reference weights over all n records --------

def _check_means(sample, z_grid, h):
    d = sample.d.astype(float)
    b_low = sample.lower_support_bound
    # the three imperfect-foresight responses, one at a time and as one stack
    stack = np.array([sample.y, sample.y * (1.0 - d) + b_low * d, d])
    want = np.array([[float(_reference_weights(sample.z, float(z0), h) @ r)
                      for z0 in z_grid] for r in stack])
    assert conditional_mean(sample, stack, z_grid, h).tobytes() == want.tobytes()
    for r, row in zip(stack, want):
        assert conditional_mean(sample, r, z_grid, h).tobytes() == row.tobytes()


@pytest.mark.parametrize("n,seed,h", [(2000, 2, 0.2), (500, 3, 0.1),
                                      (100_000, 1, None)])
def test_conditional_means_random_samples(n, seed, h):
    sample = generate_sample(quasi_dgp_spec(), n, seed=seed)
    z_grid = EvaluationGrid.from_sample(sample, 2, 8).z
    # n = 100 000 takes the default (Silverman) bandwidth
    _check_means(sample, z_grid, resolve_bandwidth(sample.z, h))


def test_conditional_means_singular_and_empty_windows():
    sample = _two_cluster_sample()
    # z0 = 0.25, 0.75: every in-window z equals z0 (Nadaraya-Watson);
    # z0 = 0.5 with h = 0.3 sees both clusters
    _check_means(sample, np.array([0.25, 0.5, 0.75]), 0.3)
    # z0 = 0.5 with h = 0.25: both clusters sit at |u| = 1, weight 0
    with pytest.raises(NoSupportError):
        _reference_weights(sample.z, 0.5, 0.25)
    with pytest.raises(NoSupportError):
        conditional_mean(sample, sample.y, np.array([0.5]), 0.25)


# -- the stacked repair against the row-by-row np.clip ---------------------------

_cells = st.floats(min_value=-0.5, max_value=1.5, allow_subnormal=False) | st.sampled_from(
    [0.0, -0.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(*(arrays(np.float64, shape, elements=_cells)
                              for _ in range(3)))))
def test_repair_matches_row_by_row_clip(stack):
    # random, non-monotone and out-of-range raw tables, signed zeros included:
    # the stack repaired at once, each of its tables as the reference does
    repaired = _repair_columns(*stack)
    for b in range(stack[0].shape[0]):
        want = _reference_repair(*(a[b] for a in stack))
        for got, ref in zip(repaired, want):
            assert got[b].tobytes() == ref.tobytes()
