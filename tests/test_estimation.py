"""Kernel cdf estimation against a plain weighted-least-squares oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds import (
    EvaluationGrid,
    NoSupportError,
    conditional_mean,
    estimate_tables,
    silverman_bandwidth,
)
from roybounds.errors import DomainError
from roybounds.estimation import _repair_columns, epanechnikov


def oracle_local_linear(x, resp, x0, h):
    """Textbook local-linear estimate at x0 via explicit WLS on (1, x - x0)."""
    u = (x - x0) / h
    w = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u**2), 0.0)
    keep = w > 0
    if keep.sum() == 0:
        return None
    X = np.column_stack([np.ones(keep.sum()), (x[keep] - x0)])
    sw = np.sqrt(w[keep])
    beta, *_ = np.linalg.lstsq(X * sw[:, None], resp[keep] * sw, rcond=None)
    return beta[0]


def test_epanechnikov_shape():
    u = np.array([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
    k = epanechnikov(u)
    assert k[0] == 0.0 and k[-1] == 0.0
    assert k[2] == pytest.approx(0.75)
    assert np.all(k >= 0)


def test_silverman_positive(quasi_sample):
    h = silverman_bandwidth(quasi_sample.z)
    assert 0.0 < h < np.ptp(quasi_sample.z)


def test_local_linear_matches_wls_oracle(quasi_sample):
    resp = (quasi_sample.y <= 1.2).astype(float)
    h = 0.15
    for z0 in (0.2, 0.5, 0.8):
        ours = conditional_mean(quasi_sample, resp, [z0], h)[0]
        ref = oracle_local_linear(quasi_sample.z, resp, z0, h)
        assert ours == pytest.approx(ref, abs=1e-10)


def test_no_support_raises():
    from roybounds import ObservationSample
    s = ObservationSample(y=np.ones(50), d=np.zeros(50, dtype=int),
                          z=np.full(50, 0.5))
    with pytest.raises(NoSupportError):
        conditional_mean(s, np.ones(50), [0.99], 0.01)


def test_conditional_mean_rejects_misaligned_responses(quasi_sample):
    n = quasi_sample.n
    # one vector or a (k, n) stack of them; anything else is misaligned
    for shape in [(n - 1,), (3, n - 1), (2, 2, n), ()]:
        with pytest.raises(DomainError, match="align"):
            conditional_mean(quasi_sample, np.ones(shape), [0.5], 0.2)


def test_tables_additivity(quasi_sample, small_grid):
    t = estimate_tables(quasi_sample, small_grid)
    assert np.allclose(t.F, t.F0 + t.F1, atol=1e-9)


def test_tables_monotone_and_bounded(quasi_sample, small_grid):
    t = estimate_tables(quasi_sample, small_grid)
    for m in (t.F, t.F0, t.F1):
        assert np.all(np.diff(m, axis=0) >= -1e-12)
        assert np.all((m >= -1e-12) & (m <= 1 + 1e-12))
    assert np.all(t.F0 <= t.F + 1e-12) and np.all(t.F1 <= t.F + 1e-12)
    assert np.all((t.p >= 0) & (t.p <= 1))


def test_tables_top_pinned(quasi_sample):
    # at a grid reaching max(y), F should reach 1 within kernel tolerance
    grid = EvaluationGrid.from_sample(quasi_sample, n_y=30, n_z=4)
    t = estimate_tables(quasi_sample, grid)
    assert np.all(t.F[-1, :] >= 0.995)


def test_identification_tol_scales():
    from roybounds.estimation import identification_tol
    assert identification_tol(None) == pytest.approx(1e-6)  # a population table
    assert identification_tol(2000) == pytest.approx(max(5 / 2000, 1e-3))


def test_raw_estimates_can_be_nonmonotone_then_repaired():
    # hand-built raw local linear columns: the first wiggles and overshoots
    # [0, 1] as small-sample output near a boundary does; the second is
    # already a monotone decomposition and must come through unchanged
    F0 = np.array([[-0.02, 0.05], [0.10, 0.10], [0.08, 0.20],
                   [0.35, 0.20], [0.30, 0.35], [0.52, 0.40]])
    F1 = np.array([[0.03, 0.00], [0.10, 0.15], [0.05, 0.15],
                   [0.15, 0.30], [0.45, 0.45], [0.50, 0.60]])
    F = F0 + F1
    assert np.any(np.diff(F[:, 0]) < 0) and F[-1, 0] > 1.0
    Fm, F0m, F1m = _repair_columns(F, F0, F1)
    for arr in (Fm, F0m, F1m):
        assert np.all(np.diff(arr, axis=0) >= 0)
        assert np.all((arr >= 0) & (arr <= 1))
    assert np.allclose(Fm, F0m + F1m, rtol=0.0, atol=1e-12)
    for got, raw in zip((Fm, F0m, F1m), (F, F0, F1)):
        assert np.allclose(got[:, 1], raw[:, 1], rtol=0.0, atol=1e-12)


def test_conditional_mean_matches_oracle(quasi_sample):
    zg = np.array([0.3, 0.7])
    h = 0.18
    got = conditional_mean(quasi_sample, quasi_sample.y, zg, h)
    for i, z0 in enumerate(zg):
        ref = oracle_local_linear(quasi_sample.z, quasi_sample.y, z0, h)
        assert got[i] == pytest.approx(ref, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_local_linear_reproduces_affine_exactly(seed):
    # a local-linear smoother fits affine functions with zero bias
    from roybounds import ObservationSample
    rng = np.random.default_rng(seed)
    z = rng.uniform(0, 1, 300)
    a, b = rng.normal(size=2)
    resp = a + b * z
    s = ObservationSample(y=np.abs(resp) + 1.0, d=np.zeros(300, dtype=int), z=z)
    z0 = float(rng.uniform(0.2, 0.8))
    got = conditional_mean(s, resp, [z0], 0.25)[0]
    assert got == pytest.approx(a + b * z0, abs=1e-8)
