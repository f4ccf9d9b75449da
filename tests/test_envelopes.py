"""Envelope operators, sandwich functions, crossing test, generalized inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds import (
    DomainError,
    EvaluationGrid,
    crossing_test,
    envelope_table,
    lower_envelope,
    population_tables,
    sandwich,
    upper_envelope,
)
from roybounds.envelopes import _inverse_count
from roybounds.estimation import ConditionalCdfTable

from conftest import interior_grid
from reference import generalized_inverse


def table_from(F, F0, p, y=None, z=None):
    F = np.asarray(F, dtype=float)
    F0 = np.asarray(F0, dtype=float)
    ny, nz = F.shape
    grid = EvaluationGrid(y=np.arange(1, ny + 1, dtype=float) if y is None else np.asarray(y, float),
                          z=np.linspace(0.1, 0.1 * nz, nz) if z is None else np.asarray(z, float))
    return ConditionalCdfTable(grid=grid, F=F, F0=F0, F1=F - F0,
                               p=np.asarray(p, dtype=float))


def random_valid_table(rng, ny=6, nz=4):
    """Arbitrary monotone cdf decomposition, no model restrictions."""
    F1_top = rng.uniform(0.2, 0.8, nz)
    F = np.sort(rng.uniform(0, 1, (ny, nz)), axis=0)
    F[-1, :] = 1.0
    share = rng.uniform(0.2, 0.8, (ny, nz))
    F1 = np.minimum.accumulate((F * share)[::-1], axis=0)[::-1]
    F1 = np.maximum.accumulate(F1, axis=0)
    F1 = np.minimum(F1, F * F1_top[None, :] / np.maximum(F[-1], 1e-12))
    F0 = F - F1
    return table_from(F, F0, p=1 - F0[-1, :])


# -- lower envelope -----------------------------------------------------------

def test_lower_envelope_two_column_example():
    # two z columns: pointwise max over {z' >= z}
    t = table_from(F=[[0.2, 0.3], [0.5, 0.4], [1.0, 1.0]],
                   F0=[[0.1, 0.1], [0.2, 0.2], [0.5, 0.5]],
                   p=[0.5, 0.5])
    Flow = lower_envelope(t)
    assert np.allclose(Flow[:, 0], [0.3, 0.5, 1.0])
    assert np.allclose(Flow[:, 1], [0.3, 0.4, 1.0])


def test_lower_envelope_identity_when_monotone():
    t = table_from(F=[[0.3, 0.2], [0.6, 0.5], [1.0, 1.0]],
                   F0=[[0.1, 0.1], [0.2, 0.2], [0.4, 0.4]],
                   p=[0.6, 0.6])
    assert np.array_equal(lower_envelope(t), t.F)


def test_lower_envelope_single_column():
    t = table_from(F=[[0.4], [1.0]], F0=[[0.2], [0.6]], p=[0.4])
    assert np.array_equal(lower_envelope(t), t.F)


def test_lower_envelope_idempotent_on_fuzz():
    rng = np.random.default_rng(5150)
    for _ in range(100):
        t = random_valid_table(rng)
        low = lower_envelope(t)
        t2 = table_from(low, np.zeros_like(low), p=np.ones(low.shape[1]),
                        y=t.grid.y, z=t.grid.z)
        assert np.array_equal(lower_envelope(t2), low)


def test_lower_envelope_minimality_on_fuzz():
    # smallest dominating matrix that is non increasing in z
    rng = np.random.default_rng(31)
    for _ in range(100):
        t = random_valid_table(rng)
        low = lower_envelope(t)
        assert np.all(low >= t.F - 1e-15)
        assert np.all(np.diff(low, axis=1) <= 1e-15)
        # any other dominating non-increasing-in-z G sits above the envelope
        bump = rng.uniform(0, 0.3, t.F.shape)
        G = np.flip(np.maximum.accumulate(np.flip(t.F + bump, axis=1), axis=1), axis=1)
        assert np.all(G >= low - 1e-12)


# -- upper envelope -----------------------------------------------------------

def test_upper_envelope_worked_example():
    # min over z' <= z of F0 + p at a single y row
    t = table_from(F=[[0.6, 0.7]], F0=[[0.3, 0.45]], p=[0.5, 0.4],
                   y=[2.0], z=[0.1, 0.2])
    Fhigh = upper_envelope(t, lower_support_bound=0.0)
    assert Fhigh[0, 1] == pytest.approx(0.8)
    assert Fhigh[0, 0] == pytest.approx(0.8)


def test_upper_envelope_support_indicator():
    # below the support bound the selected mass cannot hide, so no +p term
    t = table_from(F=[[0.1, 0.1], [0.6, 0.6]], F0=[[0.05, 0.05], [0.3, 0.3]],
                   p=[0.5, 0.5], y=[-1.0, 2.0], z=[0.1, 0.2])
    Fhigh = upper_envelope(t, lower_support_bound=0.0)
    assert Fhigh[0, 0] == pytest.approx(0.05)
    assert Fhigh[1, 0] == pytest.approx(0.8)


def test_upper_envelope_zero_p():
    t = table_from(F=[[0.3, 0.2], [1.0, 1.0]], F0=[[0.3, 0.2], [1.0, 1.0]],
                   p=[0.0, 0.0])
    Fhigh = upper_envelope(t, lower_support_bound=-10.0)
    assert np.allclose(Fhigh[:, 0], [0.3, 1.0])
    assert np.allclose(Fhigh[:, 1], [0.2, 1.0])


def test_envelope_table_invariants(quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=25, n_z=5)
    t = population_tables(quasi_dgp, grid)
    Flow, Fhigh = envelope_table(t, 0.0)
    assert np.all(np.diff(Flow, axis=0) >= -1e-12)
    assert np.all(np.diff(Fhigh, axis=0) >= -1e-12)
    assert np.all(np.diff(Flow, axis=1) <= 1e-12)
    assert np.all(np.diff(Fhigh, axis=1) <= 1e-12)
    assert np.all(Flow >= t.F - 1e-12)
    assert np.all((Flow >= -1e-12) & (Flow <= 1 + 1e-12))


# -- crossing test ------------------------------------------------------------

def test_crossing_not_rejected_on_population(quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=25, n_z=5)
    t = population_tables(quasi_dgp, grid)
    rep = crossing_test(*envelope_table(t, 0.0))
    assert not rep.rejected and rep.worst_gap <= 0.0


def test_crossing_rejects_constructed_gap():
    Flow = np.array([[0.2, 0.6], [0.7, 0.9]])
    Fhigh = np.array([[0.3, 0.5], [0.8, 1.0]])
    rep = crossing_test(Flow, Fhigh)
    assert rep.rejected
    assert rep.worst_gap == pytest.approx(0.1)
    assert rep.locations[0] == (0, 1)


def test_crossing_equal_matrices():
    M = np.array([[0.1, 0.5], [0.6, 1.0]])
    rep = crossing_test(M, M)
    assert not rep.rejected and rep.worst_gap == 0.0


def test_crossing_shape_mismatch():
    with pytest.raises(DomainError):
        crossing_test(np.zeros((2, 2)), np.zeros((3, 2)))


# -- sandwich -----------------------------------------------------------------

def test_sandwich_running_extrema_examples():
    t = table_from(F=[[0.4, 0.4], [0.5, 0.5], [0.9, 0.9]],
                   F0=[[0.2, 0.2], [0.4, 0.4], [0.6, 0.6]],
                   p=[0.4, 0.4])
    Flow = np.array([[0.4, 0.4], [0.5, 0.5], [0.9, 0.9]])
    Fhigh = np.array([[0.7, 0.7], [0.8, 0.8], [1.5, 1.5]])
    L, U = sandwich(t, Flow, Fhigh)
    # Flow - F0 = [0.2, 0.1, 0.3] -> running max [0.2, 0.2, 0.3]
    assert np.allclose(L[:, 0], [0.2, 0.2, 0.3])
    # Fhigh - F0 = [0.5, 0.4, 0.9] -> running min from above [0.4, 0.4, 0.9]
    assert np.allclose(U[:, 0], [0.4, 0.4, 0.9])


def test_sandwich_monotone_data_gives_F1():
    t = table_from(F=[[0.3, 0.2], [0.6, 0.5], [1.0, 1.0]],
                   F0=[[0.1, 0.1], [0.2, 0.2], [0.4, 0.45]],
                   p=[0.6, 0.55])
    L, _ = sandwich(t, lower_envelope(t), upper_envelope(t, -10.0))
    assert np.allclose(L, t.F1)


def test_sandwich_columns_monotone(quasi_dgp):
    grid = interior_grid(quasi_dgp, n_y=25, n_z=5)
    t = population_tables(quasi_dgp, grid)
    L, U = sandwich(t, *envelope_table(t, 0.0))
    assert np.all(np.diff(L, axis=0) >= -1e-12)
    assert np.all(np.diff(U, axis=0) >= -1e-12)


# -- generalized inverse ------------------------------------------------------

STEP_Y = np.array([0.0, 0.5, 1.0])
STEP_V = np.array([0.0, 0.6, 0.6])


def test_lower_inverse_step_example():
    # sup{y: v(y) <= 0.3} = sup [0, 0.5) = 0.5
    assert generalized_inverse(STEP_Y, STEP_V, 0.3, kind="lower") == 0.5


def test_lower_inverse_whole_domain():
    assert generalized_inverse(STEP_Y, STEP_V, 0.7, kind="lower") == 1.0


def test_upper_inverse_conservative_bracket():
    # inf{y: v(y) >= x} lies in (0, 0.5]; grid answer takes the known side
    assert generalized_inverse(STEP_Y, STEP_V, 0.3, kind="upper") == 0.0


def test_inverse_clamps():
    y = np.array([1.0, 2.0, 3.0])
    v = np.array([0.2, 0.5, 0.8])
    assert generalized_inverse(y, v, 0.9, kind="lower") == 3.0
    assert generalized_inverse(y, v, 0.1, kind="lower") == 1.0
    assert generalized_inverse(y, v, 0.9, kind="upper") == 3.0
    assert generalized_inverse(y, v, 0.1, kind="upper") == 1.0


def test_inverse_empty_column():
    with pytest.raises(DomainError):
        generalized_inverse(np.array([]), np.array([]), 0.5)


def test_inverse_bad_kind():
    with pytest.raises(DomainError):
        generalized_inverse(STEP_Y, STEP_V, 0.5, kind="middle")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.0, max_value=1.0))
def test_lower_inverse_matches_direct_set_computation(seed, x):
    rng = np.random.default_rng(seed)
    y = np.sort(rng.uniform(0, 10, 8))
    y += np.arange(8) * 1e-6
    v = np.sort(rng.uniform(0, 1, 8))
    got = generalized_inverse(y, v, x, kind="lower")
    above = np.nonzero(v > x)[0]
    if above.size == 0:
        expect = y[-1]
    elif above[0] == 0:
        expect = y[0]
    else:
        expect = y[above[0]]
    assert got == expect


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.0, max_value=1.0))
def test_upper_inverse_matches_direct_set_computation(seed, x):
    rng = np.random.default_rng(seed)
    y = np.sort(rng.uniform(0, 10, 8))
    y += np.arange(8) * 1e-6
    v = np.sort(rng.uniform(0, 1, 8))
    got = generalized_inverse(y, v, x, kind="upper")
    at_or_above = np.nonzero(v >= x)[0]
    if at_or_above.size == 0:
        expect = y[-1]
    elif at_or_above[0] == 0:
        expect = y[0]
    else:
        expect = y[at_or_above[0] - 1]
    assert got == expect


def test_inverse_near_inverts_strictly_increasing_columns():
    y = np.linspace(0.0, 2.0, 21)
    v = np.linspace(0.0, 1.0, 21) ** 1.3
    spacing = y[1] - y[0]
    for k in (1, 7, 15, 19):
        got = generalized_inverse(y, v, float(v[k]), kind="lower")
        assert abs(got - y[k]) <= spacing + 1e-12
        got_u = generalized_inverse(y, v, float(v[k]), kind="upper")
        assert abs(got_u - y[k]) <= spacing + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_inverse_count_is_searchsorted_per_column(seed, n, m, c):
    rng = np.random.default_rng(seed)
    # few levels: ties among the values and between values and targets
    values = np.sort(rng.integers(0, 5, (c, n, m)) / 4.0, axis=-2)
    targets = rng.integers(-1, 6, (c, n, m)) / 4.0
    y = np.arange(n, dtype=float)
    for side, searchsorted_side in (("lower", "right"), ("upper", "left")):
        got = _inverse_count(values, targets, side)
        assert got.shape == values.shape
        # the grid point each side reads off, clamped as the band clamps it
        at = (np.minimum(got, n - 1) if side == "lower"
              else np.where(got >= n, n - 1, np.maximum(got - 1, 0)))
        for b in range(c):
            for k in range(m):
                want = np.searchsorted(values[b, :, k], targets[b, :, k],
                                       side=searchsorted_side)
                assert np.array_equal(got[b, :, k], want)
                for t in range(n):
                    assert y[at[b, t, k]] == generalized_inverse(
                        y, values[b, :, k], targets[b, t, k], kind=side)
        # a single table counts as its stack of one
        assert np.array_equal(_inverse_count(values[0], targets[0], side), got[0])
