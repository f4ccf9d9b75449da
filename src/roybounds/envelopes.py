"""Envelope operators, sandwich functions, and the crossing test.

Matrices are indexed [y, z] with both grids ascending.  On a finite grid the
right-continuous regularization of a tabulated function is the identity, so
the envelopes reduce to running extrema:

    Flow(y | z)  = max over ztilde >= z of F(y | ztilde)          (suffix max)
    Fhigh(y | z) = min over ztilde <= z of F0(y | ztilde)
                   + p(ztilde) * 1{y >= b_lower}                  (prefix min)

    L(y | z) = max over ytilde <= y of (Flow - F0)(ytilde | z)
    U(y | z) = min over ytilde >= y of (Fhigh - F0)(ytilde | z)

Then L <= P(Y - C(Y, Z) <= y, D = 1 | z) <= U cell by cell, and a crossing
Flow > Fhigh anywhere refutes the model restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .estimation import ConditionalCdfTable


def lower_envelope(table: ConditionalCdfTable) -> np.ndarray:
    """Suffix maximum of F over z: the stochastically smallest compatible cdf."""
    return np.flip(np.maximum.accumulate(np.flip(table.F, axis=1), axis=1), axis=1)


def _worst_case_cdf(y: np.ndarray, F0: np.ndarray, p: np.ndarray,
                    lower_support_bound: float) -> np.ndarray:
    """F0 + p 1{y >= b_lower}, for F0 (..., n_y, n_z) and p (..., n_z): the cdf
    when every sector-1 chooser sits at the lower support bound."""
    indicator = (y >= lower_support_bound).astype(float)[:, None]
    return F0 + p[..., None, :] * indicator


def upper_envelope(table: ConditionalCdfTable, lower_support_bound: float = 0.0) -> np.ndarray:
    """Prefix minimum over z of the worst-case cdf F0 + p 1{y >= b_lower}."""
    worst = _worst_case_cdf(table.grid.y, table.F0, table.p, lower_support_bound)
    return np.minimum.accumulate(worst, axis=1)


def envelope_table(table: ConditionalCdfTable, lower_support_bound: float = 0.0) -> tuple:
    """The pointwise envelopes (Flow, Fhigh) on the table's grid."""
    return lower_envelope(table), upper_envelope(table, lower_support_bound)


@dataclass(frozen=True)
class CrossingReport:
    """Result of the envelope crossing test (the model's testable implication)."""

    rejected: bool
    worst_gap: float
    locations: tuple
    tol: float


def crossing_test(Flow: np.ndarray, Fhigh: np.ndarray, tol: float = 1e-9) -> CrossingReport:
    """Reject when Flow exceeds Fhigh anywhere by more than tol."""
    Flow = np.asarray(Flow, dtype=float)
    Fhigh = np.asarray(Fhigh, dtype=float)
    if Flow.shape != Fhigh.shape:
        raise DomainError("envelope matrices must share a shape")
    gap = Flow - Fhigh
    worst = float(max(np.max(gap), 0.0))
    if worst <= tol:
        return CrossingReport(rejected=False, worst_gap=worst, locations=(), tol=tol)
    bad = np.argwhere(gap > tol)
    order = np.argsort(-gap[tuple(bad.T)])
    locations = tuple((int(i), int(j)) for i, j in bad[order][:25])
    return CrossingReport(rejected=True, worst_gap=worst, locations=locations, tol=tol)


def sandwich(table: ConditionalCdfTable, Flow: np.ndarray, Fhigh: np.ndarray) -> tuple:
    """The running-extremum bounds (L, U): L <= P(Y - C(Y,Z) <= y, D=1 | z) <= U."""
    L = np.maximum.accumulate(Flow - table.F0, axis=0)
    U = np.flip(np.minimum.accumulate(np.flip(Fhigh - table.F0, axis=0), axis=0), axis=0)
    return L, U


def _inverse_count(values: np.ndarray, targets: np.ndarray, side: str) -> np.ndarray:
    """Per column of stacks (..., n_y, m), the count of ``values`` <= (side
    "lower") or < (side "upper") each of ``targets``: on non-decreasing
    values, ``np.searchsorted`` with side "right" or "left", the grid
    position of the generalized inverse.

    A stable argsort of each column joined to its targets (timsort merges
    the two sorted runs in linear time) counts the values ahead of each
    target: values first for the lower side, targets first for the upper.
    """
    n = values.shape[-2]
    lower = side == "lower"
    runs = (np.swapaxes(values, -1, -2), np.swapaxes(targets, -1, -2))
    merged = np.concatenate(runs if lower else runs[::-1], axis=-1)
    order = np.argsort(merged.reshape(-1, 2 * n), axis=1, kind="stable")
    # each row's targets in merged order: the k-th has k targets ahead of it
    pos = (np.flatnonzero(order >= n if lower else order < n).reshape(-1, n)
           - 2 * n * np.arange(len(order))[:, None])
    found = np.empty_like(pos)
    which = np.take_along_axis(order, pos, axis=1) - (n if lower else 0)
    np.put_along_axis(found, which, pos - np.arange(n), axis=1)
    return np.swapaxes(found.reshape(runs[0].shape), -1, -2)
