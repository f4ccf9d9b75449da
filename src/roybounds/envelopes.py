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
from .model import EvaluationGrid


def lower_envelope(table: ConditionalCdfTable) -> np.ndarray:
    """Suffix maximum of F over z: the stochastically smallest compatible cdf."""
    return np.flip(np.maximum.accumulate(np.flip(table.F, axis=1), axis=1), axis=1)


def upper_envelope(table: ConditionalCdfTable, lower_support_bound: float = 0.0) -> np.ndarray:
    """Prefix minimum over z of the worst-case cdf F0 + p 1{y >= b_lower}."""
    indicator = (table.grid.y >= lower_support_bound).astype(float)[:, None]
    worst = table.F0 + table.p[None, :] * indicator
    return np.minimum.accumulate(worst, axis=1)


@dataclass(frozen=True)
class EnvelopeTable:
    """Pointwise envelopes (Flow, Fhigh) on a shared grid."""

    grid: EvaluationGrid
    Flow: np.ndarray
    Fhigh: np.ndarray


def envelope_table(table: ConditionalCdfTable, lower_support_bound: float = 0.0) -> EnvelopeTable:
    return EnvelopeTable(
        grid=table.grid,
        Flow=lower_envelope(table),
        Fhigh=upper_envelope(table, lower_support_bound),
    )


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


@dataclass(frozen=True)
class SandwichTable:
    """Running-extremum bounds L <= P(Y - C(Y,Z) <= y, D=1 | z) <= U."""

    grid: EvaluationGrid
    L: np.ndarray
    U: np.ndarray


def sandwich(table: ConditionalCdfTable, Flow: np.ndarray, Fhigh: np.ndarray) -> SandwichTable:
    L = np.maximum.accumulate(Flow - table.F0, axis=0)
    U = np.flip(np.minimum.accumulate(np.flip(Fhigh - table.F0, axis=0), axis=0), axis=0)
    return SandwichTable(grid=table.grid, L=L, U=U)
