"""The eleven experimental input-state pairs, as a built-in fixture.

``reported_fidelity`` is the published experimental value and is carried
as reference metadata only; the simulator reproduces the ideal limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .direct import SuperpositionSpec
from .errors import ArgumentError
from .linalg import QubitParams


@dataclass(frozen=True)
class Dataset:
    """One input-state pair, psi2 with its declared phase, and their weight ratio."""

    dataset_id: int
    psi1: QubitParams
    psi2: QubitParams
    weight_ratio: float
    reported_fidelity: float

    def weights(self) -> tuple[float, float]:
        """Normalized positive weights (a, b) with a/b = weight_ratio."""
        norm = math.hypot(self.weight_ratio, 1.0)
        return self.weight_ratio / norm, 1.0 / norm

    def angles(self) -> tuple[tuple[float, float, float], ...]:
        """Bloch angles (theta, phi, gamma) of psi1 and psi2."""
        return tuple((q.theta, q.phi, q.gamma) for q in (self.psi1, self.psi2))

    def spec(self) -> SuperpositionSpec:
        return SuperpositionSpec(*self.weights(), self.psi1, self.psi2)


_PI = math.pi

TABLE1: tuple[Dataset, ...] = (
    Dataset(1, QubitParams(0.0, 0.0), QubitParams(_PI / 2, 0.0), 1.0, 0.996),
    Dataset(2, QubitParams(0.0, 0.0), QubitParams(_PI / 2, _PI / 4), 1.0, 0.995),
    Dataset(3, QubitParams(0.0, 0.0), QubitParams(_PI / 2, _PI / 2), 1.0, 0.997),
    Dataset(4, QubitParams(0.0, 0.0), QubitParams(_PI / 2, _PI), 1.0, 0.997),
    Dataset(5, QubitParams(2 * _PI / 3, 0.0), QubitParams(_PI / 3, 0.0), 1.0, 0.998),
    Dataset(
        6,
        QubitParams(2 * _PI / 3, _PI / 4),
        QubitParams(_PI / 3, 2 * _PI / 3),
        1.0,
        0.974,
    ),
    Dataset(7, QubitParams(2 * _PI / 3, 0.0), QubitParams(_PI / 3, 0.0), 2.0, 0.999),
    Dataset(8, QubitParams(2 * _PI / 3, 0.0), QubitParams(_PI / 3, 0.0), 3.0, 0.999),
    Dataset(
        9,
        QubitParams(2 * _PI / 3, 0.0),
        QubitParams(_PI / 3, 0.0, 2 * _PI / 3),
        1.0,
        0.999,
    ),
    Dataset(
        10,
        QubitParams(2 * _PI / 3, _PI / 4),
        QubitParams(_PI / 3, 2 * _PI / 3, 2 * _PI / 3),
        1.0,
        0.981,
    ),
    Dataset(
        11,
        QubitParams(0.0, 0.0),
        QubitParams(_PI - _PI / 18, 0.0),
        1.0,
        0.988,
    ),
)


def dataset(dataset_id: int) -> Dataset:
    if not 1 <= dataset_id <= len(TABLE1):
        raise ArgumentError(f"dataset id must be 1..{len(TABLE1)}, got {dataset_id}")
    return TABLE1[dataset_id - 1]
