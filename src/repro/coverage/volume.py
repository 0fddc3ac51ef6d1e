"""Coverage of a benchmark suite as a volume in feature space (Table I).

Each circuit of a suite maps to a six-dimensional feature vector; the suite's
coverage is the volume of the convex hull of those vectors.  A suite whose
circuits exercise very different resource mixes spans a large hull, while a
suite of structurally similar circuits collapses onto a tiny region no matter
how many circuits it contains.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from ..circuits import Circuit
from ..exceptions import AnalysisError
from ..features import compute_features_many

__all__ = ["coverage_volume", "coverage_volume_of_circuits", "feature_matrix"]


def feature_matrix(circuits: Iterable[Circuit]) -> np.ndarray:
    """Stack the feature vectors of many circuits into an ``(n, 6)`` matrix.

    Uses the batched single-pass extractor
    (:func:`repro.features.compute_features_many`) — the hot path of the
    Table I coverage sweeps.
    """
    matrix = compute_features_many(circuits)
    if matrix.shape[0] == 0:
        raise AnalysisError("no circuits supplied")
    return matrix


def coverage_volume(vectors: Sequence[Sequence[float]] | np.ndarray) -> float:
    """Convex-hull volume of a set of feature vectors.

    Degenerate point sets (fewer than ``dim + 1`` points, or points lying on
    a lower-dimensional affine subspace) are handled by joggling the input;
    sets that are still too small to span any volume return 0.0.
    """
    # Imported here so that ``import repro`` does not load scipy.
    from scipy.spatial import ConvexHull, QhullError

    points = np.asarray(vectors, dtype=float)
    if points.ndim != 2:
        raise AnalysisError("expected a 2D array of feature vectors")
    num_points, dimension = points.shape
    if num_points <= dimension:
        return 0.0
    try:
        hull = ConvexHull(points)
        return float(hull.volume)
    except QhullError:
        # Degenerate (flat) input: joggle to obtain a well-defined tiny volume,
        # mirroring how near-identical suites collapse to ~0 coverage.
        try:
            hull = ConvexHull(points, qhull_options="QJ")
            return float(hull.volume)
        except QhullError:
            return 0.0


def coverage_volume_of_circuits(circuits: Iterable[Circuit]) -> float:
    """Convenience wrapper: circuits -> feature vectors -> hull volume."""
    return coverage_volume(feature_matrix(circuits))
