"""Pairwise feature association strengths and correlation-based feature groups.

Numerical pairs use |Pearson|, categorical pairs Cramér's V, and mixed pairs
the square root of the correlation ratio (eta squared), so every matrix entry
lives on a comparable [0, 1] scale. Groups come from average-linkage
agglomerative clustering on dissimilarity 1 - association.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyTableError, LengthMismatchError
from .table import FeatureKind, Table, encode

DEFAULT_CLUSTER_THRESHOLD = 0.7


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample Pearson correlation; 0 when either column is constant."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.size != y.size:
        raise LengthMismatchError(f"column lengths differ: {x.size} vs {y.size}")
    if x.size < 2:
        raise LengthMismatchError("need at least 2 paired values")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.sum(xc * xc) * np.sum(yc * yc))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc * yc) / denom)


def cramers_v(a: Sequence[str], b: Sequence[str]) -> float:
    """Classical (uncorrected) Cramér's V from the r x c contingency table."""
    if len(a) != len(b):
        raise LengthMismatchError(f"column lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise LengthMismatchError("need at least 2 paired values")
    return _cramers_v(encode(a)[0], encode(b)[0])


def _cramers_v(a: np.ndarray, b: np.ndarray) -> float:
    """Cramér's V of two columns of first-appearance codes (see ``table.encode``)."""
    r, c = int(a.max()) + 1, int(b.max()) + 1
    if min(r - 1, c - 1) == 0:
        return 0.0
    cells = np.bincount(a.astype(np.int64) * c + b, minlength=r * c)
    counts = cells.reshape(r, c).astype(np.float64)
    n = counts.sum()
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return float(np.sqrt(chi2 / (n * min(r - 1, c - 1))))


def eta_squared(num: Sequence[float], cat: Sequence[str]) -> float:
    """Between-group variance fraction of a numerical column grouped by category."""
    x = np.asarray(num, dtype=np.float64)
    if x.size != len(cat):
        raise LengthMismatchError(f"column lengths differ: {x.size} vs {len(cat)}")
    if x.size < 2:
        raise LengthMismatchError("need at least 2 paired values")
    return _eta_squared(x, encode(cat)[0])


def _eta_squared(x: np.ndarray, codes: np.ndarray) -> float:
    """Eta squared of ``x`` grouped by first-appearance codes, summed in code order."""
    grand = x.mean()
    ss_total = float(np.sum((x - grand) ** 2))
    if ss_total == 0.0:
        return 0.0
    ss_between = 0.0
    for code in range(int(codes.max()) + 1):
        group = x[codes == code]
        ss_between += group.size * (group.mean() - grand) ** 2
    return float(ss_between / ss_total)


@dataclass(frozen=True)
class AssociationMatrix:
    """Symmetric [0, 1] association strengths with a unit diagonal."""

    values: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FeatureClusters:
    """Partition of feature indices into swap-atomic groups."""

    clusters: tuple[tuple[int, ...], ...]
    linkage_threshold: float

    def member_names(self, names: Sequence[str]) -> list[list[str]]:
        return [[names[i] for i in group] for group in self.clusters]


def association_matrix(table: Table, eta_mapping: str = "sqrt") -> AssociationMatrix:
    """Pairwise association over the schema's features (target excluded).

    ``eta_mapping`` selects how mixed pairs enter the common scale: "sqrt"
    uses the correlation ratio sqrt(eta^2), "squared" uses eta^2 itself.
    """
    if table.n_rows < 2:
        raise EmptyTableError("association needs at least 2 rows")
    if eta_mapping not in ("sqrt", "squared"):
        raise ValueError(f"eta_mapping must be 'sqrt' or 'squared', got {eta_mapping!r}")
    kinds = [kind for _, kind in table.schema.features]
    columns = [table.column(i) for i in range(table.schema.n_features)]
    m = len(columns)
    values = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            if kinds[i] is FeatureKind.NUMERICAL and kinds[j] is FeatureKind.NUMERICAL:
                strength = abs(pearson(columns[i], columns[j]))
            elif kinds[i] is FeatureKind.CATEGORICAL and kinds[j] is FeatureKind.CATEGORICAL:
                strength = _cramers_v(columns[i], columns[j])
            else:
                num, cat = (i, j) if kinds[i] is FeatureKind.NUMERICAL else (j, i)
                e2 = _eta_squared(columns[num], columns[cat])
                strength = float(np.sqrt(e2)) if eta_mapping == "sqrt" else e2
            values[i, j] = values[j, i] = min(max(strength, 0.0), 1.0)
    return AssociationMatrix(values, tuple(table.schema.feature_names))


def cluster_features(assoc: AssociationMatrix, threshold: float = DEFAULT_CLUSTER_THRESHOLD) -> FeatureClusters:
    """Average-linkage agglomeration on 1 - association, cut at ``threshold``.

    Merging continues while the smallest average dissimilarity is <= the
    threshold. Ties pick the candidate pair whose clusters contain the lowest
    feature indices, so the result is deterministic.
    """
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    dmat = 1.0 - assoc.values.astype(np.float64)
    # The cluster list stays ordered by lowest member index, so positional
    # order equals representative order and tie keys are well defined.
    clusters: list[list[int]] = [[i] for i in range(assoc.size)]

    while len(clusters) > 1:
        best = None
        best_key = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                key = (dmat[i, j], clusters[i][0], clusters[j][0])
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
        assert best is not None and best_key is not None
        if best_key[0] > threshold:
            break
        i, j = best
        ni, nj = len(clusters[i]), len(clusters[j])
        # Lance-Williams update for average linkage.
        merged_row = (ni * dmat[i, :] + nj * dmat[j, :]) / (ni + nj)
        dmat[i, :] = merged_row
        dmat[:, i] = merged_row
        dmat = np.delete(np.delete(dmat, j, axis=0), j, axis=1)
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]

    return FeatureClusters(
        clusters=tuple(tuple(c) for c in clusters),
        linkage_threshold=threshold,
    )
