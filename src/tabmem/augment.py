"""Same-class feature-swap augmentation and an independent-marginals baseline.

CutMix swaps individual features between two rows of one class under a
Bernoulli(lambda) mask with lambda ~ Uniform(0, 1). The Plus variant first
groups correlated features and swaps each group as an atomic unit, one
lambda and one coin per group. The IJF baseline draws every feature
independently from a per-feature marginal fitted on the training table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .association import (
    DEFAULT_CLUSTER_THRESHOLD,
    FeatureClusters,
    association_matrix,
    cluster_features,
)
from .errors import ClassTooSmallError, EmptyTableError, NoTargetError
from .table import Cell, Row, Table, concat

DEFAULT_RATIO = 0.3


class AugmentMode(Enum):
    CUTMIX = "cutmix"
    CUTMIXPLUS = "cutmixplus"
    IJF = "ijf"


@dataclass(frozen=True)
class AugmentConfig:
    mode: AugmentMode
    ratio: float = DEFAULT_RATIO
    seed: int = 0
    cluster_threshold: float = DEFAULT_CLUSTER_THRESHOLD

    def __post_init__(self):
        if self.ratio < 0:
            raise ValueError(f"ratio must be >= 0, got {self.ratio}")


@dataclass(frozen=True)
class MixMask:
    """Per-swap-unit donor indicators drawn Bernoulli(lambda)."""

    lam: float
    bits: tuple[int, ...]

    @classmethod
    def draw(cls, rng: np.random.Generator, n_units: int) -> "MixMask":
        lam = float(rng.random())
        bits = tuple(int(b) for b in rng.random(n_units) < lam)
        return cls(lam, bits)


def class_prior(train: Table) -> dict[str, float]:
    """Empirical class frequencies, keyed in order of first appearance."""
    if train.schema.target is None:
        raise NoTargetError("augmentation needs a class-label column")
    if train.n_rows == 0:
        raise EmptyTableError("cannot compute a prior on an empty table")
    counts = np.bincount(train.column(train.schema.n_features)).tolist()
    return {label: count / train.n_rows for label, count in zip(train.vocabularies[-1], counts)}


class _ClassIndex:
    """Row indices per class label, in table order."""

    def __init__(self, train: Table):
        if train.schema.target is None:
            raise NoTargetError("augmentation needs a class-label column")
        codes = train.column(train.schema.n_features)
        self.rows = {label: np.flatnonzero(codes == k) for k, label in enumerate(train.vocabularies[-1])}

    def sample_pair(self, label: str, rng: np.random.Generator) -> tuple[int, int]:
        members = self.rows[label]
        if len(members) < 2:
            raise ClassTooSmallError(label, len(members))
        a, b = rng.choice(len(members), size=2, replace=False)
        return int(members[int(a)]), int(members[int(b)])


def _sample_class(prior: dict[str, float], rng: np.random.Generator) -> int:
    """Position in ``prior`` of a class drawn from it."""
    probs = np.asarray(list(prior.values()))
    return int(rng.choice(len(probs), p=probs / probs.sum()))


def _draw_mix(
    prior: dict[str, float],
    index: _ClassIndex,
    rng: np.random.Generator,
    n_features: int,
    clusters: FeatureClusters | None = None,
) -> tuple[int, int, int, tuple[int, ...]]:
    """Class position in ``prior``, donors A and B, and per-feature bits (1 takes A)."""
    k = _sample_class(prior, rng)
    ia, ib = index.sample_pair(list(prior)[k], rng)
    if clusters is None:
        return k, ia, ib, MixMask.draw(rng, n_features).bits
    bits = [0] * n_features
    for group in clusters.clusters:
        lam = float(rng.random())
        take_a = int(rng.random() < lam)
        for j in group:
            bits[j] = take_a
    return k, ia, ib, tuple(bits)


def mix_rows(x_a: Row, x_b: Row, bits: tuple[int, ...], label: str, n_features: int) -> Row:
    """Take feature j from donor A where bits[j] is 1, else from donor B."""
    cells: list[Cell] = [
        x_a[j] if bits[j] else x_b[j] for j in range(n_features)
    ]
    cells.append(label)
    return tuple(cells)


def cutmix_once(
    train: Table,
    prior: dict[str, float],
    rng: np.random.Generator,
    index: _ClassIndex | None = None,
) -> Row:
    """One CutMix row: same-class donor pair mixed under a per-feature mask."""
    index = index or _ClassIndex(train)
    k, ia, ib, bits = _draw_mix(prior, index, rng, train.schema.n_features)
    return mix_rows(train.row(ia), train.row(ib), bits, list(prior)[k], train.schema.n_features)


def cutmixplus_once(
    train: Table,
    prior: dict[str, float],
    clusters: FeatureClusters,
    rng: np.random.Generator,
    index: _ClassIndex | None = None,
) -> Row:
    """One CutMixPlus row: every feature group comes whole from one donor."""
    index = index or _ClassIndex(train)
    k, ia, ib, bits = _draw_mix(prior, index, rng, train.schema.n_features, clusters)
    return mix_rows(train.row(ia), train.row(ib), bits, list(prior)[k], train.schema.n_features)


class _IjfModel:
    """Per-feature marginals: Gaussian MLE for numbers, frequencies for categories."""

    def __init__(self, train: Table):
        if train.n_rows < 2:
            raise EmptyTableError("IJF needs at least 2 rows to fit marginals")
        self.schema = train.schema
        numeric = train.numeric_values()
        self.means = numeric.mean(axis=0) if numeric.shape[1] else np.empty(0)
        self.stds = numeric.std(axis=0) if numeric.shape[1] else np.empty(0)
        # Categorical features, then the label; categories in first-appearance order.
        self.vocabularies = train.vocabularies
        self.probs = [np.bincount(train.column(i)) / train.n_rows for i in train.schema.coded_indices]

    def draw(self, rng: np.random.Generator) -> list[float | int]:
        """One value per schema column: numbers, or category codes."""
        cells: list[float | int] = [0] * self.schema.row_width()
        for j, mean, std in zip(self.schema.numerical_indices, self.means, self.stds):
            cells[j] = float(mean + std * rng.standard_normal())
        for j, probs in zip(self.schema.coded_indices, self.probs):
            cells[j] = int(rng.choice(len(probs), p=probs))
        return cells

    def sample(self, rng: np.random.Generator) -> Row:
        return tuple(
            cell if vocabulary is None else vocabulary[cell]  # type: ignore[index]
            for cell, vocabulary in zip(self.draw(rng), self.vocabularies)
        )


def ijf_sample(train: Table, rng: np.random.Generator) -> Row:
    """One row with every feature drawn independently from its fitted marginal."""
    return _IjfModel(train).sample(rng)


def augment(train: Table, config: AugmentConfig) -> Table:
    """Original rows followed by round(ratio * n) augmented rows.

    Every augmented row draws from its own RNG stream derived from the seed
    and the row's index, so output is identical however samples are scheduled.
    """
    n_new = int(round(config.ratio * train.n_rows))
    if n_new == 0:
        return train

    schema = train.schema
    streams = np.random.SeedSequence(config.seed).spawn(n_new)

    if config.mode is AugmentMode.IJF:
        model = _IjfModel(train)
        new = zip(*(model.draw(np.random.default_rng(s)) for s in streams))
        return concat(train, Table.from_columns(schema, list(new), train.vocabularies))

    prior = class_prior(train)
    index = _ClassIndex(train)
    for label, members in index.rows.items():
        if len(members) < 2:
            raise ClassTooSmallError(label, len(members))

    clusters = None
    if config.mode is AugmentMode.CUTMIXPLUS:
        clusters = cluster_features(association_matrix(train), config.cluster_threshold)
    draws = [
        _draw_mix(prior, index, np.random.default_rng(s), schema.n_features, clusters)
        for s in streams
    ]
    # The prior lists classes in label-code order, so a class position is its code.
    labels, donor_a, donor_b, bits = (np.asarray(column) for column in zip(*draws))
    columns = [
        np.where(bits[:, j] == 1, train.column(j)[donor_a], train.column(j)[donor_b])
        for j in range(schema.n_features)
    ]
    return concat(train, Table.from_columns(schema, columns + [labels], train.vocabularies))
