"""Same-class feature-swap augmentation and an independent-marginals baseline.

CutMix (TabCutMix) builds each new row from two distinct rows of one class:
with lambda ~ Uniform(0, 1), every feature comes from donor A with
probability lambda, independently, and from donor B otherwise. CutMixPlus
applies the same mask at the level of correlated-feature clusters: one
lambda per row and one Bernoulli(lambda) bit per cluster, so a cluster is
always swapped whole. With singleton clusters it draws exactly what CutMix
draws. (A lambda drawn afresh per cluster would make every cluster bit a fair
coin, independent of the others, and lambda itself would have no effect.)
The IJF baseline draws every feature independently from a per-feature
marginal fitted on the training table.

Random streams: augmented rows are made in blocks of ``_BLOCK`` = 4096 output
rows (the last block may be shorter). Block ``b`` draws from
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))`` and
makes each draw as one array over its m rows, in this order:

- cutmix and cutmixplus: the classes, from the class prior; donor A, uniform
  over its class's n_c rows; donor B, uniform over the other n_c - 1 rows
  (drawn from n_c - 1 values and shifted past A); lambda per row; then an
  (m, units) array of uniforms, a unit taking donor A where its uniform is
  below lambda. The units are the features, or the clusters in order.
- ijf: the numerical features as mean + std * standard_normal((m, n_num)),
  then each coded column (categorical features, then the label) in schema
  order, from its empirical frequencies.

A category with count c out of n rows is drawn as a uniform integer below n
falling in that category's run of the cumulative counts, so its probability
is exactly c / n. A block's rows depend only on the seed, the block index and
the training table, never on the thread count or on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .association import (
    DEFAULT_CLUSTER_THRESHOLD,
    association_matrix,
    cluster_features,
)
from .errors import ClassTooSmallError, EmptyTableError, NoTargetError
from .parallel import map_blocks
from .table import Table, concat

DEFAULT_RATIO = 0.3
# Cap on new rows per input row; without one, a mistyped ratio allocates until memory runs out.
MAX_RATIO = 1000.0

_BLOCK = 4096


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
        if not 0 <= self.ratio <= MAX_RATIO:
            raise ValueError(f"ratio must be in [0, {MAX_RATIO:g}], got {self.ratio}")


def class_prior(train: Table) -> dict[str, float]:
    """Empirical class frequencies, keyed in order of first appearance."""
    if train.schema.target is None:
        raise NoTargetError("augmentation needs a class-label column")
    if train.n_rows == 0:
        raise EmptyTableError("cannot compute a prior on an empty table")
    counts = np.bincount(train.column(train.schema.n_features)).tolist()
    return {label: count / train.n_rows for label, count in zip(train.vocabularies[-1], counts)}


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))


def _draw_codes(rng: np.random.Generator, cumulative: np.ndarray, m: int) -> np.ndarray:
    """m codes drawn with probability count / total from running count totals."""
    return np.searchsorted(cumulative, rng.integers(cumulative[-1], size=m), side="right")


class _CutMix:
    """Same-class donor pairs of one table, mixed over swap units (features or clusters)."""

    def __init__(self, train: Table):
        schema = train.schema
        if schema.target is None:
            raise NoTargetError("augmentation needs a class-label column")
        labels = train.column(schema.n_features)
        self.sizes = np.bincount(labels)
        for label, size in zip(train.vocabularies[-1], self.sizes.tolist()):
            if size < 2:
                raise ClassTooSmallError(label, size)
        self.cumulative = np.cumsum(self.sizes)
        # Row indices grouped by class code, each class in table order.
        self.members = np.argsort(labels, kind="stable")
        self.columns = [train.column(j) for j in range(schema.n_features)]
        # Swap units: groups of feature indices; one per feature is CutMix.
        self.units: Sequence[Sequence[int]] = [(j,) for j in range(schema.n_features)]

    def draw(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, ...]:
        """Class codes, donors A and B, lambda, and the (m, units) take-A mask."""
        classes = _draw_codes(rng, self.cumulative, m)
        sizes = self.sizes[classes]
        a = rng.integers(sizes)
        b = rng.integers(sizes - 1)
        b += b >= a
        start = self.cumulative[classes] - sizes
        lam = rng.random(m)
        take_a = rng.random((m, len(self.units))) < lam[:, None]
        return classes, self.members[start + a], self.members[start + b], lam, take_a

    def mix(self, classes, donor_a, donor_b, take_a) -> list[np.ndarray]:
        """Schema columns of the mixed rows: each unit from A where ``take_a``, else from B."""
        features: list = [None] * len(self.columns)
        for u, group in enumerate(self.units):
            for j in group:
                features[j] = np.where(take_a[:, u], self.columns[j][donor_a], self.columns[j][donor_b])
        return features + [classes]

    def block(self, rng: np.random.Generator, m: int) -> list[np.ndarray]:
        classes, donor_a, donor_b, _, take_a = self.draw(rng, m)
        return self.mix(classes, donor_a, donor_b, take_a)


class _IjfModel:
    """Per-feature marginals: Gaussian MLE for numbers, frequencies for categories."""

    def __init__(self, train: Table):
        if train.n_rows < 2:
            raise EmptyTableError("IJF needs at least 2 rows to fit marginals")
        self.schema = train.schema
        numeric = train.numeric_values()
        self.means = numeric.mean(axis=0)
        self.stds = numeric.std(axis=0)
        self.cumulative = [np.cumsum(np.bincount(train.column(i))) for i in train.schema.coded_indices]

    def block(self, rng: np.random.Generator, m: int) -> list[np.ndarray]:
        columns: list = [None] * self.schema.row_width()
        values = self.means + self.stds * rng.standard_normal((m, self.means.size))
        for j, column in zip(self.schema.numerical_indices, values.T):
            columns[j] = column
        for j, cumulative in zip(self.schema.coded_indices, self.cumulative):
            columns[j] = _draw_codes(rng, cumulative, m)
        return columns


def augment(train: Table, config: AugmentConfig, threads: int = 1) -> Table:
    """Original rows followed by round(ratio * n) augmented rows.

    New rows come in blocks of ``_BLOCK`` = 4096; block ``b`` draws from
    ``default_rng(SeedSequence(config.seed, spawn_key=(b,)))``, each quantity
    as one array over the block's rows in the order the module docstring
    lists (cutmix and cutmixplus: classes, donor A, donor B, lambda, unit
    mask; ijf: numerical features, then each coded column). CutMixPlus uses
    one lambda per row at cluster level. Up to ``threads`` blocks run at
    once; the output depends on neither the thread count nor scheduling.
    """
    n_new = int(round(config.ratio * train.n_rows))
    if n_new == 0:
        return train

    if config.mode is AugmentMode.IJF:
        draw = _IjfModel(train).block
    else:
        mixer = _CutMix(train)
        if config.mode is AugmentMode.CUTMIXPLUS:
            mixer.units = cluster_features(association_matrix(train), config.cluster_threshold).clusters
        draw = mixer.block

    blocks = map_blocks(
        lambda lo, hi: draw(_block_rng(config.seed, lo // _BLOCK), hi - lo), n_new, _BLOCK, threads
    )
    columns = [np.concatenate(parts) for parts in zip(*blocks)]
    return concat(train, Table.from_columns(train.schema, columns, train.vocabularies))
