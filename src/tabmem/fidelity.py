"""Synthetic-data quality metrics.

Column shapes are scored by Kolmogorov-Smirnov (numerical) or total
variation (categorical) complements; column-pair trends by Pearson
differences and contingency tables; privacy by the train-vs-holdout
closest-record protocol; distributional alignment by a classifier two-sample
test; and fidelity/diversity by ball-support precision and recall under the
mixed distance. The label column, when present, participates as an ordinary
categorical column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .association import pearson
from .distance import DistanceNormalizer, fit_normalizer, pairwise_mixed, reduce_mixed
from .errors import (
    EmptyColumnError,
    EmptyTableError,
    SchemaMismatchError,
    TooFewRowsError,
)
from .table import FeatureKind, Table, concat, encode, recode

DEFAULT_TREND_BINS = 10
SUPPORT_LEVELS = 20


def ks_complement(real: Sequence[float], syn: Sequence[float]) -> float:
    """1 minus the exact two-sample Kolmogorov-Smirnov statistic."""
    r = np.sort(np.asarray(real, dtype=np.float64))
    s = np.sort(np.asarray(syn, dtype=np.float64))
    if r.size == 0 or s.size == 0:
        raise EmptyColumnError("KS needs non-empty columns")
    grid = np.concatenate([r, s])
    f_r = np.searchsorted(r, grid, side="right") / r.size
    f_s = np.searchsorted(s, grid, side="right") / s.size
    return 1.0 - float(np.max(np.abs(f_r - f_s)))


def _tv_complement(real: np.ndarray, syn: np.ndarray) -> float:
    """1 minus the TVD of two integer-keyed samples, summed exactly so no
    ordering of the keys matters."""
    if real.size == 0 or syn.size == 0:
        raise EmptyColumnError("TVD needs non-empty columns")
    keys, inverse = np.unique(np.concatenate([real, syn]), return_inverse=True)
    r = np.bincount(inverse[: real.size], minlength=keys.size) / real.size
    s = np.bincount(inverse[real.size:], minlength=keys.size) / syn.size
    return 1.0 - 0.5 * math.fsum(np.abs(r - s).tolist())


def tv_complement(real: Sequence[str], syn: Sequence[str]) -> float:
    """1 minus the total variation distance over the union of categories."""
    codes, _ = encode([*real, *syn])
    return _tv_complement(codes[: len(real)], codes[len(real):])


def _check_same_schema(real: Table, syn: Table) -> None:
    if real.schema != syn.schema:
        raise SchemaMismatchError("real and synthetic tables must share a schema")


def _scored_columns(real: Table, syn: Table) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Each column of both tables as (real, syn, k): values with k = 0, or
    codes over a vocabulary of k categories shared by both tables."""
    columns = []
    for i, vocabulary in enumerate(real.vocabularies):
        if vocabulary is None:
            columns.append((real.column(i), syn.column(i), 0))
        else:
            syn_codes, shared = recode(syn.column(i), syn.vocabularies[i], vocabulary)
            columns.append((real.column(i), syn_codes, len(shared)))
    return columns


def shape_score(real: Table, syn: Table) -> float:
    """Mean per-column distributional fidelity."""
    _check_same_schema(real, syn)
    scores = [
        _tv_complement(r_col, s_col) if k else ks_complement(r_col, s_col)
        for r_col, s_col, k in _scored_columns(real, syn)
    ]
    return float(np.mean(scores))


def _bin_codes(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # Right-open bins; values outside the fitted range clamp into the end bins.
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2)


def trend_score(real: Table, syn: Table, bins: int = DEFAULT_TREND_BINS) -> float:
    """Mean pairwise relational fidelity over all unordered column pairs.

    Numerical pairs compare Pearson correlations; pairs involving a
    categorical column compare joint contingency tables, discretizing the
    numerical side into equal-width bins fitted on the real column.
    """
    _check_same_schema(real, syn)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    columns = _scored_columns(real, syn)
    if len(columns) < 2:
        raise SchemaMismatchError("trend score needs at least 2 columns")

    def coded(col_real: np.ndarray, col_syn: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, int]:
        if k:
            return col_real.astype(np.int64), col_syn.astype(np.int64), k
        lo = float(np.min(col_real))
        hi = float(np.max(col_real))
        edges = np.linspace(lo, hi, bins + 1) if hi > lo else np.array([lo, lo])
        return _bin_codes(col_real, edges), _bin_codes(col_syn, edges), len(edges) - 1

    codes = [coded(*column) for column in columns]
    scores = []
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            r_i, s_i, k_i = columns[i]
            r_j, s_j, k_j = columns[j]
            if not k_i and not k_j:
                scores.append(1.0 - abs(pearson(r_i, r_j) - pearson(s_i, s_j)) / 2.0)
                continue
            (r_i, s_i, _), (r_j, s_j, k_j) = codes[i], codes[j]
            scores.append(_tv_complement(r_i * k_j + r_j, s_i * k_j + s_j))
    return float(np.mean(scores))


def dcr_probability(syn: Table, train: Table, holdout: Table, threads: int = 1) -> float:
    """Fraction of synthetic rows whose closest record is a train row.

    One normalizer is fitted over syn x (train + holdout); exact ties count
    half, which makes dcr(S, A, B) + dcr(S, B, A) = 1 identically.
    """
    _check_same_schema(syn, train)
    _check_same_schema(syn, holdout)
    if syn.n_rows == 0 or train.n_rows == 0 or holdout.n_rows == 0:
        raise EmptyTableError("DCR needs non-empty syn, train, and holdout tables")
    pool = concat(train, holdout)
    norm = fit_normalizer(syn, pool, threads)
    split = train.n_rows

    def closest(block: np.ndarray) -> np.ndarray:
        return np.column_stack([block[:, :split].min(axis=1), block[:, split:].min(axis=1)])

    to_train, to_holdout = np.vstack(reduce_mixed(syn, pool, norm, closest, threads)).T
    wins = np.count_nonzero(to_train < to_holdout)
    ties = np.count_nonzero(to_train == to_holdout)
    return float((wins + 0.5 * ties) / syn.n_rows)


# --- classifier two-sample test ---------------------------------------------

C2ST_EPOCHS = 500
C2ST_LEARNING_RATE = 0.1
C2ST_L2 = 1e-3


def _encode_features(real: Table, syn: Table) -> tuple[np.ndarray, np.ndarray]:
    """Raw numericals, then one-hot categoricals and label over both tables' categories."""
    blocks = [(real.numeric_values(), syn.numeric_values())]
    blocks += [(np.eye(k)[r], np.eye(k)[s]) for r, s, k in _scored_columns(real, syn) if k]
    return np.hstack([r for r, _ in blocks]), np.hstack([s for _, s in blocks])


@dataclass
class Discriminator:
    """L2-regularized logistic model trained by full-batch gradient descent."""

    weights: np.ndarray
    bias: float
    loss_curve: tuple[float, ...]

    @classmethod
    def fit(
        cls,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = C2ST_EPOCHS,
        learning_rate: float = C2ST_LEARNING_RATE,
        l2: float = C2ST_L2,
    ) -> "Discriminator":
        n, d = features.shape
        w = np.zeros(d)
        b = 0.0
        losses = []
        for _ in range(epochs):
            logits = features @ w + b
            # exp(-|z|) keeps the sigmoid and loss finite on separable data,
            # where logits grow without bound across epochs.
            prob = np.where(
                logits >= 0,
                1.0 / (1.0 + np.exp(-np.abs(logits))),
                np.exp(-np.abs(logits)) / (1.0 + np.exp(-np.abs(logits))),
            )
            loss = float(
                np.mean(np.logaddexp(0.0, logits) - labels * logits)
                + 0.5 * l2 * np.sum(w * w)
            )
            losses.append(loss)
            grad_w = features.T @ (prob - labels) / n + l2 * w
            grad_b = float(np.mean(prob - labels))
            w = w - learning_rate * grad_w
            b = b - learning_rate * grad_b
        return cls(weights=w, bias=b, loss_curve=tuple(losses))

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights + self.bias


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC with midranks for tied scores."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(np.sum(labels))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise TooFewRowsError("AUC needs both classes present")
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def c2st_score(real: Table, syn: Table, seed: int = 0) -> float:
    """Two-sample test score: 1 when a classifier cannot tell real from synthetic.

    Trains the discriminator on a stratified 80/20 split and maps held-out
    ROC-AUC A to clamp(1 - 2(A - 0.5), 0, 1).
    """
    _check_same_schema(real, syn)
    if real.n_rows < 20 or syn.n_rows < 20:
        raise TooFewRowsError("C2ST needs at least 20 rows on each side")
    real_x, syn_x = _encode_features(real, syn)
    rng = np.random.default_rng(seed)

    def split80(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        perm = rng.permutation(x.shape[0])
        cut = int(0.8 * x.shape[0])
        return x[perm[:cut]], x[perm[cut:]]

    real_train, real_test = split80(real_x)
    syn_train, syn_test = split80(syn_x)
    x_train = np.vstack([real_train, syn_train])
    y_train = np.concatenate([np.zeros(len(real_train)), np.ones(len(syn_train))])
    x_test = np.vstack([real_test, syn_test])
    y_test = np.concatenate([np.zeros(len(real_test)), np.ones(len(syn_test))])

    # Standardize numericals (and leave one-hot columns near [0, 1]) using
    # training-fold statistics only.
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    std[std == 0.0] = 1.0
    model = Discriminator.fit((x_train - mean) / std, y_train)
    auc = roc_auc(model.decision_scores((x_test - mean) / std), y_test)
    return float(np.clip(1.0 - 2.0 * (auc - 0.5), 0.0, 1.0))


# --- ball-support precision / recall -----------------------------------------


def _medoid_distances(
    ref: Table, other: Table, norm: DistanceNormalizer, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Distances of ref and other rows to the ref medoid (lowest-index tie)."""
    sums = reduce_mixed(ref, ref, norm, lambda block: block.sum(axis=1), threads)
    medoid = ref.take([int(np.argmin(np.concatenate(sums)))])
    d_ref = pairwise_mixed(ref, medoid, norm, threads)[:, 0]
    d_other = pairwise_mixed(other, medoid, norm, threads)[:, 0]
    return d_ref, d_other


def _support_curve(d_ref: np.ndarray, d_other: np.ndarray, levels: int) -> np.ndarray:
    grid = np.arange(1, levels + 1) / levels
    radii = np.quantile(d_ref, grid)
    return np.asarray([np.mean(d_other <= r) for r in radii])


def alpha_precision_beta_recall(
    real: Table, syn: Table, levels: int = SUPPORT_LEVELS, threads: int = 1
) -> tuple[float, float]:
    """Ball-support fidelity and coverage under the mixed distance.

    The level-a support of a table is the ball around its medoid whose radius
    is the a-quantile of member-to-medoid distances. Each side's curve of
    membership probabilities is compared to the ideal diagonal; the reported
    scalar is 1 - 2 * mean |P_a - a|, clamped to [0, 1], so a table scored
    against itself approaches 1.
    """
    _check_same_schema(real, syn)
    if real.n_rows < 10 or syn.n_rows < 10:
        raise TooFewRowsError("support metrics need at least 10 rows per table")
    pool = concat(real, syn)
    norm = fit_normalizer(pool, pool, threads)
    grid = np.arange(1, levels + 1) / levels

    d_real, d_syn_to_real = _medoid_distances(real, syn, norm, threads)
    precision_curve = _support_curve(d_real, d_syn_to_real, levels)
    d_syn, d_real_to_syn = _medoid_distances(syn, real, norm, threads)
    recall_curve = _support_curve(d_syn, d_real_to_syn, levels)

    precision = 1.0 - 2.0 * float(np.mean(np.abs(precision_curve - grid)))
    recall = 1.0 - 2.0 * float(np.mean(np.abs(recall_curve - grid)))
    return float(np.clip(precision, 0.0, 1.0)), float(np.clip(recall, 0.0, 1.0))


OOD_SCALE_FACTOR = 100.0


def synthesize_ood(train: Table, rng: np.random.Generator) -> Table:
    """Perturb exactly one uniformly chosen feature per row.

    Numerical features are scaled by 100; categorical features are resampled
    uniformly from the column's observed categories.
    """
    if train.n_rows == 0:
        raise EmptyTableError("cannot synthesize from an empty table")
    schema = train.schema
    observed = [
        sorted(train.vocabularies[i]) if kind is FeatureKind.CATEGORICAL else None
        for i, (_, kind) in enumerate(schema.features)
    ]
    rows = []
    for row in train.rows:
        j = int(rng.integers(schema.n_features))
        cells = list(row)
        if schema.features[j][1] is FeatureKind.NUMERICAL:
            cells[j] = float(cells[j]) * OOD_SCALE_FACTOR
        else:
            choices = observed[j]
            cells[j] = choices[int(rng.integers(len(choices)))]
        rows.append(tuple(cells))
    return Table(schema, rows)


@dataclass(frozen=True)
class FidelityReport:
    shape_score: float
    trend_score: float
    c2st_score: float
    alpha_precision: float
    beta_recall: float
    dcr_probability: float | None = None

    def to_dict(self) -> dict:
        out = {
            "shape_score": self.shape_score,
            "trend_score": self.trend_score,
            "c2st_score": self.c2st_score,
            "alpha_precision": self.alpha_precision,
            "beta_recall": self.beta_recall,
        }
        if self.dcr_probability is not None:
            out["dcr_probability"] = self.dcr_probability
        return out


def full_report(
    real: Table,
    syn: Table,
    holdout: Table | None = None,
    seed: int = 0,
    threads: int = 1,
) -> FidelityReport:
    """All fidelity metrics in one pass; DCR only when a holdout is supplied."""
    alpha, beta = alpha_precision_beta_recall(real, syn, threads=threads)
    return FidelityReport(
        shape_score=shape_score(real, syn),
        trend_score=trend_score(real, syn),
        c2st_score=c2st_score(real, syn, seed=seed),
        alpha_precision=alpha,
        beta_recall=beta,
        dcr_probability=(
            dcr_probability(syn, real, holdout, threads) if holdout is not None else None
        ),
    )
