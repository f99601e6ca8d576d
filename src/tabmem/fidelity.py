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
from .table import FeatureKind, Table, concat

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


def _frequencies(values: Sequence[str]) -> dict[str, float]:
    counts: dict[str, float] = {}
    for v in values:
        counts[v] = counts.get(v, 0.0) + 1.0
    total = len(values)
    return {k: c / total for k, c in counts.items()}


def tv_complement(real: Sequence[str], syn: Sequence[str]) -> float:
    """1 minus the total variation distance over the union of categories."""
    if len(real) == 0 or len(syn) == 0:
        raise EmptyColumnError("TVD needs non-empty columns")
    r = _frequencies(real)
    s = _frequencies(syn)
    categories = set(r) | set(s)
    tvd = 0.5 * sum(abs(r.get(c, 0.0) - s.get(c, 0.0)) for c in categories)
    return 1.0 - tvd


def _check_same_schema(real: Table, syn: Table) -> None:
    if real.schema != syn.schema:
        raise SchemaMismatchError("real and synthetic tables must share a schema")


def _scored_columns(table: Table) -> list[tuple[FeatureKind, list]]:
    """Feature columns plus the label column (as categorical) when present."""
    columns = [
        (kind, table.feature_column(i))
        for i, (_, kind) in enumerate(table.schema.features)
    ]
    if table.schema.target is not None:
        columns.append((FeatureKind.CATEGORICAL, table.target_values()))
    return columns


def shape_score(real: Table, syn: Table) -> float:
    """Mean per-column distributional fidelity."""
    _check_same_schema(real, syn)
    scores = []
    for (kind, r_col), (_, s_col) in zip(_scored_columns(real), _scored_columns(syn)):
        if kind is FeatureKind.NUMERICAL:
            scores.append(ks_complement(r_col, s_col))
        else:
            scores.append(tv_complement(r_col, s_col))
    return float(np.mean(scores))


def _bin_labels(values: Sequence[float], edges: np.ndarray) -> list[str]:
    # Right-open bins; values outside the fitted range clamp into the end bins.
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2)
    return [f"bin{i}" for i in idx]


def _joint_tv_complement(a_real, b_real, a_syn, b_syn) -> float:
    pairs_real = [f"{x}\x1f{y}" for x, y in zip(a_real, b_real)]
    pairs_syn = [f"{x}\x1f{y}" for x, y in zip(a_syn, b_syn)]
    return tv_complement(pairs_real, pairs_syn)


def trend_score(real: Table, syn: Table, bins: int = DEFAULT_TREND_BINS) -> float:
    """Mean pairwise relational fidelity over all unordered column pairs.

    Numerical pairs compare Pearson correlations; pairs involving a
    categorical column compare joint contingency tables, discretizing the
    numerical side into equal-width bins fitted on the real column.
    """
    _check_same_schema(real, syn)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    real_cols = _scored_columns(real)
    syn_cols = _scored_columns(syn)
    if len(real_cols) < 2:
        raise SchemaMismatchError("trend score needs at least 2 columns")

    def binned(col_real: list, col_syn: list) -> tuple[list[str], list[str]]:
        lo = float(np.min(col_real))
        hi = float(np.max(col_real))
        edges = np.linspace(lo, hi, bins + 1) if hi > lo else np.array([lo, lo])
        return _bin_labels(col_real, edges), _bin_labels(col_syn, edges)

    scores = []
    for i in range(len(real_cols)):
        for j in range(i + 1, len(real_cols)):
            kind_i, r_i = real_cols[i]
            kind_j, r_j = real_cols[j]
            s_i = syn_cols[i][1]
            s_j = syn_cols[j][1]
            if kind_i is FeatureKind.NUMERICAL and kind_j is FeatureKind.NUMERICAL:
                scores.append(1.0 - abs(pearson(r_i, r_j) - pearson(s_i, s_j)) / 2.0)
                continue
            if kind_i is FeatureKind.NUMERICAL:
                r_i, s_i = binned(r_i, s_i)
            if kind_j is FeatureKind.NUMERICAL:
                r_j, s_j = binned(r_j, s_j)
            scores.append(_joint_tv_complement(r_i, r_j, s_i, s_j))
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


def _encode_features(tables: list[Table]) -> list[np.ndarray]:
    """One-hot categoricals (categories fitted on the union) + raw numericals."""
    schema = tables[0].schema
    categories: list[list[str]] = []
    cat_idx = schema.categorical_indices
    for pos, _ in enumerate(cat_idx):
        seen: dict[str, None] = {}
        for t in tables:
            for v in t.categorical_values()[:, pos]:
                seen.setdefault(v, None)
        categories.append(list(seen))
    label_values: list[str] = []
    if schema.target is not None:
        seen = {}
        for t in tables:
            for v in t.target_values():
                seen.setdefault(v, None)
        label_values = list(seen)

    encoded = []
    for t in tables:
        blocks = [t.numeric_values()]
        cats = t.categorical_values()
        for pos, values in enumerate(categories):
            col = cats[:, pos]
            blocks.append(np.asarray([[1.0 if v == c else 0.0 for c in values] for v in col]))
        if schema.target is not None:
            col = t.target_values()
            blocks.append(np.asarray([[1.0 if v == c else 0.0 for c in label_values] for v in col]))
        encoded.append(np.hstack([b.reshape(t.n_rows, -1) for b in blocks]))
    return encoded


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
    real_x, syn_x = _encode_features([real, syn])
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
    medoid = Table(ref.schema, [ref.row(int(np.argmin(np.concatenate(sums))))])
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
        sorted(set(train.feature_column(i))) if kind is FeatureKind.CATEGORICAL else None
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
