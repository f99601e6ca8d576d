"""Seeded input generator for the benchmark workloads.

Inputs are drawn with numpy and written with the stdlib ``csv`` module, never
through tabmem, so the same seed gives byte-identical files on every commit
of the program under test.

Recipe: 6 correlated numerical features with scales from 0.1 to 1000,
4 categorical features with 3/5/8/12 levels and skewed frequencies (each tied
to a latent, so features form correlation clusters), and a binary label.
A synthetic table is 20% exact copies of reference rows, 30% near-copies
(1% noise on numerical features) and 50% fresh draws.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUM_SCALES = (0.1, 1.0, 10.0, 50.0, 200.0, 1000.0)
CAT_LEVELS = (3, 5, 8, 12)
NUM_NAMES = tuple(f"n{i}" for i in range(len(NUM_SCALES)))
CAT_NAMES = tuple(f"c{i}" for i in range(len(CAT_LEVELS)))
TARGET = "label"
LABELS = ("no", "yes")

# Latent correlations. The average-linkage dissimilarities that cutmixplus
# cuts at its default threshold (0.7) all sit well away from it, so every seed
# yields the same clusters: {n0, n1, c0, c1}, {n2, c2}, {n3, c3}, {n4}, {n5}.
LATENT_CORR = {(0, 1): 0.9, (2, 3): 0.15, (4, 5): 0.1}
OFFSETS = (0.5, -1.0, 2.0, 0.0, -0.5, 1.5)  # in units of each feature's scale

EXACT_SHARE = 0.2
NEAR_SHARE = 0.3
NEAR_NOISE = 0.01


@dataclass
class Rows:
    """Generated rows: a float block, a string block and labels."""

    num: np.ndarray  # (n, 6) float64
    cat: np.ndarray  # (n, 4) str
    label: np.ndarray  # (n,) str

    def __len__(self) -> int:
        return self.num.shape[0]

    def take(self, idx: np.ndarray) -> "Rows":
        return Rows(self.num[idx].copy(), self.cat[idx].copy(), self.label[idx].copy())

    @staticmethod
    def stack(parts: list["Rows"]) -> "Rows":
        return Rows(
            np.concatenate([p.num for p in parts]),
            np.concatenate([p.cat for p in parts]),
            np.concatenate([p.label for p in parts]),
        )


class Population:
    """The data-generating distribution; fixed, so the seed picks only rows."""

    def __init__(self):
        corr = np.eye(len(NUM_SCALES))
        for (i, j), r in LATENT_CORR.items():
            corr[i, j] = corr[j, i] = r
        self.mix = np.linalg.cholesky(corr)
        self.scales = np.asarray(NUM_SCALES)
        self.offsets = np.asarray(OFFSETS) * self.scales
        self.cat_probs = []
        for k in CAT_LEVELS:
            p = 1.0 / np.arange(1, k + 1) ** 1.3
            self.cat_probs.append(np.cumsum(p / p.sum()))

    def draw(self, rng: np.random.Generator, n: int) -> Rows:
        z = rng.standard_normal((n, len(NUM_SCALES))) @ self.mix.T
        num = z * self.scales + self.offsets
        cat = np.empty((n, len(CAT_LEVELS)), dtype=object)
        for j, cdf in enumerate(self.cat_probs):
            # A logistic of a latent plus noise picks the level, so each
            # categorical feature is associated with one numerical feature.
            u = 1.0 / (1.0 + np.exp(-1.7 * (0.95 * z[:, j] + 0.3 * rng.standard_normal(n))))
            level = np.minimum(np.searchsorted(cdf, u), len(cdf) - 1)
            cat[:, j] = [f"{CAT_NAMES[j]}_{v}" for v in level]
        score = z[:, 0] - 0.5 * z[:, 3] + 0.5 * rng.standard_normal(n)
        label = np.where(score > 0.3, LABELS[1], LABELS[0]).astype(object)
        return Rows(num, cat.astype(str), label.astype(str))


@dataclass
class Synthetic:
    rows: Rows
    exact: np.ndarray  # positions in rows that are exact copies of reference rows


def synthesize(pop: Population, ref: Rows, n: int, rng: np.random.Generator) -> Synthetic:
    """20% exact copies of ``ref`` rows, 30% near-copies, 50% fresh, shuffled."""
    n_exact = int(round(EXACT_SHARE * n))
    n_near = int(round(NEAR_SHARE * n))
    exact = ref.take(rng.choice(len(ref), n_exact, replace=False))
    near = ref.take(rng.choice(len(ref), n_near, replace=False))
    near.num = near.num + NEAR_NOISE * pop.scales * rng.standard_normal(near.num.shape)
    fresh = pop.draw(rng, n - n_exact - n_near)
    order = rng.permutation(n)
    rows = Rows.stack([exact, near, fresh]).take(order)
    exact_pos = np.sort(np.flatnonzero(order < n_exact))
    return Synthetic(rows, exact_pos)


def schema_dict() -> dict:
    features = [{"name": c, "kind": "numerical"} for c in NUM_NAMES]
    features += [{"name": c, "kind": "categorical"} for c in CAT_NAMES]
    return {"features": features, "target": TARGET}


def write_rows(rows: Rows, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(NUM_NAMES) + list(CAT_NAMES) + [TARGET])
        for num, cat, label in zip(rows.num.tolist(), rows.cat.tolist(), rows.label.tolist()):
            writer.writerow([repr(v) for v in num] + cat + [label])


def write_schema(path: Path) -> None:
    path.write_text(json.dumps(schema_dict(), indent=2) + "\n", encoding="utf-8")


def audit_inputs(seed: int, n_syn: int = 5000, n_train: int = 10_000, n_dup: int = 50):
    """Train table with ``n_dup`` duplicated rows, and a synthetic table over it."""
    rng = np.random.default_rng([seed, 1])
    pop = Population()
    base = pop.draw(rng, n_train - n_dup)
    dup = base.take(rng.choice(len(base), n_dup, replace=False))
    train = Rows.stack([base, dup]).take(rng.permutation(n_train))
    return train, synthesize(pop, train, n_syn, rng)


def fidelity_inputs(seed: int, n: int = 2000):
    """Real, synthetic (over real) and holdout tables of ``n`` rows each."""
    rng = np.random.default_rng([seed, 2])
    pop = Population()
    real = pop.draw(rng, n)
    holdout = pop.draw(rng, n)
    return real, synthesize(pop, real, n, rng), holdout


def augment_inputs(seed: int, n: int = 20_000) -> Rows:
    rng = np.random.default_rng([seed, 3])
    return Population().draw(rng, n)
