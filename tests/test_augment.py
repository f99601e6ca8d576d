import itertools

import numpy as np
import pytest
import scipy.stats

from tabmem.augment import (
    _BLOCK,
    AugmentConfig,
    AugmentMode,
    _block_rng,
    _CutMix,
    _IjfModel,
    augment,
    class_prior,
)
from tabmem.association import association_matrix, cluster_features
from tabmem.errors import ClassTooSmallError, NoTargetError
from tabmem.table import FeatureKind, Schema, Table

NUM = FeatureKind.NUMERICAL
CAT = FeatureKind.CATEGORICAL

LINK = {"a": "A", "b": "B"}


def linked_feature_table(n_rows=200, seed=0):
    """f2 is a deterministic function of f1; f3 varies freely."""
    rng = np.random.default_rng(seed)
    schema = Schema(
        features=(("f1", CAT), ("f2", CAT), ("f3", NUM)),
        target="label",
    )
    rows = []
    for _ in range(n_rows):
        f1 = "a" if rng.random() < 0.5 else "b"
        rows.append((f1, LINK[f1], float(rng.normal()), "c0" if rng.random() < 0.6 else "c1"))
    return Table(schema, rows)


def numeric_table(n_rows, n_features, labels, seed=0):
    """Independent normal features; row i has label labels[i % len(labels)]."""
    rng = np.random.default_rng(seed)
    schema = Schema(features=tuple((f"x{j}", NUM) for j in range(n_features)), target="y")
    values = rng.normal(size=(n_rows, n_features)).tolist()
    return Table(schema, [(*v, labels[i % len(labels)]) for i, v in enumerate(values)])


def new_rows(table, out):
    return out.rows[table.n_rows:]


def feature_rows(table, indices):
    return [table.row(int(i))[: table.schema.n_features] for i in indices]


def mixed_rows(mixer, table, classes, donor_a, donor_b, take_a):
    """The rows ``mixer.mix`` builds, as tuples in the table's categories."""
    columns = mixer.mix(classes, donor_a, donor_b, take_a)
    out = Table.from_columns(table.schema, columns, table.vocabularies)
    return [row[: table.schema.n_features] for row in out.rows]


def block_rows(table, config, block, m):
    """The m rows block ``block`` of ``augment(table, config)`` holds, drawn alone."""
    if config.mode is AugmentMode.IJF:
        draw = _IjfModel(table).block
    else:
        mixer = _CutMix(table)
        if config.mode is AugmentMode.CUTMIXPLUS:
            mixer.units = cluster_features(association_matrix(table), config.cluster_threshold).clusters
        draw = mixer.block
    columns = draw(_block_rng(config.seed, block), m)
    return Table.from_columns(table.schema, columns, table.vocabularies).rows


class TestClassPrior:
    def test_uniform(self):
        schema = Schema(features=(("x", NUM),), target="y")
        table = Table(schema, [(1.0, "A"), (2.0, "A"), (3.0, "B"), (4.0, "B")])
        assert class_prior(table) == {"A": 0.5, "B": 0.5}

    def test_direct_count(self):
        schema = Schema(features=(("x", NUM),), target="y")
        table = Table(schema, [(1.0, "A"), (2.0, "A"), (3.0, "A"), (4.0, "B")])
        assert class_prior(table) == {"A": 0.75, "B": 0.25}

    def test_single_class(self):
        schema = Schema(features=(("x", NUM),), target="y")
        table = Table(schema, [(1.0, "A"), (2.0, "A")])
        assert class_prior(table) == {"A": 1.0}

    def test_no_target(self):
        schema = Schema(features=(("x", NUM),))
        with pytest.raises(NoTargetError):
            class_prior(Table(schema, [(1.0,)]))


class TestMixRows:
    """The gather step of a block: ``_CutMix.mix`` on given donors and mask."""

    def test_all_ones_mask_returns_donor_a(self):
        table = linked_feature_table(n_rows=30)
        mixer = _CutMix(table)
        a, b = np.arange(30), np.arange(30)[::-1].copy()
        classes = table.column(3)
        rows = mixed_rows(mixer, table, classes, a, b, np.ones((30, 3), dtype=bool))
        assert rows == feature_rows(table, a)

    def test_all_zeros_mask_returns_donor_b(self):
        table = linked_feature_table(n_rows=30)
        mixer = _CutMix(table)
        a, b = np.arange(30), np.arange(30)[::-1].copy()
        classes = table.column(3)
        rows = mixed_rows(mixer, table, classes, a, b, np.zeros((30, 3), dtype=bool))
        assert rows == feature_rows(table, b)

    def test_mask_draw_bits_follow_lambda(self):
        # Each row's mask is Bernoulli(lambda) per feature: with 400 features
        # the row's mean bit sits within binomial noise of its lambda.
        table = numeric_table(40, 400, ["A", "B"], seed=1)
        _, _, _, lam, take_a = _CutMix(table).draw(np.random.default_rng(0), 300)
        assert ((0.0 <= lam) & (lam < 1.0)).all()
        assert take_a.shape == (300, 400) and take_a.dtype == bool
        assert np.abs(take_a.mean(axis=1) - lam).max() < 0.1


class TestCutmixOnce:
    def test_construction_property(self):
        # Every feature of a new row equals that feature of one of its two
        # drawn donors, and both donors carry the row's class.
        table = linked_feature_table()
        mixer = _CutMix(table)
        classes, donor_a, donor_b, _, take_a = mixer.draw(np.random.default_rng(1), 500)
        labels = table.column(3)
        assert (labels[donor_a] == classes).all() and (labels[donor_b] == classes).all()
        rows = mixed_rows(mixer, table, classes, donor_a, donor_b, take_a)
        for row, a, b, bits in zip(rows, donor_a, donor_b, take_a):
            x_a, x_b = table.row(int(a)), table.row(int(b))
            assert row == tuple(x_a[j] if bits[j] else x_b[j] for j in range(3))

    def test_class_too_small(self):
        # Checked for every class before any draw or clustering.
        schema = Schema(features=(("x", NUM),), target="y")
        table = Table(schema, [(1.0, "A"), (2.0, "A"), (3.0, "B")])
        for mode in (AugmentMode.CUTMIX, AugmentMode.CUTMIXPLUS):
            with pytest.raises(ClassTooSmallError) as exc:
                augment(table, AugmentConfig(mode=mode, ratio=1.0, seed=0))
            assert exc.value.label == "B" and exc.value.count == 1


class TestCutmixPlusOnce:
    def test_single_cluster_copies_one_donor(self):
        # At threshold 1 every feature joins one cluster, so each new row's
        # features are one training row's features.
        table = linked_feature_table(n_rows=40)
        config = AugmentConfig(mode=AugmentMode.CUTMIXPLUS, ratio=5.0, seed=2, cluster_threshold=1.0)
        out = augment(table, config)
        rows = set(r[:3] for r in table.rows)
        assert all(row[:3] in rows for row in new_rows(table, out))

    def test_linked_pair_never_split(self):
        table = linked_feature_table()
        assert (0, 1) in cluster_features(association_matrix(table)).clusters
        out = augment(table, AugmentConfig(mode=AugmentMode.CUTMIXPLUS, ratio=2.5, seed=3))
        assert all(LINK[row[0]] == row[1] for row in new_rows(table, out))

    def test_link_preserved_for_every_donor_choice(self):
        # Exhaustive: every donor pair and every per-cluster bit assignment
        # keeps the linked features consistent when they share a cluster.
        table = linked_feature_table(n_rows=6)
        mixer = _CutMix(table)
        mixer.units = ((0, 1), (2,))
        pairs = list(itertools.product(range(6), repeat=2))
        bits = list(itertools.product((False, True), repeat=2))
        donor_a = np.array([a for a, _ in pairs for _ in bits])
        donor_b = np.array([b for _, b in pairs for _ in bits])
        take_a = np.array(bits * len(pairs))
        classes = table.column(3)[donor_a]
        rows = mixed_rows(mixer, table, classes, donor_a, donor_b, take_a)
        assert len(rows) == 6 * 6 * 4
        for row, a, b, (linked, free) in zip(rows, donor_a, donor_b, take_a):
            x_a, x_b = table.row(int(a)), table.row(int(b))
            assert LINK[row[0]] == row[1]
            assert row[:2] == (x_a if linked else x_b)[:2]
            assert row[2] == (x_a if free else x_b)[2]

    def test_singleton_clusters_behave_like_cutmix(self):
        # One lambda per row at cluster level: with singleton clusters
        # CutMixPlus draws exactly what CutMix draws.
        table = numeric_table(60, 4, ["A", "B", "C"], seed=4)
        assert cluster_features(association_matrix(table), 0.0).clusters == ((0,), (1,), (2,), (3,))
        plus = AugmentConfig(mode=AugmentMode.CUTMIXPLUS, ratio=80.0, seed=4, cluster_threshold=0.0)
        mix = AugmentConfig(mode=AugmentMode.CUTMIX, ratio=80.0, seed=4)
        assert augment(table, plus) == augment(table, mix)


class TestIjf:
    def test_constant_numeric_column(self):
        schema = Schema(features=(("x", NUM), ("c", CAT)), target="y")
        table = Table(schema, [(5.0, "a", "A"), (5.0, "b", "A"), (5.0, "a", "B")])
        out = augment(table, AugmentConfig(mode=AugmentMode.IJF, ratio=20.0, seed=5))
        assert [row[0] for row in new_rows(table, out)] == [5.0] * 60

    def test_single_category(self):
        schema = Schema(features=(("x", NUM), ("c", CAT)), target="y")
        table = Table(schema, [(1.0, "only", "A"), (2.0, "only", "B")])
        out = augment(table, AugmentConfig(mode=AugmentMode.IJF, ratio=10.0, seed=6))
        assert [row[1] for row in new_rows(table, out)] == ["only"] * 20

    def test_gaussian_marginal_matches_moments(self):
        rng = np.random.default_rng(7)
        schema = Schema(features=(("x", NUM),), target="y")
        base = Table(schema, [(float(v), "A") for v in rng.normal(10.0, 2.0, size=4000)])
        config = AugmentConfig(mode=AugmentMode.IJF, ratio=12.5, seed=8)
        augmented = augment(base, config)
        drawn = augmented.numeric_values()[base.n_rows:, 0]
        assert drawn.size == 50_000
        assert drawn.mean() == pytest.approx(base.numeric_values().mean(), abs=0.05)
        assert drawn.std() == pytest.approx(base.numeric_values().std(), abs=0.05)

    def test_categorical_marginals_pass_chi_square(self):
        # Eight rows, so a category drawn with probability off by 1/8 (an
        # off-by-one at a cumulative-count boundary) fails clearly.
        schema = Schema(features=(("x", NUM), ("c", CAT)), target="y")
        cells = zip("ppppqqrs", "AABABABA")
        rows = [(float(i), c, y) for i, (c, y) in enumerate(cells)]
        table = Table(schema, rows)
        out = augment(table, AugmentConfig(mode=AugmentMode.IJF, ratio=1000.0, seed=12))
        drawn = new_rows(table, out)
        assert len(drawn) == 8_000
        for j in (1, 2):
            train_values = [row[j] for row in rows]
            categories = sorted(set(train_values))
            observed = [sum(row[j] == c for row in drawn) for c in categories]
            expected = [train_values.count(c) / len(rows) * len(drawn) for c in categories]
            assert scipy.stats.chisquare(observed, expected).pvalue > 0.001


class TestBlockDraws:
    def test_lambda_is_uniform(self):
        table = linked_feature_table()
        _, _, _, lam, _ = _CutMix(table).draw(np.random.default_rng(13), 20_000)
        assert scipy.stats.kstest(lam, "uniform").pvalue > 0.001

    def test_donors_distinct_and_pairs_uniform(self):
        # Class A has 4 rows, class B 2: every ordered pair of distinct
        # same-class rows is equally likely within its class.
        table = numeric_table(6, 2, ["A", "A", "B", "A", "B", "A"], seed=14)
        classes, donor_a, donor_b, _, _ = _CutMix(table).draw(np.random.default_rng(14), 24_000)
        assert (donor_a != donor_b).all()
        labels = table.column(2)
        assert (labels[donor_a] == classes).all() and (labels[donor_b] == classes).all()
        for k in range(2):
            members = np.flatnonzero(labels == k)
            chosen = classes == k
            pairs = [(a, b) for a in members for b in members if a != b]
            observed = [np.count_nonzero(chosen & (donor_a == a) & (donor_b == b)) for a, b in pairs]
            expected = [np.count_nonzero(chosen) / len(pairs)] * len(pairs)
            assert scipy.stats.chisquare(observed, expected).pvalue > 0.001

    def test_class_frequencies_pass_chi_square(self):
        labels = ["A"] * 6 + ["B"] * 3 + ["C"]
        table = numeric_table(100, 2, labels, seed=15)
        # 60 / 30 / 10 rows per class, drawn across several blocks.
        out = augment(table, AugmentConfig(mode=AugmentMode.CUTMIX, ratio=150.0, seed=15))
        drawn = [row[-1] for row in new_rows(table, out)]
        assert len(drawn) == 15_000
        observed = [drawn.count(c) for c in "ABC"]
        expected = [p * len(drawn) for p in (0.6, 0.3, 0.1)]
        assert scipy.stats.chisquare(observed, expected).pvalue > 0.001

    @pytest.mark.parametrize("mode", list(AugmentMode))
    def test_output_is_independent_of_threads(self, mode):
        table = linked_feature_table(n_rows=100)
        config = AugmentConfig(mode=mode, ratio=3 * _BLOCK / 100 + 0.5, seed=16)
        outputs = [augment(table, config, threads=t) for t in (1, 2, 4)]
        assert outputs[0].n_rows - table.n_rows > 3 * _BLOCK
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("mode", list(AugmentMode))
    def test_block_boundary_sizes(self, mode):
        # The rows are block 0 (up to _BLOCK rows), then block 1, each drawn
        # from its own stream as if alone.
        table = linked_feature_table(n_rows=64)
        for n_new in (_BLOCK - 1, _BLOCK, _BLOCK + 1):
            config = AugmentConfig(mode=mode, ratio=n_new / table.n_rows, seed=17)
            out = augment(table, config, threads=2)
            assert out.n_rows == table.n_rows + n_new
            expected = block_rows(table, config, 0, min(n_new, _BLOCK))
            if n_new > _BLOCK:
                expected += block_rows(table, config, 1, n_new - _BLOCK)
            assert new_rows(table, out) == expected


class TestAugment:
    def test_ratio_zero_is_identity(self):
        table = linked_feature_table(n_rows=30)
        out = augment(table, AugmentConfig(mode=AugmentMode.CUTMIX, ratio=0.0, seed=1))
        assert out == table

    def test_row_count_at_default_ratio(self):
        table = linked_feature_table(n_rows=24_000, seed=9)
        out = augment(table, AugmentConfig(mode=AugmentMode.CUTMIX, ratio=0.3, seed=1))
        assert out.n_rows == 31_200
        assert out.rows[: table.n_rows] == table.rows

    def test_deterministic_replay(self):
        table = linked_feature_table(n_rows=50)
        config = AugmentConfig(mode=AugmentMode.CUTMIXPLUS, ratio=0.5, seed=123)
        assert augment(table, config) == augment(table, config)

    def test_provenance_same_class(self):
        table = linked_feature_table(n_rows=80)
        out = augment(table, AugmentConfig(mode=AugmentMode.CUTMIX, ratio=1.0, seed=2))
        by_label = {}
        for i, label in enumerate(table.target_values()):
            by_label.setdefault(label, []).append(table.row(i))
        for row in out.rows[table.n_rows:]:
            donors = by_label[row[-1]]
            for j in range(table.schema.n_features):
                assert any(d[j] == row[j] for d in donors)

    def test_class_counts_pass_chi_square(self):
        table = linked_feature_table(n_rows=400, seed=10)
        prior = class_prior(table)
        out = augment(table, AugmentConfig(mode=AugmentMode.CUTMIX, ratio=25.0, seed=3))
        new_labels = [row[-1] for row in out.rows[table.n_rows:]]
        assert len(new_labels) == 10_000
        labels = list(prior)
        observed = [new_labels.count(l) for l in labels]
        expected = [prior[l] * len(new_labels) for l in labels]
        result = scipy.stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_small_class_rejected(self):
        schema = Schema(features=(("x", NUM),), target="y")
        table = Table(schema, [(1.0, "A"), (2.0, "A"), (3.0, "B")])
        with pytest.raises(ClassTooSmallError):
            augment(table, AugmentConfig(mode=AugmentMode.CUTMIX, ratio=0.5, seed=0))

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(mode=AugmentMode.CUTMIX, ratio=-0.1)

    @pytest.mark.parametrize("ratio", [1000.0 + 1e-9, 1e300, float("inf"), float("nan")])
    def test_ratio_above_cap_rejected(self, ratio):
        with pytest.raises(ValueError):
            AugmentConfig(mode=AugmentMode.CUTMIX, ratio=ratio)
