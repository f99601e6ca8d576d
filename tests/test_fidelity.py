import collections
import fractions

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tabmem.distance import fit_normalizer, pairwise_mixed
from tabmem.errors import EmptyColumnError, TooFewRowsError
from tabmem.fidelity import (
    Discriminator,
    _medoid_distances,
    alpha_precision_beta_recall,
    c2st_score,
    dcr_probability,
    full_report,
    ks_complement,
    roc_auc,
    shape_score,
    synthesize_ood,
    trend_score,
    tv_complement,
)
from tabmem.table import FeatureKind, Schema, Table, concat

from conftest import random_mixed_table

NUM = FeatureKind.NUMERICAL
CAT = FeatureKind.CATEGORICAL


class TestKsComplement:
    def test_identical_multisets(self):
        assert ks_complement([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == 1.0

    def test_disjoint_supports(self):
        assert ks_complement([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_step_cdf_oracle(self):
        assert ks_complement([1, 2, 3, 4], [1, 2, 3, 5]) == pytest.approx(0.75)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=201)
        b = rng.normal(0.4, 1.3, size=157)
        expected = 1.0 - scipy.stats.ks_2samp(a, b).statistic
        assert ks_complement(a, b) == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyColumnError):
            ks_complement([], [1.0])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        scale=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_monotone_transform_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=40)
        b = rng.normal(size=30)
        base = ks_complement(a, b)
        transformed = ks_complement(np.exp(scale * a), np.exp(scale * b))
        assert transformed == pytest.approx(base, abs=1e-12)


class TestTvComplement:
    def test_identical_frequencies(self):
        assert tv_complement(["a", "b", "a", "b"], ["b", "a", "b", "a"]) == 1.0

    def test_disjoint_categories(self):
        assert tv_complement(["a", "a"], ["b", "b"]) == 0.0

    def test_hand_tvd(self):
        real = ["A", "A", "B", "B"]
        syn = ["A", "A", "A", "B"]
        assert tv_complement(real, syn) == pytest.approx(0.75)

    def test_exact_whatever_the_row_order_or_category_names(self):
        # 60 categories: a sum taken in any category order would differ in
        # the last bits between orders; the result must not.
        rng = np.random.default_rng(11)
        real = [f"k{k}" for k in rng.integers(60, size=997)]
        syn = [f"k{k}" for k in rng.integers(60, size=1013)]
        base = tv_complement(real, syn)
        counts_r = collections.Counter(real)
        counts_s = collections.Counter(syn)
        exact = 1 - sum(
            abs(fractions.Fraction(counts_r[c], len(real)) - fractions.Fraction(counts_s[c], len(syn)))
            for c in set(real) | set(syn)
        ) / 2
        assert base == pytest.approx(float(exact), abs=1e-15)
        for trial in range(10):
            names = {f"k{i}": f"{trial}-{(7 * i + trial) % 60}" for i in range(60)}
            r = [names[real[i]] for i in rng.permutation(len(real))]
            s = [names[syn[i]] for i in rng.permutation(len(syn))]
            assert tv_complement(r, s) == base
            assert tv_complement(s, r) == base


class TestShapeScore:
    def test_identity(self):
        rng = np.random.default_rng(1)
        table = random_mixed_table(rng, 30, with_target=True)
        assert shape_score(table, table) == 1.0

    def test_mixed_hand_fixture(self):
        schema = Schema(features=(("n", NUM), ("c", CAT)))
        real = Table(schema, [(1.0, "a"), (2.0, "a"), (3.0, "b"), (4.0, "b")])
        syn = Table(schema, [(1.0, "a"), (2.0, "a"), (3.0, "a"), (5.0, "b")])
        assert shape_score(real, syn) == pytest.approx((0.75 + 0.75) / 2)


class TestTrendScore:
    def fixture(self):
        schema = Schema(features=(("n1", NUM), ("n2", NUM), ("c1", CAT)))
        real = Table(
            schema,
            [(1.0, 2.0, "a"), (2.0, 1.0, "a"), (3.0, 4.0, "b"), (4.0, 3.0, "b")],
        )
        syn = Table(
            schema,
            [(1.0, 1.0, "a"), (2.0, 2.0, "b"), (3.0, 3.0, "a"), (4.0, 4.0, "b")],
        )
        return real, syn

    def test_identity(self):
        rng = np.random.default_rng(2)
        table = random_mixed_table(rng, 25, with_target=True)
        assert trend_score(table, table) == 1.0

    def test_opposed_correlations_score_zero(self):
        schema = Schema(features=(("a", NUM), ("b", NUM)))
        real = Table(schema, [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        syn = Table(schema, [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)])
        assert trend_score(real, syn) == pytest.approx(0.0, abs=1e-12)

    def test_hand_pairwise_average(self):
        real, syn = self.fixture()
        # pair scores: (n1,n2) 0.8; (n1,c1) 0.5; (n2,c1) 0.5
        assert trend_score(real, syn) == pytest.approx(0.6, abs=1e-12)


class TestDcr:
    def test_copy_of_train(self, mixed_schema):
        rng = np.random.default_rng(3)
        train = random_mixed_table(rng, 30)
        far_rows = [
            tuple(c + 1000.0 if isinstance(c, float) else "far" for c in row)
            for row in train.rows
        ]
        holdout = Table(train.schema, far_rows)
        assert dcr_probability(train, train, holdout) == 1.0

    def test_exact_tie_rule(self):
        schema = Schema(features=(("x", NUM),))
        train = Table(schema, [(0.0,), (10.0,)])
        holdout = Table(schema, [(2.0,), (8.0,)])
        syn = Table(schema, [(1.0,), (9.0,)])
        assert dcr_probability(syn, train, holdout) == 0.5

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(4)
        syn = random_mixed_table(rng, 40)
        a = random_mixed_table(rng, 35)
        b = random_mixed_table(rng, 45)
        assert dcr_probability(syn, a, b) + dcr_probability(syn, b, a) == 1.0

    def test_iid_pool_near_half(self):
        rng = np.random.default_rng(5)
        pool = random_mixed_table(rng, 600)
        train = Table(pool.schema, pool.rows[:300])
        holdout = Table(pool.schema, pool.rows[300:])
        syn = random_mixed_table(rng, 300)
        assert 0.4 <= dcr_probability(syn, train, holdout) <= 0.6


def gaussian_pair(seed, n=1000, shift=0.0):
    rng = np.random.default_rng(seed)
    schema = Schema(features=(("x", NUM), ("y", NUM), ("c", CAT)))

    def draw():
        rows = []
        for _ in range(n):
            rows.append(
                (
                    float(rng.normal()),
                    float(rng.normal(2.0, 3.0)),
                    "u" if rng.random() < 0.5 else "v",
                )
            )
        return rows

    real = Table(schema, draw())
    syn_rows = [(x + shift, y + 3.0 * shift, c) for x, y, c in draw()]
    return real, Table(schema, syn_rows)


class TestC2st:
    def test_bootstrap_synthetic_scores_high(self):
        real, _ = gaussian_pair(6)
        rng = np.random.default_rng(7)
        boot_rows = [real.row(int(i)) for i in rng.integers(real.n_rows, size=real.n_rows)]
        syn = Table(real.schema, boot_rows)
        assert c2st_score(real, syn, seed=0) >= 0.9

    def test_shifted_synthetic_scores_low(self):
        real, syn = gaussian_pair(8, shift=100.0)
        assert c2st_score(real, syn, seed=0) <= 0.05

    def test_identical_tables_indistinguishable(self):
        real, _ = gaussian_pair(9)
        assert c2st_score(real, real, seed=1) >= 0.9

    def test_deterministic_for_seed(self):
        real, syn = gaussian_pair(10, shift=0.3)
        assert c2st_score(real, syn, seed=5) == c2st_score(real, syn, seed=5)

    def test_too_few_rows(self):
        real, syn = gaussian_pair(11)
        small = Table(real.schema, real.rows[:10])
        with pytest.raises(TooFewRowsError):
            c2st_score(small, syn)

    def test_training_loss_non_increasing(self):
        real, syn = gaussian_pair(12, shift=0.5)
        rng = np.random.default_rng(0)
        x = np.vstack([real.numeric_values(), syn.numeric_values()])
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = np.concatenate([np.zeros(real.n_rows), np.ones(syn.n_rows)])
        model = Discriminator.fit(x, y)
        diffs = np.diff(model.loss_curve)
        assert (diffs <= 1e-12).all()

    def test_roc_auc_with_ties(self):
        scores = np.asarray([0.1, 0.5, 0.5, 0.9])
        labels = np.asarray([0, 0, 1, 1])
        # tie contributes half: AUC = (1 + 0.5 + 2)/4? rank-based oracle below
        expected = scipy.stats.mannwhitneyu(scores[labels == 1], scores[labels == 0]).statistic / 4
        assert roc_auc(scores, labels) == pytest.approx(expected)


class TestSupportMetrics:
    def test_self_support(self):
        rng = np.random.default_rng(13)
        table = random_mixed_table(rng, 80)
        precision, recall = alpha_precision_beta_recall(table, table)
        assert precision >= 0.95
        assert recall >= 0.95

    def test_collapsed_synthetic_has_tiny_recall(self):
        rng = np.random.default_rng(14)
        real = random_mixed_table(rng, 60)
        syn = Table(real.schema, [real.row(0)] * 12)
        _, recall = alpha_precision_beta_recall(real, syn)
        assert recall <= 0.1

    def test_full_level_contains_everything(self):
        from tabmem.distance import fit_normalizer
        from tabmem.fidelity import _medoid_distances, _support_curve
        from tabmem.table import concat

        rng = np.random.default_rng(15)
        real = random_mixed_table(rng, 50)
        syn = Table(real.schema, [real.row(int(i)) for i in rng.integers(50, size=40)])
        pool = concat(real, syn)
        norm = fit_normalizer(pool, pool)
        d_real, d_syn = _medoid_distances(real, syn, norm)
        curve = _support_curve(d_real, d_syn, levels=20)
        # syn rows are real rows, so at level 1.0 every one is inside.
        assert curve[-1] == 1.0

    def test_too_few_rows(self):
        rng = np.random.default_rng(16)
        table = random_mixed_table(rng, 9)
        with pytest.raises(TooFewRowsError):
            alpha_precision_beta_recall(table, table)


class TestSynthesizeOod:
    def test_numeric_scale_factor(self):
        schema = Schema(features=(("x", NUM),))
        table = Table(schema, [(2.0,)])
        out = synthesize_ood(table, np.random.default_rng(17))
        assert out.row(0)[0] == 200.0

    def test_categorical_closed_world(self):
        schema = Schema(features=(("c", CAT), ("d", CAT)))
        table = Table(schema, [("a", "x"), ("b", "y"), ("c", "z")])
        out = synthesize_ood(table, np.random.default_rng(18))
        observed = {0: {"a", "b", "c"}, 1: {"x", "y", "z"}}
        for row in out.rows:
            for j, v in enumerate(row):
                assert v in observed[j]

    def test_at_most_one_feature_differs(self):
        rng = np.random.default_rng(19)
        table = random_mixed_table(rng, 40, n_num=3, n_cat=3)
        out = synthesize_ood(table, rng)
        assert out.n_rows == table.n_rows
        for before, after in zip(table.rows, out.rows):
            differing = sum(1 for a, b in zip(before, after) if a != b)
            assert differing <= 1


class TestFullReport:
    def test_all_fields_in_unit_interval(self):
        rng = np.random.default_rng(20)
        real = random_mixed_table(rng, 60, with_target=True)
        syn = random_mixed_table(rng, 60, with_target=True)
        holdout = random_mixed_table(rng, 50, with_target=True)
        report = full_report(real, syn, holdout=holdout, seed=0)
        for value in report.to_dict().values():
            assert 0.0 <= value <= 1.0

    def test_dcr_omitted_without_holdout(self):
        rng = np.random.default_rng(21)
        real = random_mixed_table(rng, 40)
        syn = random_mixed_table(rng, 40)
        report = full_report(real, syn, seed=0)
        assert report.dcr_probability is None
        assert "dcr_probability" not in report.to_dict()


class TestBlockReducers:
    """The medoid and DCR reductions equal their full-matrix versions."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_medoid_distances_match_full_matrix(self, seed):
        rng = np.random.default_rng(seed)
        ref = random_mixed_table(rng, 90, n_num=3, n_cat=2, duplicate_rows=5)
        other = random_mixed_table(rng, 70, n_num=3, n_cat=2)
        norm = fit_normalizer(concat(ref, other), concat(ref, other))
        within = pairwise_mixed(ref, ref, norm)
        medoid = int(np.argmin(within.sum(axis=1)))
        d_ref, d_other = _medoid_distances(ref, other, norm, threads=2)
        np.testing.assert_array_equal(d_ref, within[:, medoid])
        np.testing.assert_array_equal(d_other, pairwise_mixed(other, ref, norm)[:, medoid])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dcr_matches_full_matrix(self, seed):
        rng = np.random.default_rng(seed)
        train = random_mixed_table(rng, 60, n_num=2, n_cat=2, categories=2, duplicate_rows=6)
        holdout = random_mixed_table(rng, 50, n_num=2, n_cat=2, categories=2)
        syn = concat(random_mixed_table(rng, 40, n_num=2, n_cat=2, categories=2),
                     Table(train.schema, train.rows[:10] + holdout.rows[:10]))
        pool = concat(train, holdout)
        norm = fit_normalizer(syn, pool)
        full = pairwise_mixed(syn, pool, norm)
        to_train = full[:, : train.n_rows].min(axis=1)
        to_holdout = full[:, train.n_rows :].min(axis=1)
        expected = (np.count_nonzero(to_train < to_holdout)
                    + 0.5 * np.count_nonzero(to_train == to_holdout)) / syn.n_rows
        assert dcr_probability(syn, train, holdout, threads=2) == expected

    def test_thread_count_does_not_change_report(self):
        rng = np.random.default_rng(2)
        real = random_mixed_table(rng, 60, n_num=2, n_cat=2, with_target=True)
        syn = random_mixed_table(rng, 60, n_num=2, n_cat=2, with_target=True)
        holdout = random_mixed_table(rng, 40, n_num=2, n_cat=2, with_target=True)
        single = full_report(real, syn, holdout, threads=1)
        assert full_report(real, syn, holdout, threads=3) == single
