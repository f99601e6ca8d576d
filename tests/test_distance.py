import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabmem import distance
from tabmem.distance import (
    DistanceNormalizer,
    fit_normalizer,
    mixed_distance,
    pairwise_mixed,
    raw_numeric_distance,
    reduce_mixed,
    two_nearest,
)
from tabmem.errors import EmptyTableError, SchemaMismatchError, TrainTooSmallError
from tabmem.memorization import audit, distance_ratios
from tabmem.table import FeatureKind, Schema, Table

from conftest import brute_force_two_nearest, random_mixed_table

NUM = FeatureKind.NUMERICAL
CAT = FeatureKind.CATEGORICAL


class TestRawNumericDistance:
    def test_identity(self, mixed_schema):
        row = (1.0, 2.0, "a", "b", "pos")
        assert raw_numeric_distance(row, row, mixed_schema) == 0.0

    def test_hand_euclidean(self, mixed_schema):
        a = (0.0, 0.0, "a", "b", "pos")
        b = (3.0, 4.0, "a", "b", "pos")
        assert raw_numeric_distance(a, b, mixed_schema) == 5.0

    def test_no_numerical_features(self):
        schema = Schema(features=(("c1", CAT), ("c2", CAT)))
        assert raw_numeric_distance(("a", "b"), ("x", "y"), schema) == 0.0

    def test_schema_mismatch(self, mixed_schema):
        with pytest.raises(SchemaMismatchError):
            raw_numeric_distance((1.0, 2.0), (3.0, 4.0), mixed_schema)


class TestNormalizer:
    def test_enumerated_population(self, mixed_schema):
        gen = Table(mixed_schema, [(0.0, 0.0, "a", "b", "p")])
        train = Table(
            mixed_schema,
            [
                (0.0, 0.0, "a", "b", "p"),
                (3.0, 4.0, "a", "b", "p"),
                (6.0, 8.0, "a", "b", "p"),
            ],
        )
        norm = fit_normalizer(gen, train)
        # population of raw distances is exactly {0, 5, 10}
        assert (norm.d_min, norm.d_max) == (0.0, 10.0)
        assert norm.normalize(5.0) == 0.5

    def test_degenerate_identical_numericals(self, mixed_schema):
        rows = [(1.0, 2.0, "a", "b", "p"), (1.0, 2.0, "c", "d", "q")]
        table = Table(mixed_schema, rows)
        norm = fit_normalizer(table, table)
        assert norm.degenerate
        assert norm.normalize(7.0) == 0.0

    def test_singleton_population(self, mixed_schema):
        gen = Table(mixed_schema, [(0.0, 0.0, "a", "b", "p")])
        train = Table(mixed_schema, [(3.0, 4.0, "a", "b", "p")])
        norm = fit_normalizer(gen, train)
        assert norm.d_min == norm.d_max == 5.0
        assert norm.degenerate

    def test_clamping_out_of_range(self):
        norm = DistanceNormalizer(2.0, 4.0)
        assert norm.normalize(1.0) == 0.0
        assert norm.normalize(5.0) == 1.0

    def test_empty_population(self, mixed_schema):
        with pytest.raises(EmptyTableError):
            fit_normalizer(Table(mixed_schema, []), Table(mixed_schema, []))


class TestMixedDistance:
    def test_identity(self, mixed_schema):
        norm = DistanceNormalizer(0.0, 10.0)
        row = (1.0, 2.0, "a", "b", "pos")
        assert mixed_distance(row, row, mixed_schema, norm) == 0.0

    def test_hand_evaluation(self, mixed_schema):
        # numericals (0,0) vs (3,4) under normalizer (0,10) -> 0.5;
        # one of two categoricals differs; M = 4.
        norm = DistanceNormalizer(0.0, 10.0)
        a = (0.0, 0.0, "A", "B", "pos")
        b = (3.0, 4.0, "A", "C", "pos")
        assert mixed_distance(a, b, mixed_schema, norm) == pytest.approx(0.375, abs=1e-15)

    def test_saturated_hamming(self):
        schema = Schema(features=(("c1", CAT), ("c2", CAT), ("c3", CAT)))
        norm = DistanceNormalizer(0.0, 0.0)
        assert mixed_distance(("a", "b", "c"), ("x", "y", "z"), schema, norm) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_symmetry_identity_bounds(self, seed):
        rng = np.random.default_rng(seed)
        table = random_mixed_table(rng, 6, n_num=2, n_cat=2)
        norm = fit_normalizer(table, table)
        schema = table.schema
        m = schema.n_features
        n_cat = len(schema.categorical_indices)
        for a in table.rows:
            for b in table.rows:
                d_ab = mixed_distance(a, b, schema, norm)
                d_ba = mixed_distance(b, a, schema, norm)
                assert d_ab == pytest.approx(d_ba, abs=1e-15)
                assert 0.0 <= d_ab <= (1 + n_cat) / m + 1e-15
            assert mixed_distance(a, a, schema, norm) == 0.0


class TestTwoNearest:
    def test_exact_copy_found(self, mixed_schema):
        train = Table(
            mixed_schema,
            [
                (0.0, 0.0, "a", "b", "p"),
                (100.0, 100.0, "c", "d", "q"),
                (200.0, 200.0, "e", "f", "r"),
            ],
        )
        gen = Table(mixed_schema, [(100.0, 100.0, "c", "d", "q")])
        norm = fit_normalizer(gen, train)
        (res,) = two_nearest(gen, train, norm)
        assert res.nn1_index == 1
        assert res.nn1_distance == 0.0
        assert res.nn2_distance > 0.0

    def test_tie_breaks_to_lower_index(self):
        schema = Schema(features=(("x", NUM),))
        train = Table(schema, [(1.0,), (1.0,), (5.0,)])
        gen = Table(schema, [(1.0,)])
        norm = fit_normalizer(gen, train)
        (res,) = two_nearest(gen, train, norm)
        assert (res.nn1_index, res.nn2_index) == (0, 1)

    def test_train_too_small(self, mixed_schema):
        one_row = Table(mixed_schema, [(0.0, 0.0, "a", "b", "p")])
        with pytest.raises(TrainTooSmallError):
            two_nearest(one_row, one_row, DistanceNormalizer(0.0, 1.0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        gen = random_mixed_table(rng, 60, n_num=3, n_cat=2, duplicate_rows=3)
        train = random_mixed_table(rng, 80, n_num=3, n_cat=2, duplicate_rows=5)
        norm = fit_normalizer(gen, train)
        got = two_nearest(gen, train, norm)
        expected = brute_force_two_nearest(gen, train, norm)
        for res, (i1, d1, i2, d2) in zip(got, expected):
            assert res.nn1_index == i1
            assert res.nn2_index == i2
            assert res.nn1_distance == pytest.approx(d1, abs=1e-12)
            assert res.nn2_distance == pytest.approx(d2, abs=1e-12)

    def test_pure_categorical_ties_match_oracle(self):
        rng = np.random.default_rng(5)
        gen = random_mixed_table(rng, 30, n_num=0, n_cat=3, categories=2)
        train = random_mixed_table(rng, 40, n_num=0, n_cat=3, categories=2)
        norm = fit_normalizer(gen, train)
        got = two_nearest(gen, train, norm)
        expected = brute_force_two_nearest(gen, train, norm)
        assert [(r.nn1_index, r.nn2_index) for r in got] == [(i1, i2) for i1, _, i2, _ in expected]

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(9)
        gen = random_mixed_table(rng, 300, n_num=2, n_cat=2)
        train = random_mixed_table(rng, 350, n_num=2, n_cat=2)
        norm = fit_normalizer(gen, train)
        assert two_nearest(gen, train, norm, threads=1) == two_nearest(gen, train, norm, threads=8)
        assert fit_normalizer(gen, train, threads=8) == norm

    def test_pairwise_matrix_agrees_with_scalar(self, small_table):
        norm = fit_normalizer(small_table, small_table)
        matrix = pairwise_mixed(small_table, small_table, norm)
        for i, a in enumerate(small_table.rows):
            for j, b in enumerate(small_table.rows):
                assert matrix[i, j] == pytest.approx(
                    mixed_distance(a, b, small_table.schema, norm), abs=1e-12
                )


# --- blocked kernel against the broadcast formula ----------------------------


def _broadcast_raw(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Raw numerical distances from one (n_query, n_ref, d) difference tensor."""
    if query.shape[1] == 0:
        return np.zeros((query.shape[0], ref.shape[0]))
    diff = query[:, None, :] - ref[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _broadcast_normalizer(gen: Table, train: Table) -> DistanceNormalizer:
    if gen.numeric_values().shape[1] == 0:
        return DistanceNormalizer(0.0, 0.0)
    raw = _broadcast_raw(gen.numeric_values(), train.numeric_values())
    return DistanceNormalizer(float(raw.min()), float(raw.max()))


def _broadcast_mixed(gen: Table, train: Table, norm: DistanceNormalizer) -> np.ndarray:
    raw = _broadcast_raw(gen.numeric_values(), train.numeric_values())
    if norm.degenerate:
        numeric = np.zeros_like(raw)
    else:
        numeric = np.clip((raw - norm.d_min) / (norm.d_max - norm.d_min), 0.0, 1.0)
    differ = gen.categorical_values()[:, None, :] != train.categorical_values()[None, :, :]
    hamming = np.sum(differ, axis=-1, dtype=np.float64)
    return (numeric + hamming) / gen.schema.n_features


def _broadcast_two_nearest(dist: np.ndarray) -> np.ndarray:
    dist = dist.copy()
    rows = np.arange(dist.shape[0])
    first = np.argmin(dist, axis=1)
    d1 = dist[rows, first]
    dist[rows, first] = np.inf
    second = np.argmin(dist, axis=1)
    return np.column_stack([first, d1, second, dist[rows, second]])


def _packed(results) -> np.ndarray:
    return np.asarray(
        [(r.nn1_index, r.nn1_distance, r.nn2_index, r.nn2_distance) for r in results]
    )


@st.composite
def table_pairs(draw, min_num=0, max_num=7, max_cat=4):
    """(generated, train) over one schema, with repeated values and rows."""
    n_num = draw(st.integers(min_num, max_num))
    n_cat = draw(st.integers(1 if n_num == 0 else 0, max_cat))
    features = [(f"n{i}", NUM) for i in range(n_num)] + [(f"c{i}", CAT) for i in range(n_cat)]
    schema = Schema(features=tuple(features))
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 0.5, -3.0]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
    row = st.tuples(*([values] * n_num + [st.sampled_from(["a", "b", "c"])] * n_cat))

    def table(min_rows):
        rows = draw(st.lists(row, min_size=min_rows, max_size=12))
        return Table(schema, rows + rows[: draw(st.integers(0, 3))])

    return table(1), table(2)


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(pair=table_pairs())
    def test_bit_identical_to_broadcast_below_eight_numericals(self, pair):
        gen, train = pair
        norm = fit_normalizer(gen, train)
        assert norm == _broadcast_normalizer(gen, train)
        expected = _broadcast_mixed(gen, train, norm)
        np.testing.assert_array_equal(pairwise_mixed(gen, train, norm), expected)
        np.testing.assert_array_equal(
            _packed(two_nearest(gen, train, norm)), _broadcast_two_nearest(expected)
        )

    @settings(max_examples=60, deadline=None)
    @given(pair=table_pairs(min_num=8, max_num=40, max_cat=2))
    def test_within_last_bits_from_eight_numericals(self, pair):
        gen, train = pair
        norm = fit_normalizer(gen, train)
        reference = _broadcast_normalizer(gen, train)
        assert norm.d_min == pytest.approx(reference.d_min, rel=1e-12, abs=1e-300)
        assert norm.d_max == pytest.approx(reference.d_max, rel=1e-12)
        # Normalization magnifies a raw rounding difference by d_max / (d_max - d_min).
        tol = 1e-12 * (1.0 if norm.degenerate else max(1.0, norm.d_max / (norm.d_max - norm.d_min)))
        expected = _broadcast_mixed(gen, train, norm)
        np.testing.assert_allclose(pairwise_mixed(gen, train, norm), expected, rtol=0, atol=tol)
        rows = np.arange(gen.n_rows)
        got = _packed(two_nearest(gen, train, norm))
        best = _broadcast_two_nearest(expected)
        np.testing.assert_allclose(got[:, [1, 3]], best[:, [1, 3]], rtol=0, atol=tol)
        # Where the order differs, the kernel's pick is a near-tie under the reference.
        chosen = expected[rows, got[:, 0].astype(int)]
        np.testing.assert_allclose(chosen, best[:, 1], rtol=0, atol=tol)

    @pytest.mark.parametrize("cells", [1, 7, 64, 1 << 20])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_block_size_and_threads_change_nothing(self, monkeypatch, cells, threads):
        rng = np.random.default_rng(3)
        gen = random_mixed_table(rng, 50, n_num=3, n_cat=2, duplicate_rows=4)
        train = random_mixed_table(rng, 40, n_num=3, n_cat=2, duplicate_rows=4)
        norm = fit_normalizer(gen, train)
        matrix = pairwise_mixed(gen, train, norm)
        neighbors = two_nearest(gen, train, norm)
        monkeypatch.setattr(distance, "_BLOCK_CELLS", cells)
        assert fit_normalizer(gen, train, threads) == norm
        np.testing.assert_array_equal(pairwise_mixed(gen, train, norm, threads), matrix)
        assert two_nearest(gen, train, norm, threads) == neighbors

    def test_reduce_mixed_sees_blocks_in_row_order(self):
        rng = np.random.default_rng(4)
        gen = random_mixed_table(rng, 30, n_num=2, n_cat=1)
        train = random_mixed_table(rng, 20, n_num=2, n_cat=1)
        norm = fit_normalizer(gen, train)
        sums = reduce_mixed(gen, train, norm, lambda block: block.sum(axis=1), threads=2)
        full = pairwise_mixed(gen, train, norm)
        np.testing.assert_array_equal(np.concatenate(sums), full.sum(axis=1))


def _scaled(table: Table, exponent: int) -> Table:
    num = set(table.schema.numerical_indices)
    return Table(
        table.schema,
        [
            tuple(np.ldexp(v, exponent) if i in num else v for i, v in enumerate(row))
            for row in table.rows
        ],
    )


class TestHugeMagnitudes:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), exponent=st.integers(600, 1000))
    def test_ratios_match_the_scaled_down_table(self, seed, exponent):
        rng = np.random.default_rng(seed)
        gen = random_mixed_table(rng, 15, n_num=3, n_cat=1, duplicate_rows=2)
        train = random_mixed_table(rng, 20, n_num=3, n_cat=1, duplicate_rows=2)
        huge = distance_ratios(_scaled(gen, exponent), _scaled(train, exponent))
        plain = distance_ratios(gen, train)
        assert np.all(np.isfinite(huge))
        assert all(0.0 <= r <= 1.0 for r in huge)
        np.testing.assert_array_equal(huge, plain)

    def test_1e200_inputs_give_finite_normalizer_and_report(self):
        schema = Schema(features=(("x", NUM), ("y", NUM)))
        train = Table(schema, [(1e200, -1e200), (-1e200, 1e200), (0.0, 0.0), (3e199, 0.0)])
        gen = Table(schema, [(1e200, -1e200), (1e199, 1e199)])
        norm = fit_normalizer(gen, train)
        assert 0.0 == norm.d_min < norm.d_max < np.inf
        assert norm.d_max == pytest.approx(np.hypot(2e200, 2e200), rel=1e-15)
        report = audit(gen, train)
        assert report.ratios[0] == 0.0
        assert np.isfinite(report.mem_auc)
