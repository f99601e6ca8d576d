import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabmem.errors import (
    BadFractionsError,
    EmptyTableError,
    MalformedFileError,
    MissingColumnError,
    MissingValueError,
    SchemaMismatchError,
    UnparsableNumericError,
)
from tabmem.table import (
    FeatureKind,
    Schema,
    Table,
    concat,
    encode,
    load_csv,
    load_schema,
    recode,
    save_schema,
    split,
    write_csv,
)

NUM = FeatureKind.NUMERICAL
CAT = FeatureKind.CATEGORICAL


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaMismatchError):
            Schema(features=(("a", NUM), ("a", CAT)))

    def test_target_name_collision_rejected(self):
        with pytest.raises(SchemaMismatchError):
            Schema(features=(("a", NUM),), target="a")

    @pytest.mark.parametrize(
        "features, target",
        [((("a", NUM),), 7), (((5, NUM),), None), ((("", NUM),), None), ((("a", NUM),), "")],
    )
    def test_names_must_be_non_empty_strings(self, features, target):
        with pytest.raises(SchemaMismatchError):
            Schema(features=features, target=target)

    def test_feature_count_excludes_target(self, mixed_schema):
        assert mixed_schema.n_features == 4
        assert mixed_schema.row_width() == 5
        assert len(mixed_schema.numerical_indices) + len(mixed_schema.categorical_indices) == 4

    def test_json_round_trip(self, tmp_path, mixed_schema):
        path = tmp_path / "schema.json"
        save_schema(mixed_schema, path)
        assert load_schema(path) == mixed_schema
        raw = json.loads(path.read_text())
        assert raw["features"][0] == {"name": "x", "kind": "numerical"}
        assert raw["target"] == "label"


class TestTable:
    def test_kind_checking(self, mixed_schema):
        with pytest.raises(SchemaMismatchError):
            Table(mixed_schema, [("oops", 0.0, "red", "circle", "pos")])

    def test_non_finite_rejected(self, mixed_schema):
        with pytest.raises(SchemaMismatchError):
            Table(mixed_schema, [(float("nan"), 0.0, "red", "circle", "pos")])

    def test_row_width_enforced(self, mixed_schema):
        with pytest.raises(SchemaMismatchError):
            Table(mixed_schema, [(0.0, 0.0, "red", "circle")])

    def test_numeric_block_is_readonly(self, small_table):
        with pytest.raises(ValueError):
            small_table.numeric_values()[0, 0] = 9.0


class TestCsv:
    def test_round_trip(self, tmp_path, small_table):
        path = tmp_path / "t.csv"
        write_csv(small_table, path)
        assert load_csv(path, small_table.schema) == small_table

    def test_full_precision_floats(self, tmp_path, mixed_schema):
        value = 0.1 + 0.2  # not representable as a short decimal
        table = Table(mixed_schema, [(value, 1e-17, "a", "b", "c")])
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert load_csv(path, mixed_schema).row(0)[0] == value

    def test_comma_in_category_quoted(self, tmp_path, mixed_schema):
        table = Table(mixed_schema, [(1.0, 2.0, 'a,"b', "c\nd", "pos")])
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert load_csv(path, mixed_schema) == table

    def test_header_permutation_is_accepted(self, tmp_path, mixed_schema):
        path = tmp_path / "t.csv"
        path.write_text("label,shape,color,y,x\npos,circle,red,4.0,3.0\n")
        table = load_csv(path, mixed_schema)
        assert table.row(0) == (3.0, 4.0, "red", "circle", "pos")

    def test_missing_column(self, tmp_path, mixed_schema):
        path = tmp_path / "t.csv"
        path.write_text("x,y,color\n1.0,2.0,red\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, mixed_schema)

    def test_extra_column(self, tmp_path, mixed_schema):
        path = tmp_path / "t.csv"
        path.write_text("x,y,color,shape,label,extra\n1,2,red,circle,pos,zzz\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, mixed_schema)

    def test_unparsable_numeric(self, tmp_path, mixed_schema):
        path = tmp_path / "t.csv"
        path.write_text("x,y,color,shape,label\nabc,2.0,red,circle,pos\n")
        with pytest.raises(UnparsableNumericError) as err:
            load_csv(path, mixed_schema)
        assert err.value.column == "x"
        assert err.value.row == 0

    def test_infinite_numeric_rejected(self, tmp_path, mixed_schema):
        path = tmp_path / "t.csv"
        path.write_text("x,y,color,shape,label\ninf,2.0,red,circle,pos\n")
        with pytest.raises(UnparsableNumericError):
            load_csv(path, mixed_schema)

    def test_missing_value(self, tmp_path, mixed_schema):
        path = tmp_path / "t.csv"
        path.write_text("x,y,color,shape,label\n1.0,2.0,,circle,pos\n")
        with pytest.raises(MissingValueError):
            load_csv(path, mixed_schema)

    def test_short_row_rejected(self, tmp_path, mixed_schema):
        path = tmp_path / "t.csv"
        path.write_text("x,y,color,shape,label\n1.0,2.0,red,circle\n")
        with pytest.raises(SchemaMismatchError):
            load_csv(path, mixed_schema)

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"1.0,2.0,caf\xe9,circle,pos\n", "not UTF-8"),
            (b"1.0,2.0," + b"r" * 200_000 + b",circle,pos\n", "malformed CSV"),
        ],
    )
    def test_undecodable_file_names_its_path(self, tmp_path, mixed_schema, body, message):
        path = tmp_path / "t.csv"
        path.write_bytes(b"x,y,color,shape,label\n" + body)
        with pytest.raises(MalformedFileError, match=message) as err:
            load_csv(path, mixed_schema)
        assert str(path) in str(err.value)

    def test_schema_that_is_not_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b'{"features": [\xff')
        with pytest.raises(MalformedFileError, match="not a JSON schema file") as err:
            load_schema(path)
        assert str(path) in str(err.value)

    def test_empty_table_not_written(self, mixed_schema, tmp_path):
        with pytest.raises(EmptyTableError):
            write_csv(Table(mixed_schema, []), tmp_path / "t.csv")


class TestSplit:
    def test_paper_ratio_sizes(self, mixed_schema):
        rows = [(float(i), 0.0, "a", "b", "pos") for i in range(10)]
        parts = split(Table(mixed_schema, rows), [0.8, 0.1, 0.1], seed=7)
        assert [p.n_rows for p in parts] == [8, 1, 1]

    def test_single_fraction_is_shuffled_copy(self, small_table):
        (part,) = split(small_table, [1.0], seed=3)
        assert sorted(part.rows) == sorted(small_table.rows)

    def test_deterministic(self, small_table):
        a = split(small_table, [0.5, 0.5], seed=11)
        b = split(small_table, [0.5, 0.5], seed=11)
        assert all(x == y for x, y in zip(a, b))

    def test_bad_fractions(self, small_table):
        with pytest.raises(BadFractionsError):
            split(small_table, [0.5, 0.4], seed=0)
        with pytest.raises(BadFractionsError):
            split(small_table, [1.5, -0.5], seed=0)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_partition_property(self, n, seed, k):
        schema = Schema(features=(("v", NUM),))
        table = Table(schema, [(float(i),) for i in range(n)])
        parts = split(table, [1.0 / k] * k, seed=seed)
        assert sum(p.n_rows for p in parts) == n
        merged = sorted(row for p in parts for row in p.rows)
        assert merged == sorted(table.rows)


def first_appearance(table, index):
    return tuple(dict.fromkeys(row[index] for row in table.rows))


def assert_invariant(table):
    """Every vocabulary lists exactly its column's categories, in first-appearance order."""
    for i in table.schema.coded_indices:
        assert table.vocabularies[i] == first_appearance(table, i)
        vocabulary = table.vocabularies[i]
        assert [vocabulary[c] for c in table.column(i)] == [row[i] for row in table.rows]


def columnar(schema, rows):
    """The same rows built from columns, with codes over reversed vocabularies
    that also list a category no row holds."""
    columns, vocabularies = [], []
    for i in range(schema.row_width()):
        cells = [row[i] for row in rows]
        if i in schema.coded_indices:
            codes, vocabulary = encode(cells)
            columns.append(len(vocabulary) - codes)
            vocabularies.append(("unused",) + vocabulary[::-1])
        else:
            columns.append(np.array(cells))
            vocabularies.append(None)
    return Table.from_columns(schema, columns, vocabularies)


cell_text = st.text(alphabet="ab,\"\n x", min_size=1, max_size=3)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def schemas_and_rows(draw):
    kinds = draw(st.lists(st.sampled_from([NUM, CAT]), min_size=1, max_size=4))
    target = draw(st.booleans())
    schema = Schema(tuple((f"f{i}", k) for i, k in enumerate(kinds)), "t" if target else None)
    cell = [finite if k is NUM else cell_text for k in kinds] + ([cell_text] if target else [])
    rows = draw(st.lists(st.tuples(*cell), min_size=1, max_size=12))
    return schema, rows


class TestColumnarTable:
    @settings(max_examples=60, deadline=None)
    @given(schemas_and_rows())
    def test_three_construction_paths_agree(self, tmp_path_factory, schema_rows):
        schema, rows = schema_rows
        path = tmp_path_factory.mktemp("t") / "t.csv"
        direct = Table(schema, rows)
        write_csv(direct, path)
        for table in (load_csv(path, schema), columnar(schema, rows)):
            assert table == direct
            assert table.rows == direct.rows
            assert table.numeric_values().tobytes() == direct.numeric_values().tobytes()
            for i in schema.coded_indices:
                assert table.vocabularies[i] == direct.vocabularies[i] == first_appearance(direct, i)
        assert_invariant(direct)

    @settings(max_examples=30, deadline=None)
    @given(schemas_and_rows(), st.integers(0, 2**31), st.integers(1, 3))
    def test_split_and_concat_keep_the_invariant(self, schema_rows, seed, k):
        schema, rows = schema_rows
        table = Table(schema, rows)
        parts = split(table, [1.0 / k] * k, seed=seed)
        for part in parts:
            assert_invariant(part)
        merged = concat(*parts)
        assert_invariant(merged)
        assert sorted(merged.rows) == sorted(table.rows)
        assert concat(table, *parts[::-1]).rows == table.rows + sum((p.rows for p in parts[::-1]), ())

    def test_take_gathers_rows_in_order(self, small_table):
        taken = small_table.take([3, 0, 3])
        assert taken.rows == (small_table.row(3), small_table.row(0), small_table.row(3))
        assert taken.vocabularies[2] == ("green", "red")
        assert_invariant(taken)

    def test_recode_keeps_the_first_vocabulary(self):
        codes, vocabulary = encode(["q", "r", "q", "s"])
        shared_codes, shared = recode(codes, vocabulary, into=("s", "p"))
        assert shared == ("s", "p", "q", "r")
        assert [shared[c] for c in shared_codes] == ["q", "r", "q", "s"]

    def test_single_category_column(self, mixed_schema):
        table = Table(mixed_schema, [(float(i), 0.0, "red", "only", "pos") for i in range(5)])
        assert table.vocabularies[3] == ("only",)
        assert table.category_codes()[:, 1].tolist() == [0] * 5

    def test_all_duplicate_rows(self, mixed_schema):
        row = (1.5, -2.0, "red", "circle", "pos")
        table = Table(mixed_schema, [row] * 7)
        assert table.rows == (row,) * 7
        assert all(table.vocabularies[i] == (row[i],) for i in (2, 3, 4))
        assert_invariant(concat(table, table))

    def test_categorical_only_schema(self, tmp_path):
        schema = Schema(features=(("a", CAT), ("b", CAT)))
        table = Table(schema, [("x", "y"), ("z", "y")])
        assert table.numeric_values().shape == (2, 0)
        write_csv(table, tmp_path / "t.csv")
        assert load_csv(tmp_path / "t.csv", schema) == table
        assert table.categorical_values().tolist() == [["x", "y"], ["z", "y"]]

    def test_numerical_only_schema(self, tmp_path):
        schema = Schema(features=(("a", NUM), ("b", NUM)))
        table = Table(schema, [(1.0, 2.0), (3.0, 4.0)])
        assert table.category_codes().shape == (2, 0)
        assert table.vocabularies == (None, None)
        write_csv(table, tmp_path / "t.csv")
        assert load_csv(tmp_path / "t.csv", schema) == table

    def test_header_only_csv(self, tmp_path, mixed_schema):
        path = tmp_path / "t.csv"
        path.write_text("x,y,color,shape,label\n")
        table = load_csv(path, mixed_schema)
        assert table.n_rows == 0 and table.rows == ()
        assert table.numeric_values().shape == (0, 2)
        assert table.category_codes().shape == (0, 2)
        assert table.vocabularies[4] == ()
        assert table == Table(mixed_schema, [])


class TestFirstBadCell:
    def test_csv_names_the_first_bad_cell_in_schema_order(self, tmp_path, mixed_schema):
        # Row 1 holds two errors: an empty color and an unparsable x. The
        # columns are checked in schema order, so x is named.
        path = tmp_path / "t.csv"
        path.write_text("label,shape,color,y,x\npos,circle,red,4.0,3.0\npos,circle,,4.0,abc\n")
        with pytest.raises(UnparsableNumericError) as err:
            load_csv(path, mixed_schema)
        assert (err.value.row, err.value.column) == (1, "x")

    def test_csv_missing_value_before_bad_number(self, tmp_path, mixed_schema):
        # Here the unparsable y comes first in the file, the empty x first
        # in the schema.
        path = tmp_path / "t.csv"
        path.write_text("y,x,color,shape,label\n2.0,1.0,red,circle,pos\nabc,,red,circle,pos\n")
        with pytest.raises(MissingValueError) as err:
            load_csv(path, mixed_schema)
        assert (err.value.row, err.value.column) == (1, "x")

    def test_rows_name_the_first_bad_cell(self, mixed_schema):
        rows = [(0.0, 0.0, "red", "circle", "pos"), (0.0, "oops", 3, "circle", "pos")]
        with pytest.raises(SchemaMismatchError, match="column 'y'"):
            Table(mixed_schema, rows)
