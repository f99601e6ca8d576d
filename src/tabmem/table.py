"""Mixed-type tabular data model with CSV ingestion, emission, and splitting.

A schema declares an ordered list of features, each numerical or categorical,
plus an optional class-label column. The label rides along as an extra
trailing column of every row; it is never one of the distance-bearing
features.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadFractionsError,
    EmptyTableError,
    MalformedFileError,
    MissingColumnError,
    MissingValueError,
    SchemaMismatchError,
    UnparsableNumericError,
)

Cell = float | str
Row = tuple[Cell, ...]


class FeatureKind(Enum):
    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Schema:
    """Ordered feature declarations plus an optional class-label column.

    ``features`` holds the distance-bearing columns only. ``target``, when
    set, names one extra categorical column appended after the features in
    every row and in CSV files.
    """

    features: tuple[tuple[str, FeatureKind], ...]
    target: str | None = None

    def __post_init__(self):
        names = [name for name, _ in self.features]
        if not names:
            raise SchemaMismatchError("schema needs at least one feature")
        all_names = names + ([self.target] if self.target is not None else [])
        if any(not isinstance(n, str) or not n for n in all_names):
            raise SchemaMismatchError(f"column names must be non-empty strings: {all_names}")
        if len(set(all_names)) != len(all_names):
            raise SchemaMismatchError(f"duplicate column names in schema: {all_names}")

    @property
    def feature_names(self) -> list[str]:
        return [name for name, _ in self.features]

    @property
    def column_names(self) -> list[str]:
        """Feature names followed by the target name when present."""
        cols = self.feature_names
        if self.target is not None:
            cols = cols + [self.target]
        return cols

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def numerical_indices(self) -> list[int]:
        return [i for i, (_, k) in enumerate(self.features) if k is FeatureKind.NUMERICAL]

    @property
    def categorical_indices(self) -> list[int]:
        return [i for i, (_, k) in enumerate(self.features) if k is FeatureKind.CATEGORICAL]

    @property
    def coded_indices(self) -> list[int]:
        """Columns a table stores as category codes: categorical features, then the target."""
        return self.categorical_indices + ([self.n_features] if self.target is not None else [])

    def row_width(self) -> int:
        return self.n_features + (1 if self.target is not None else 0)

    def to_dict(self) -> dict:
        return {
            "features": [{"name": n, "kind": k.value} for n, k in self.features],
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Schema":
        try:
            features = tuple(
                (f["name"], FeatureKind(f["kind"])) for f in obj["features"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaMismatchError(f"malformed schema object: {exc}") from exc
        return cls(features=features, target=obj.get("target"))


def load_schema(path: str | Path) -> Schema:
    """Read a schema from its JSON file format."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFileError(f"{path}: not a JSON schema file ({exc})") from None
    return Schema.from_dict(obj)


def save_schema(schema: Schema, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema.to_dict(), fh, indent=2)
        fh.write("\n")


def _check_cell(value: Cell, kind: FeatureKind, column: str) -> Cell:
    if kind is FeatureKind.NUMERICAL:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaMismatchError(f"column {column!r} expects a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise SchemaMismatchError(f"column {column!r} holds non-finite value {value!r}")
        return value
    if not isinstance(value, str):
        raise SchemaMismatchError(f"column {column!r} expects a category, got {value!r}")
    return value


def encode(values: Iterable[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of ``values`` and their vocabulary in first-appearance order; the
    one place where category strings become codes."""
    index: dict[str, int] = {}
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values), dtype=np.int32)
    return codes, tuple(index)


def recode(
    codes: np.ndarray, vocabulary: Sequence[str], into: Sequence[str]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """``codes`` over ``vocabulary`` re-expressed in a vocabulary shared with ``into``.

    The shared vocabulary is ``into``, then the categories of ``vocabulary``
    that ``into`` lacks, in their order; codes over ``into`` stay valid.
    """
    shared_codes, shared = encode([*into, *vocabulary])
    return shared_codes[len(into):][codes], shared


def _first_appearance(codes: np.ndarray, vocabulary: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes renumbered so the vocabulary lists the categories present in first-appearance order."""
    present, first = np.unique(codes, return_index=True)
    order = present[np.argsort(first)]
    renumber = np.zeros(len(vocabulary), dtype=np.int32)
    renumber[order] = np.arange(order.size)
    return renumber[codes], tuple(vocabulary[k] for k in order)


def _encode_cells(schema: Schema, cells: list[list[Cell]]) -> tuple[list, list]:
    """Columns and vocabularies (None for numerical columns) of checked cells."""
    coded = set(schema.coded_indices)
    pairs = [encode(c) if i in coded else (c, None) for i, c in enumerate(cells)]  # type: ignore[arg-type]
    return [c for c, _ in pairs], [v for _, v in pairs]


class Table:
    """Immutable mixed-type table stored by column.

    Numerical columns hold float64 values. Categorical columns and the label
    hold int32 codes into vocabularies that list exactly the categories
    present, in the order they first appear; class, category and one-hot
    orders all follow from that. Row tuples are built only when asked for.
    """

    def __init__(self, schema: Schema, rows: Iterable[Sequence[Cell]]):
        width = schema.row_width()
        kinds = [kind for _, kind in schema.features] + [FeatureKind.CATEGORICAL]
        checks = list(zip(kinds, schema.column_names))
        cells: list[list[Cell]] = [[] for _ in checks]
        for r, row in enumerate(rows):
            if len(row) != width:
                raise SchemaMismatchError(
                    f"row {r} has {len(row)} cells, schema expects {width}"
                )
            for column, value, (kind, name) in zip(cells, row, checks):
                column.append(_check_cell(value, kind, name))
        self._set(schema, *_encode_cells(schema, cells))

    @classmethod
    def from_columns(cls, schema: Schema, columns: Sequence, vocabularies: Sequence) -> "Table":
        """A table from one array per schema column, trusted as given (no cell
        is checked): finite numbers with vocabulary None, or integer codes into
        a vocabulary that may list unused categories in any order."""
        table = cls.__new__(cls)
        table._set(schema, columns, vocabularies)
        return table

    def _set(self, schema: Schema, columns: Sequence, vocabularies: Sequence) -> None:
        self.schema = schema
        self._columns: list[np.ndarray] = []
        self._vocabularies: list[tuple[str, ...] | None] = []
        for column, vocabulary in zip(columns, vocabularies):
            if vocabulary is None:
                column = np.array(column, dtype=np.float64)
            else:
                column, vocabulary = _first_appearance(np.asarray(column, dtype=np.intp), vocabulary)
            column.setflags(write=False)
            self._columns.append(column)
            self._vocabularies.append(vocabulary)
        self._numeric: np.ndarray | None = None
        self._rows: tuple[Row, ...] | None = None

    @property
    def n_rows(self) -> int:
        return self._columns[0].size

    @property
    def rows(self) -> tuple[Row, ...]:
        if self._rows is None:
            self._rows = tuple(zip(*(
                column.tolist() if vocabulary is None else np.array(vocabulary, dtype=object)[column].tolist()
                for column, vocabulary in zip(self._columns, self._vocabularies)
            )))
        return self._rows

    def row(self, i: int) -> Row:
        return self.rows[i]

    def take(self, indices: Sequence[int] | np.ndarray) -> "Table":
        """The rows at ``indices``, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        return Table.from_columns(self.schema, [c[idx] for c in self._columns], self.vocabularies)

    def column(self, index: int) -> np.ndarray:
        """Schema column ``index`` (the label is ``n_features``), read-only:
        float64 values, or int32 codes into ``vocabularies[index]``."""
        return self._columns[index]

    @property
    def vocabularies(self) -> tuple[tuple[str, ...] | None, ...]:
        """Per schema column, its categories in first-appearance order (None if numerical)."""
        return tuple(self._vocabularies)

    def numeric_values(self) -> np.ndarray:
        """(n_rows, |numerical features|) float64 view, read-only."""
        if self._numeric is None:
            idx = self.schema.numerical_indices
            block = np.array([self._columns[i] for i in idx]).reshape(len(idx), self.n_rows)
            self._numeric = np.ascontiguousarray(block.T)
            self._numeric.setflags(write=False)
        return self._numeric

    def category_codes(self) -> np.ndarray:
        """(n_rows, |categorical features|) int32 codes; see ``vocabularies``."""
        idx = self.schema.categorical_indices
        return np.array([self._columns[i] for i in idx], dtype=np.int32).reshape(len(idx), self.n_rows).T

    def categorical_values(self) -> np.ndarray:
        """(n_rows, |categorical features|) object array of category strings."""
        cells = np.array(self.rows, dtype=object).reshape(self.n_rows, self.schema.row_width())
        return cells[:, self.schema.categorical_indices]

    def target_values(self) -> list[str]:
        if self.schema.target is None:
            raise SchemaMismatchError("table has no target column")
        return [row[-1] for row in self.rows]  # type: ignore[misc]

    def feature_column(self, index: int) -> list[Cell]:
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return self.n_rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        # First-appearance vocabularies make equal cells equal codes.
        return (
            self.schema == other.schema
            and self._vocabularies == other._vocabularies
            and all(map(np.array_equal, self._columns, other._columns))
        )

    def __repr__(self) -> str:
        return f"Table({self.n_rows} rows x {self.schema.row_width()} columns)"


def load_csv(path: str | Path, schema: Schema) -> Table:
    """Load a header-first CSV whose columns are a permutation of the schema's.

    Numerical cells must parse as finite decimal reals; categorical cells are
    taken verbatim (case-sensitive). Empty cells are rejected.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _parse_csv(fh, path, schema)
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise MalformedFileError(f"{path}: malformed CSV ({exc})") from None


def _parse_csv(fh, path: str | Path, schema: Schema) -> Table:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumnError(f"{path}: empty file, expected a header row") from None
    expected = schema.column_names
    if sorted(header) != sorted(expected):
        missing = set(expected) - set(header)
        extra = set(header) - set(expected)
        raise MissingColumnError(
            f"{path}: header mismatch (missing from CSV: {sorted(missing)}, "
            f"not in schema: {sorted(extra)})"
        )
    numerical = set(schema.numerical_indices)
    cells: list[list[Cell]] = [[] for _ in expected]
    plan = [
        (header.index(name), dest in numerical, name, cells[dest])
        for dest, name in enumerate(expected)
    ]
    for r, raw in enumerate(reader):
        if len(raw) != len(header):
            raise SchemaMismatchError(f"{path}: row {r} has {len(raw)} cells, header has {len(header)}")
        for src, is_numeric, name, column in plan:
            text = raw[src]
            if text == "":
                raise MissingValueError(r, name)
            if is_numeric:
                try:
                    value = float(text)
                except ValueError:
                    raise UnparsableNumericError(r, name, text) from None
                if not math.isfinite(value):
                    raise UnparsableNumericError(r, name, text)
                column.append(value)
            else:
                column.append(text)
    return Table.from_columns(schema, *_encode_cells(schema, cells))


def write_csv(table: Table, path: str | Path) -> None:
    """Emit a table as UTF-8 CSV (RFC-4180 quoting) that round-trips exactly.

    Floats are serialized with ``repr``, the shortest digit string that
    parses back to the identical double.
    """
    if table.n_rows == 0:
        raise EmptyTableError("refusing to write a table with no rows")
    # Cells are formatted row by row, so no column of strings is held at once.
    columns = [
        map(repr, map(float, column)) if vocabulary is None else np.array(vocabulary, dtype=object)[column]
        for column, vocabulary in zip(table._columns, table._vocabularies)
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.schema.column_names)
        writer.writerows(zip(*columns))


def split(table: Table, fractions: Sequence[float], seed: int) -> list[Table]:
    """Partition rows by shuffled index into len(fractions) disjoint tables.

    Sizes are floor-allocated with the remainder going to the first part;
    the shuffle is deterministic for a fixed seed.
    """
    if table.n_rows == 0:
        raise EmptyTableError("cannot split an empty table")
    if not fractions or any(f <= 0 for f in fractions):
        raise BadFractionsError(f"fractions must be positive, got {list(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise BadFractionsError(f"fractions sum to {sum(fractions)!r}, expected 1")

    n = table.n_rows
    sizes = [int(n * f) for f in fractions]
    sizes[0] += n - sum(sizes)
    perm = np.random.default_rng(seed).permutation(n)
    parts: list[Table] = []
    start = 0
    for size in sizes:
        parts.append(table.take(perm[start:start + size]))
        start += size
    return parts


def concat(first: Table, *rest: Table) -> Table:
    """Stack tables sharing a schema, preserving row order."""
    if any(other.schema != first.schema for other in rest):
        raise SchemaMismatchError("cannot concatenate tables with different schemas")
    columns, vocabularies = [], []
    for i, vocabulary in enumerate(first.vocabularies):
        parts = [first.column(i)]
        for other in rest:
            if vocabulary is None:
                parts.append(other.column(i))
            else:
                codes, vocabulary = recode(other.column(i), other.vocabularies[i], vocabulary)
                parts.append(codes)
        columns.append(np.concatenate(parts))
        vocabularies.append(vocabulary)
    return Table.from_columns(first.schema, columns, vocabularies)
