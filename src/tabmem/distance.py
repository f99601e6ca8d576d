"""Mixed numerical/categorical sample distance and exact nearest-neighbor search.

The distance between two rows is the max-min-normalized Euclidean distance
over numerical features plus the count of differing categorical features,
divided by the total feature count. The normalizer is fitted over a declared
pair population (for an audit: all generated x train pairs) and clamps
out-of-range values into [0, 1]. Categories are compared as integer codes,
with the train table's codes recoded into a vocabulary shared with the
generated table (``table.recode``), so equal codes mean equal strings.

Every batched function here runs one kernel over blocks of query rows, and
its results are bit-for-bit fixed by this contract:

- squared numerical differences are summed in column order, one column at
  a time, then square-rooted and normalized;
- categorical mismatch counts are added to the normalized numerical part
  only after normalization, then the sum is divided by the feature count;
- the normalizer is fitted on squared distances, and only its two extremes
  are square-rooted (exact, because a correctly rounded sqrt is monotone);
- when the largest numerical magnitude could overflow a squared distance,
  all numerical values are first scaled by one shared power of two, which
  leaves every normalized distance unchanged.

Block size and thread count change no result. With up to 7 numerical
features this order is also that of numpy's ``sum`` over a broadcast
difference tensor; from 8 features on, numpy sums in a different order and
the two agree to within the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import EmptyTableError, SchemaMismatchError, TrainTooSmallError
from .parallel import map_blocks
from .table import Cell, Schema, Table, recode

T = TypeVar("T")

# Query rows are processed in blocks whose (block, n_train) distance buffers
# hold about this many entries (512 KiB), small enough to stay in a core's
# cache; any block size gives identical results.
_BLOCK_CELLS = 1 << 16

# Squared distances are kept below this bound; see _prescale.
_SQUARE_LIMIT = np.finfo(np.float64).max / 2


@dataclass(frozen=True)
class DistanceNormalizer:
    """Fitted min/max of raw numerical pair distances; maps into [0, 1]."""

    d_min: float
    d_max: float

    def __post_init__(self):
        if not (0.0 <= self.d_min <= self.d_max):
            raise ValueError(f"need 0 <= d_min <= d_max, got ({self.d_min}, {self.d_max})")

    @property
    def degenerate(self) -> bool:
        return self.d_max == self.d_min

    def normalize(self, raw: float) -> float:
        if self.degenerate:
            return 0.0
        scaled = (raw - self.d_min) / (self.d_max - self.d_min)
        return min(max(scaled, 0.0), 1.0)

    def normalize_array(self, raw: np.ndarray) -> np.ndarray:
        if self.degenerate:
            return np.zeros_like(raw)
        return np.clip((raw - self.d_min) / (self.d_max - self.d_min), 0.0, 1.0)


@dataclass(frozen=True)
class NeighborResult:
    """Indices and mixed distances of a query row's two nearest train rows."""

    nn1_index: int
    nn1_distance: float
    nn2_index: int
    nn2_distance: float


def _split_pair(a: Sequence[Cell], b: Sequence[Cell], schema: Schema) -> tuple[np.ndarray, int]:
    """Numerical differences and the count of differing categories of two rows,
    checked as ``Table`` checks every row."""
    pair = Table(schema, [a, b])
    numeric, codes = pair.numeric_values(), pair.category_codes()
    return numeric[0] - numeric[1], int(np.count_nonzero(codes[0] != codes[1]))


def raw_numeric_distance(a: Sequence[Cell], b: Sequence[Cell], schema: Schema) -> float:
    """Euclidean distance over numerical features, in original units."""
    diff, _ = _split_pair(a, b, schema)
    return float(np.sqrt(np.sum(diff ** 2))) if diff.size else 0.0


def mixed_distance(
    a: Sequence[Cell],
    b: Sequence[Cell],
    schema: Schema,
    norm: DistanceNormalizer,
) -> float:
    """Per-pair mixed distance: (normalized numeric + differing categories) / M."""
    diff, hamming = _split_pair(a, b, schema)
    numeric_part = norm.normalize(float(np.sqrt(np.sum(diff ** 2)))) if diff.size else 0.0
    return (numeric_part + hamming) / schema.n_features


def _check_pair(generated: Table, train: Table) -> None:
    if generated.schema != train.schema:
        raise SchemaMismatchError("generated and train tables must share a schema")
    if generated.n_rows == 0 or train.n_rows == 0:
        raise EmptyTableError("both tables need at least one row")


def _prescale(*numeric: np.ndarray) -> float:
    """Power of two, shared by all numerical columns, that keeps squares finite.

    It is 1.0 unless the largest magnitude could overflow a squared
    distance. Scaling every value by one power of two is exact (barring
    underflow), so normalized distances do not change.
    """
    width = numeric[0].shape[1]
    peak = max((float(np.abs(x).max()) for x in numeric if x.size), default=0.0)
    # Each |a - b| is at most 2 * peak, so a squared distance is at most 4 d peak^2.
    if 4.0 * width * peak * peak <= _SQUARE_LIMIT:
        return 1.0
    return math.ldexp(1.0, -math.frexp(peak)[1])


class _Kernel:
    """Distances from blocks of generated rows to all train rows.

    Each block is built one feature column at a time into (block, n_train)
    buffers; no (block, n_train, features) tensor is ever formed.
    """

    def __init__(self, generated: Table, train: Table, categorical: bool = True):
        _check_pair(generated, train)
        query = generated.numeric_values()
        ref = train.numeric_values()
        self.scale = _prescale(query, ref)
        if self.scale != 1.0:
            query, ref = query * self.scale, ref * self.scale
        self.query = query
        self.ref_t = np.ascontiguousarray(ref.T)
        self.n_query = generated.n_rows
        self.n_ref = train.n_rows
        self.n_features = generated.schema.n_features
        if categorical:
            self.query_codes = generated.category_codes()
            self.ref_codes_t = np.array(
                [recode(train.column(i), train.vocabularies[i], generated.vocabularies[i])[0]
                 for i in generated.schema.categorical_indices],
                dtype=np.int32,
            ).reshape(-1, self.n_ref)

    def squared(self, lo: int, hi: int) -> np.ndarray:
        """Squared numerical distances, summed in column order."""
        query = self.query[lo:hi]
        if query.shape[1] == 0:
            return np.zeros((hi - lo, self.n_ref))
        # The first column is written, not added to zeros: 0.0 + x == x for x >= 0.
        out = np.subtract(query[:, 0, None], self.ref_t[0])
        np.multiply(out, out, out=out)
        step = np.empty_like(out)
        for j in range(1, query.shape[1]):
            np.subtract(query[:, j, None], self.ref_t[j], out=step)
            out += np.multiply(step, step, out=step)
        return out

    def mixed(self, lo: int, hi: int, norm: DistanceNormalizer) -> np.ndarray:
        """Mixed distances under ``norm``, given in this kernel's scaled units."""
        dist = norm.normalize_array(np.sqrt(self.squared(lo, hi)))
        n_cat = self.query_codes.shape[1]
        if n_cat:
            # Exact integer counts, added only after normalization so the
            # numerical part is rounded exactly as on its own.
            counts = np.zeros(dist.shape, dtype=np.min_scalar_type(n_cat))
            differ = np.empty(dist.shape, dtype=bool)
            codes = self.query_codes[lo:hi]
            for j in range(n_cat):
                counts += np.not_equal(codes[:, j, None], self.ref_codes_t[j], out=differ)
            dist += counts
        dist /= self.n_features
        return dist

    def map(self, fn: Callable[[int, int], T], threads: int) -> list[T]:
        return map_blocks(fn, self.n_query, max(1, _BLOCK_CELLS // self.n_ref), threads)


def fit_normalizer(generated: Table, train: Table, threads: int = 1) -> DistanceNormalizer:
    """Fit min/max of raw numerical distances over all generated x train pairs."""
    kernel = _Kernel(generated, train, categorical=False)
    if kernel.query.shape[1] == 0:
        return DistanceNormalizer(0.0, 0.0)

    def min_max(lo: int, hi: int) -> tuple[float, float]:
        block = kernel.squared(lo, hi)
        return float(block.min()), float(block.max())

    extremes = kernel.map(min_max, threads)
    lo_sq = min(lo for lo, _ in extremes)
    hi_sq = max(hi for _, hi in extremes)
    return DistanceNormalizer(
        math.sqrt(lo_sq) / kernel.scale, math.sqrt(hi_sq) / kernel.scale
    )


def reduce_mixed(
    generated: Table,
    train: Table,
    norm: DistanceNormalizer,
    reduce: Callable[[np.ndarray], T],
    threads: int = 1,
) -> list[T]:
    """``reduce`` applied to each (block, n_train) mixed-distance block, in row order.

    ``reduce`` may modify the block it is given.
    """
    kernel = _Kernel(generated, train)
    if kernel.scale != 1.0:
        norm = DistanceNormalizer(norm.d_min * kernel.scale, norm.d_max * kernel.scale)
    return kernel.map(lambda lo, hi: reduce(kernel.mixed(lo, hi, norm)), threads)


def pairwise_mixed(
    generated: Table,
    train: Table,
    norm: DistanceNormalizer,
    threads: int = 1,
) -> np.ndarray:
    """Full (n_generated, n_train) mixed-distance matrix."""
    return np.vstack(reduce_mixed(generated, train, norm, lambda block: block, threads))


def _two_smallest(dist: np.ndarray) -> np.ndarray:
    # argmin returns the first minimum, which is the lowest-index tie.
    rows = np.arange(dist.shape[0])
    first = np.argmin(dist, axis=1)
    d1 = dist[rows, first]
    dist[rows, first] = np.inf
    second = np.argmin(dist, axis=1)
    d2 = dist[rows, second]
    return np.column_stack([first, d1, second, d2])


def two_nearest(
    generated: Table,
    train: Table,
    norm: DistanceNormalizer,
    threads: int = 1,
) -> list[NeighborResult]:
    """Two smallest mixed distances per generated row, ties to the lower index."""
    _check_pair(generated, train)
    if train.n_rows < 2:
        raise TrainTooSmallError(f"need >= 2 train rows, got {train.n_rows}")
    packed = np.vstack(reduce_mixed(generated, train, norm, _two_smallest, threads))
    return [
        NeighborResult(int(i1), float(d1), int(i2), float(d2))
        for i1, d1, i2, d2 in packed
    ]
