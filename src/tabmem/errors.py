"""Exception hierarchy shared by all tabmem modules."""


class TabmemError(Exception):
    """Base class for all data and contract errors raised by tabmem."""


class MissingColumnError(TabmemError):
    """CSV header and schema do not describe the same column set."""


class UnparsableNumericError(TabmemError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"row {row}, column {column!r}: cannot parse {value!r} as a finite number")
        self.row = row
        self.column = column
        self.value = value


class MissingValueError(TabmemError):
    def __init__(self, row: int, column: str):
        super().__init__(f"row {row}, column {column!r}: empty cell (missing values are not imputed)")
        self.row = row
        self.column = column


class EmptyTableError(TabmemError):
    """An operation received a table with no rows."""


class BadFractionsError(TabmemError):
    """Split fractions are not positive or do not sum to 1."""


class SchemaMismatchError(TabmemError):
    """Rows or tables do not conform to the expected schema."""


class TrainTooSmallError(TabmemError):
    """Nearest-neighbor search needs at least two training rows."""


class EmptyRatiosError(TabmemError):
    """A memorization statistic was asked for an empty ratio list."""


class LengthMismatchError(TabmemError):
    """Paired columns have different lengths."""


class EmptyColumnError(TabmemError):
    """A column-level metric received an empty column."""


class NoTargetError(TabmemError):
    """The operation needs a class-label column but the schema declares none."""


class ClassTooSmallError(TabmemError):
    def __init__(self, label: str, count: int):
        super().__init__(f"class {label!r} has {count} row(s); pair sampling needs at least 2")
        self.label = label
        self.count = count


class TooFewRowsError(TabmemError):
    """A metric received fewer rows than its minimum."""


class BadTimeError(TabmemError):
    """Diffusion time outside the schedule horizon [0, T]."""


class ZeroSigmaError(TabmemError):
    """The optimal score is undefined where the noise level is zero."""


class NonFiniteValueError(TabmemError):
    """A result meant for a JSON report is NaN or infinite."""


class MalformedFileError(TabmemError):
    """An input file cannot be read as its format: a schema that is not JSON,
    or a CSV that is not UTF-8 or that the csv module rejects."""
