"""Exception types raised across the riskminer package, and shared value checks."""

import numbers
import sys

import numpy as np


class RiskminerError(Exception):
    """Base class for all riskminer errors.

    An error pickles as its message arguments and attributes, not as the
    arguments of its constructor, so that it comes back from a worker
    process as it was raised.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls, args, state):
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class ConfigError(RiskminerError):
    """Invalid configuration (bad ratios, unknown learner, malformed config file)."""


class DataError(RiskminerError):
    """Invalid input data (CSV contract violations, domain violations)."""


class StageError(RiskminerError):
    """A pipeline stage failed; carries the stage name and the original cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


# -- data-model ----------------------------------------------------------

class MissingColumnError(DataError):
    def __init__(self, column: str):
        super().__init__(f"missing column: {column!r}")
        self.column = column


class HeaderMismatchError(DataError):
    """Header present but does not match schema order / has extras."""


class IllegalValueError(DataError):
    def __init__(self, row: int, column: str, value):
        super().__init__(f"illegal value {value!r} for column {column!r} on data row {row}")
        self.row = row
        self.column = column
        self.value = value


class RaggedRowError(DataError):
    def __init__(self, row: int, expected: int, got: int):
        super().__init__(f"data row {row} has {got} cells, expected {expected}")
        self.row = row


class RatioSumError(ConfigError):
    def __init__(self, ratios):
        super().__init__(f"split ratios must be positive and sum to 1, got {ratios}")


class EmptyClassError(DataError):
    def __init__(self, label: int):
        super().__init__(f"stratified split requires every class present; class {label} is empty")
        self.label = label


# -- augmentation --------------------------------------------------------

class PoolTooSmallError(DataError):
    def __init__(self, k: int, pool: int):
        super().__init__(f"need k={k} neighbours but the eligible pool has {pool} records")


class ClassTooSmallError(DataError):
    def __init__(self, label: int, size: int, k: int):
        super().__init__(f"class {label} has {size} records; growing it requires at least k+1={k + 1}")
        self.label = label


class TargetBelowCurrentError(ConfigError):
    def __init__(self, label: int, target: int, current: int):
        super().__init__(f"target {target} for class {label} is below its current count {current}")


# -- feature analysis ----------------------------------------------------

class UnknownFeatureError(DataError):
    def __init__(self, name: str):
        super().__init__(f"unknown feature: {name!r}")
        self.name = name


class DegenerateTableError(DataError):
    """Dropping empty rows/columns left fewer than 2 rows or 2 columns."""


# -- classifiers ---------------------------------------------------------

class EmptyNodeError(RiskminerError):
    """Impurity requested for an empty class-count vector."""


class SingleClassError(DataError):
    def __init__(self, kind: str):
        super().__init__(f"{kind} requires both classes in the training data")


class FeatureMismatchError(RiskminerError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"model was fit on {expected} features, record has {got}")


def check_ints(least: int | None = 1, **values) -> None:
    """Refuse each of *values* that is not an integer >= *least*, or with
    *least* None not an integer (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or least is not None and value < least:
            raise ConfigError(f"{name} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")


def check_numbers(positive: bool = True, **values) -> None:
    """Refuse each of *values* that is not a finite float (a bool is not, nor
    an integer too large for a float), or, when *positive*, not above 0."""
    largest = sys.float_info.max
    for name, value in values.items():
        if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not -largest <= value <= largest
                or positive and value <= 0):
            raise ConfigError(f"{name} must be a {'positive ' * positive}finite number, got {value!r}")


def check_shape(name: str, value, shape: tuple) -> np.ndarray:
    """*value* as a finite float array of *shape* (None matches any length,
    and ``()`` is one number), or ValueError."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim != len(shape) or any(want not in (None, got) for got, want in zip(array.shape, shape)):
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a value that is not finite")
    return array


def check_flag(name: str, value) -> bool:
    """*value* if it is a bool (a JSON true or false), or ValueError."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


# -- rule mining ---------------------------------------------------------

class UnmappedFeatureError(DataError):
    def __init__(self, name: str):
        super().__init__(f"record does not cover mapped feature {name!r}")


class ZeroAntecedentSupportError(DataError):
    def __init__(self):
        super().__init__("rule antecedent occurs in no transaction")
