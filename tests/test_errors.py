"""Every riskminer error survives pickling, as it must to come back from an
elimination worker process: the same type, message and attributes."""

from __future__ import annotations

import pickle

from riskminer import errors

EXAMPLES = [
    errors.RiskminerError("base"),
    errors.ConfigError("bad config"),
    errors.DataError("bad data"),
    errors.StageError("eliminate", errors.SingleClassError("gradient boosting")),
    errors.StageError("load", OSError("disk gone")),
    errors.MissingColumnError("label"),
    errors.HeaderMismatchError("header has an extra column"),
    errors.IllegalValueError(3, "weak-password", 7),
    errors.RaggedRowError(4, 27, 25),
    errors.RatioSumError((0.5, 0.5, 0.5)),
    errors.EmptyClassError(1),
    errors.PoolTooSmallError(5, 2),
    errors.ClassTooSmallError(0, 3, 5),
    errors.TargetBelowCurrentError(1, 10, 20),
    errors.UnknownFeatureError("no-such-feature"),
    errors.DegenerateTableError("one column left"),
    errors.EmptyNodeError("no counts"),
    errors.SingleClassError("gradient boosting"),
    errors.FeatureMismatchError(3, 4),
    errors.UnmappedFeatureError("weak-password"),
    errors.ZeroAntecedentSupportError(),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _same(a, b) -> bool:
    if isinstance(a, BaseException):
        return type(a) is type(b) and a.args == b.args and _same(vars(a), vars(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def test_the_examples_cover_every_error_type():
    covered = {type(e) for e in EXAMPLES}
    assert {errors.RiskminerError, *_subclasses(errors.RiskminerError)} <= covered


def test_every_error_round_trips_through_pickle():
    for error in EXAMPLES:
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error)
        assert _same(back, error), error


def test_an_unpickled_error_is_still_raisable_and_caught_by_its_base():
    back = pickle.loads(pickle.dumps(errors.IllegalValueError(3, "weak-password", 7)))
    try:
        raise back
    except errors.DataError as exc:
        assert (exc.row, exc.column, exc.value) == (3, "weak-password", 7)
