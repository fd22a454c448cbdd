"""Tables of what a JSON input may hold, and the one check that reads them.

A table maps each key of a JSON object to its `Kind`, which holds the
key's default unless the key is required. `check` refuses with a
ConfigError naming the dotted path (`model.train.epochs`) and returns
values as given, so a checked document writes back the same bytes.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, make_dataclass
from datetime import datetime
from typing import Callable

from .errors import ConfigError


def is_int(value) -> bool:
    """True for an integer, NumPy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Kind:
    """One row of a table. A default of ... makes the key required; None also lets it be null."""

    what: str  # as error messages and the README's config reference say it
    test: Callable[[object], bool]  # a ValueError it raises refuses the value too
    default: object = ...
    rows: dict | None = None  # a nested object's table
    item: Kind | None = None  # the kind of each element of a list

    def check(self, value, path: str):
        """`value`, or the filled copy of an object; ConfigError unless it is of this kind."""
        if value is None and self.default is None:
            return None
        try:
            ok = self.test(value)
        except ValueError:
            ok = False
        if not ok:
            raise ConfigError(f"{path or 'document'} must be {self.what}"
                              f"{' or null' * (self.default is None)}, "
                              f"got {type(value).__name__} {reprlib.repr(value)}")
        if self.item is not None:
            return [self.item.check(v, f"{path}[{i}]") for i, v in enumerate(value)]
        if self.rows is None:
            return value
        missing = sorted(k for k, kind in self.rows.items()
                         if kind.default is ... and k not in value)
        unknown = sorted(set(value) - set(self.rows))
        if missing or unknown:
            raise ConfigError(f"{path + ' ' if path else ''}keys missing {missing}, "
                              f"unknown {unknown}")
        return {key: kind.check(value.get(key, kind.default), f"{path}.{key}" if path else key)
                for key, kind in self.rows.items()}


def check(doc, table: dict, path: str = "") -> dict:
    """The copy of the JSON object `doc` with the defaults of `table` filled in."""
    return Table(table).check(doc, path)


def record(name: str, *tables: dict, **rows: Kind) -> type:
    """A dataclass of the caller's module with one field per row of `tables`,
    then of `rows`; a later row of a key replaces the earlier one in place.
    Each field takes its row's default, and one of ... makes it required:
    required fields come first, in row order. Building one checks each field
    in that order and stores what its row's check returns: the value as
    given, or an object row's filled copy."""
    table = {key: kind for t in (*tables, rows) for key, kind in t.items()}
    ordered = sorted(table.items(), key=lambda row: row[1].default is not ...)

    def __post_init__(self):
        for key, kind in ordered:
            setattr(self, key, kind.check(getattr(self, key), key))
    return make_dataclass(name, [(k, object) if kind.default is ... else (k, object, kind.default)
                                 for k, kind in ordered],
                          namespace={"__post_init__": __post_init__,
                                     "__module__": sys._getframe(1).f_globals["__name__"]})


def Int(lo: int, default=...) -> Kind:
    return Kind(f"an integer >= {lo}", lambda v: is_int(v) and v >= lo, default)


def Real(gt=-math.inf, ge=-math.inf, lt=math.inf, default=...) -> Kind:
    bounds = [f" {op} {b}" for op, b in ((">", gt), (">=", ge), ("<", lt)) if math.isfinite(b)]
    return Kind("a finite real" + " and".join(bounds), lambda v: (
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
        and gt < v < lt and v >= ge), default)


def OneOf(choices: tuple, default=...) -> Kind:
    return Kind(f"one of {list(choices)}", lambda v: isinstance(v, str) and v in choices, default)


def Bool(default=...) -> Kind:
    return Kind("true or false", lambda v: isinstance(v, bool), default)


DATETIME = Kind("an ISO datetime string",
                lambda v: isinstance(v, str) and bool(datetime.fromisoformat(v)))


def Table(rows: dict | None, null: bool = False) -> Kind:
    """A nested object (any, for rows None); absent and not null, it is checked as {}."""
    return Kind("an object", lambda v: isinstance(v, dict), None if null else {}, rows)


def Seq(item: Kind, what: str, length: int | None = None) -> Kind:
    return Kind(what, lambda v: isinstance(v, list) and length in (None, len(v))
                and all(map(item.test, v)), item=item)
