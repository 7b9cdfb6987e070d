"""One strict reader for every config section.

A section is read through one table {key: (convert, default)}.  A key the
table lacks, or a value `convert` refuses, is a ConfigurationError naming
the section and the key; a missing key takes the default, and a key
without one (default `MISSING`) is required.
A row (convert, default, kinds) with kinds other than None belongs only to
the tables of those values of the section's "kind" key (or of the key that
`read` is given as `by`, at its default when the section omits it), so a
key that its kind never reads is unknown.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields

from .errors import ConfigurationError


def integer(value) -> int:
    """int(value), refusing a number with a fractional part rather than truncating
    it, and refusing a JSON boolean."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def real(value) -> float:
    """float(value) of a finite JSON number, refusing a JSON boolean, NaN and
    an infinity as `integer` does."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def positive_integer(value) -> int:
    """An `integer` of at least 1."""
    if integer(value) < 1:
        raise ValueError(f"{value!r} is not positive")
    return int(value)


def boolean(value) -> bool:
    """A JSON boolean; a string such as "false" or a number is refused."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not a boolean")
    return value


def one_of(*choices):
    """A converter that refuses a value outside `choices`."""
    def convert(value):
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {list(choices)}")
        return value
    return convert


def optional(convert):
    return lambda value: None if value is None else convert(value)


def floats(values) -> tuple:
    return tuple(real(v) for v in values)


def complex_number(value) -> complex:
    """A complex from [re, im] or from a real number."""
    parts = value if isinstance(value, (list, tuple)) else [value]
    return complex(*map(real, parts))


def map_args(values) -> list:
    """Arguments of a closed-form map: each [re, im] pair becomes a complex
    number, any other value a `real`."""
    return [complex_number(v) if isinstance(v, (list, tuple)) else real(v) for v in values]


def rows(table: dict, kind) -> dict:
    """The rows {key: (convert, default)} of `table` that `kind` reads."""
    return {key: row[:2] for key, row in table.items()
            if len(row) == 2 or row[2] is None or kind in row[2]}


def read(section: str, doc, table: dict, by: str = "kind") -> dict:
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{section} must be a JSON object, not {doc!r}")
    table = rows(table, doc.get(by, table[by][1] if by in table else None))
    # a required key first: a missing kind is named, not the keys it would read
    for key, (_, default) in table.items():
        if default is MISSING and key not in doc:
            raise ConfigurationError(f"{section} key {key!r} is required")
    values = {key: default for key, (_, default) in table.items() if default is not MISSING}
    # `by` first: a kind its converter refuses is named before the keys it reads
    for key, value in sorted(doc.items(), key=lambda item: item[0] != by):
        if key not in table:
            raise ConfigurationError(
                f"unknown {section} key {key!r}; expected one of {sorted(table)}")
        try:
            values[key] = table[key][0](value)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigurationError(f"{section} key {key!r}: {exc}") from None
    return values


def setting(convert, default=MISSING, *, factory=MISSING, key=None, kinds=None, dump=None):
    """A dataclass field that is a row of its class's table: JSON name `key`
    (default: the field's), read by `convert`, written by `dump` (default:
    as is), and with `kinds` only in the tables of those values of `kind`."""
    return field(default=default, default_factory=factory,
                 metadata={"convert": convert, "key": key, "kinds": kinds, "dump": dump})


class Section:
    """Base of a config dataclass whose fields are `setting`s: `from_json`
    and `to_json` read and write the one table they declare; a field
    without a default is required by the constructor."""

    def __init_subclass__(cls, section: str):
        cls.section = section

    @classmethod
    def _rows(cls) -> list:
        return [(f.metadata["key"] or f.name, f) for f in fields(cls)]

    @classmethod
    def table(cls) -> dict:
        """The class's table {key: (convert, default, kinds)}."""
        return {key: (f.metadata["convert"],
                      f.default if f.default_factory is MISSING else f.default_factory(),
                      f.metadata["kinds"])
                for key, f in cls._rows()}

    @classmethod
    def from_json(cls, doc: dict):
        values = read(cls.section, doc, cls.table())
        return cls(**{f.name: values[key] for key, f in cls._rows() if key in values})

    def to_json(self) -> dict:
        return {key: (f.metadata["dump"] or (lambda v: v))(getattr(self, f.name))
                for key, f in self._rows()
                if f.metadata["kinds"] is None or self.kind in f.metadata["kinds"]}
