"""One strict reader for every config section.

A section is read through one table {key: (convert, default)}.  A key the
table lacks, or a value `convert` refuses, is a ConfigurationError naming
the section and the key; a missing key takes the default, if it has one.
A row (convert, default, kinds) with kinds other than None belongs only to
the tables of those values of the section's "kind" key, so a key that its
kind never reads is unknown.
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields

from .errors import ConfigurationError


def integer(value) -> int:
    """int(value), refusing a number with a fractional part rather than truncating it."""
    if int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def optional(convert):
    return lambda value: None if value is None else convert(value)


def floats(values) -> tuple:
    return tuple(float(v) for v in values)


def complex_number(value) -> complex:
    """A complex from [re, im] or from a real number."""
    return complex(*value) if isinstance(value, (list, tuple)) else complex(value)


def read(section: str, doc, table: dict) -> dict:
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{section} must be a JSON object, not {doc!r}")
    kind = doc.get("kind")
    table = {key: row[:2] for key, row in table.items()
             if len(row) == 2 or row[2] is None or kind in row[2]}
    values = {key: default for key, (_, default) in table.items() if default is not MISSING}
    for key, value in doc.items():
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
    def from_json(cls, doc: dict):
        rows = cls._rows()
        values = read(cls.section, doc, {
            key: (f.metadata["convert"],
                  f.default if f.default_factory is MISSING else f.default_factory(),
                  f.metadata["kinds"])
            for key, f in rows})
        return cls(**{f.name: values[key] for key, f in rows if key in values})

    def to_json(self) -> dict:
        return {key: (f.metadata["dump"] or (lambda v: v))(getattr(self, f.name))
                for key, f in self._rows()
                if f.metadata["kinds"] is None or self.kind in f.metadata["kinds"]}
