"""Text output for metric reports and fixture tables.

Formatting is family-driven: percent and pixel values print with two decimal
places, edit distances with three. Reports hold percent metrics as fractions
and are scaled by 100 here; fixture tables already store percent points and
are printed as-is. Missing cells render as "-". Plain output is deterministic
down to the byte so it can serve as a comparison target.

``json_text`` is the one JSON writer, for these reports and for every file
``fileio`` saves. Writers that render many records of one shape take their
layout from here too: ``json_template`` gives the text of a value with a
``%s`` for each ``SLOT`` in it, ``json_list`` the text of a list from its
items' texts, and ``json_texts`` the text of each item of a list.
"""

from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Sequence

from .fixtures import SPLITS, FixtureTable
from .metrics import MetricReport

OUTPUT_FORMATS = ("plain", "csv", "json")

_DECIMALS = {"percent": 2, "pixels": 2, "edit": 3}

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# Text of the exact scalar types; subclasses (numpy floats, IntEnum, str
# subclasses) take the isinstance branches of _emit, as they do in json.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


class _Slot:
    """The type of ``SLOT``."""


# A value that json_template writes as %s. Its text here is a NUL, which
# json_text writes nowhere else: strings escape their control characters.
SLOT = _Slot()
_SCALAR_TEXT[_Slot] = lambda _: "\0"


def _key_text(key: Any) -> str:
    # json's key coercion, in its order of checks.
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _flat_texts(values: Sequence[Any]) -> list[str] | None:
    """The text of each item of a sequence of plain floats, plain ints or
    plain strings; None for any other sequence."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        texts = list(map(float.__repr__, values))
        return texts if all(map(math.isfinite, values)) else [_NON_FINITE.get(t, t) for t in texts]
    if kind is int or kind is str:
        return list(map(_SCALAR_TEXT[kind], values))
    return None


def _emit(value: Any, out: list[str], indent: str) -> None:
    # Appends the text of one value; indent is the newline and spaces that
    # start a line at the value's own nesting level.
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                out.append(sep)
                _emit(item, out, inner)
            else:
                out.append(sep + scalar(item))
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            head = sep + encode_basestring_ascii(key if type(key) is str else _key_text(key)) + ": "
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                out.append(head)
                _emit(item, out, inner)
            else:
                out.append(head + scalar(item))
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def json_text(obj: Any) -> str:
    """The text of ``json.dumps(obj, indent=2)``, byte for byte.

    The standard encoder runs its pure-Python generator chain whenever an
    indent is set; this writes the same bytes with one list of parts. A
    value or key of a type json cannot encode raises TypeError, as there.
    """
    out: list[str] = []
    _emit(obj, out, "\n")
    return "".join(out)


def _indent(level: int) -> str:
    # The newline and spaces that start a line ``level`` lists or objects
    # deep in json_text.
    return "\n" + "  " * level


def json_template(value: Any, level: int = 0) -> str:
    """The text ``json_text`` gives ``value`` where it sits ``level`` lists
    or objects deep, as a ``%`` template: each ``SLOT`` in ``value`` is a
    ``%s``, and any other ``%`` is doubled."""
    out: list[str] = []
    _emit(value, out, _indent(level))
    return "".join(out).replace("%", "%%").replace("\0", "%s")


def json_list(texts: Sequence[str], level: int = 0) -> str:
    """The text ``json_text`` gives a list ``level`` lists or objects deep
    whose items have the texts ``texts``, written for the level below."""
    if not texts:
        return "[]"
    indent = _indent(level)
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(texts) + indent + "]"


def json_texts(values: Sequence[Any]) -> list[str]:
    """The ``json_text`` of each item of ``values``."""
    return _flat_texts(values) or [json_text(v) for v in values]


def format_value(value: float | None, family: str) -> str:
    if family not in _DECIMALS:
        raise ValueError(f"unknown family '{family}'")
    if value is None:
        return "-"
    return f"{value:.{_DECIMALS[family]}f}"


def _report_scale(family: str) -> float:
    return 100.0 if family == "percent" else 1.0


def _column_table(header: list[str], rows: list[list[str]]) -> str:
    # First column left-aligned, the rest right-aligned under their headers.
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [header] + rows:
        first = row[0].ljust(widths[0])
        rest = [cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:])]
        lines.append("  ".join([first] + rest).rstrip())
    return "\n".join(lines)


def render_fixture(table: FixtureTable, fmt: str = "plain") -> str:
    if fmt not in OUTPUT_FORMATS:
        raise ValueError(f"unknown format '{fmt}'")
    if fmt == "json":
        payload = {
            "name": table.name,
            "family": table.family,
            "metrics": list(table.metrics),
            "rows": list(table.rows),
            "cells": {split: [list(r) for r in table.cells[split]] for split in SPLITS},
        }
        return json_text(payload) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        # Method names contain commas, so quoting (not a custom delimiter) is
        # what keeps the file parseable; pin the line ending for byte identity.
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["split", "method", *table.metrics])
        for split in SPLITS:
            for row, values in zip(table.rows, table.cells[split]):
                writer.writerow([split, row, *(format_value(v, table.family) for v in values)])
        return buf.getvalue()
    blocks = []
    for split in SPLITS:
        header = ["method", *table.metrics]
        rows = [
            [row, *(format_value(v, table.family) for v in values)]
            for row, values in zip(table.rows, table.cells[split])
        ]
        blocks.append(f"{table.name} [{split}]\n" + _column_table(header, rows))
    return "\n\n".join(blocks) + "\n"


def render_reports(reports: Sequence[MetricReport], fmt: str = "plain") -> str:
    if fmt not in OUTPUT_FORMATS:
        raise ValueError(f"unknown format '{fmt}'")
    if fmt == "json":
        payload = {
            "schema": "report/1",
            "reports": [
                {
                    "name": r.name,
                    "family": r.family,
                    "value": r.value,
                    "count": r.count,
                    "breakdown": dict(r.breakdown),
                }
                for r in reports
            ],
        }
        return json_text(payload) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "metric", "value", "count"])
        for r in reports:
            scale = _report_scale(r.family)
            writer.writerow([r.name, "overall", format_value(r.value * scale, r.family), r.count])
            for key, value in r.breakdown.items():
                writer.writerow([r.name, key, format_value(value * scale, r.family), ""])
        return buf.getvalue()
    lines = []
    for r in reports:
        scale = _report_scale(r.family)
        lines.append(f"{r.name}: {format_value(r.value * scale, r.family)} (n={r.count})")
        for key, value in r.breakdown.items():
            lines.append(f"  {key}: {format_value(value * scale, r.family)}")
    return "\n".join(lines) + "\n"
