"""Text output for metric reports and fixture tables.

Formatting is family-driven: percent and pixel values print with two decimal
places, edit distances with three. Reports hold percent metrics as fractions
and are scaled by 100 here; fixture tables already store percent points and
are printed as-is. Missing cells render as "-". Plain output is deterministic
down to the byte so it can serve as a comparison target.

The one JSON encoder is the standard library's: every JSON text has the
bytes of ``json.dumps(obj, indent=2)``. This module owns the layouts that
writers of many records of one shape fill instead of encoding each record
whole: ``json_template`` gives the text of a value with a ``%s`` for each
``SLOT`` in it, ``json_list`` the text of a list from its items' texts, and
``json_texts`` the text of each item of a list. A template holds a layout,
never data, so no data string can turn into a slot.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from .fixtures import SPLITS, FixtureTable
from .metrics import MetricReport

OUTPUT_FORMATS = ("plain", "csv", "json")

_DECIMALS = {"percent": 2, "pixels": 2, "edit": 3}

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Slot:
    """The type of ``SLOT``."""


# A value that json_template writes as %s.
SLOT = _Slot()
_SLOT_TEXT = json.dumps("\0")


def _slot(value: Any) -> str:
    # json.dumps's ``default``: SLOT encodes as a NUL string, which no layout
    # holds otherwise; anything else gets json's own TypeError.
    return "\0" if value is SLOT else json.JSONEncoder().default(value)


def _indent(level: int) -> str:
    # The newline and spaces that start a line ``level`` lists or objects
    # deep in json.dumps(..., indent=2).
    return "\n" + "  " * level


def json_template(value: Any, level: int = 0) -> str:
    """The text ``json.dumps(value, indent=2)`` gives ``value`` where it
    sits ``level`` lists or objects deep, as a ``%`` template: each ``SLOT``
    in ``value`` is a ``%s``, and any other ``%`` is doubled. ``value`` is
    a layout, not data: a string ``"\\0"`` in it would be a slot too."""
    text = json.dumps(value, indent=2, default=_slot)
    return text.replace("%", "%%").replace(_SLOT_TEXT, "%s").replace("\n", _indent(level))


def json_list(texts: Sequence[str], level: int = 0) -> str:
    """The text ``json.dumps`` gives a list ``level`` lists or objects deep
    whose items have the texts ``texts``, written for the level below."""
    if not texts:
        return "[]"
    indent = _indent(level)
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(texts) + indent + "]"


def json_texts(values: Sequence[Any]) -> list[str]:
    """The ``json.dumps(v, indent=2)`` of each item ``v`` of ``values``; a
    column of plain floats, plain ints or plain strings takes a typed fast
    path."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        texts = list(map(float.__repr__, values))
        return texts if all(map(math.isfinite, values)) else [_NON_FINITE.get(t, t) for t in texts]
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    return [json.dumps(v, indent=2) for v in values]


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
        return json.dumps(payload, indent=2) + "\n"
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
        return json.dumps(payload, indent=2) + "\n"
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
