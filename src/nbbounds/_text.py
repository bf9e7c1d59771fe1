"""Text in and out for every command: one file reader, one CSV row writer,
one JSON writer and one rule for write errors. Standard library only, so
the commands that never load numpy can use it.

A CSV cell is empty for ``None``, ``true``/``false`` for a bool, an int or
a str as is, and ``repr(float(value))`` (the shortest round-trip form) for
any other number. JSON is indented by 2 with sorted keys and ends in a
newline; a numpy scalar is written as the Python number it holds, and NaN,
which has no JSON literal, as ``null``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager

from .errors import DomainError


def read_text(source, label: str, newline: str | None = None) -> str:
    """All of ``source``: a path (a ``str`` or ``os.PathLike``), read as
    UTF-8 with ``newline`` passed to ``open``, or an open stream, read as it
    is. A source that cannot be read, or is not UTF-8, raises
    ``invalid-parameter`` naming ``label``."""
    try:
        if not isinstance(source, (str, os.PathLike)):
            return source.read()
        with open(os.fspath(source), encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError("invalid-parameter", f"cannot read {label}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError("invalid-parameter", f"{label} is not UTF-8: {exc}") from None


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, (int, str)) else repr(float(value))


def write_rows(sink, header, rows) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):  # a numpy scalar, without importing numpy
        value = value.item()
    return None if isinstance(value, float) and math.isnan(value) else value


def write_json(sink, doc) -> None:
    sink.write(json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n")


def open_output(path: str):
    """``path`` opened for UTF-8 text, truncated, its lines ended as written."""
    return open(path, "w", newline="", encoding="utf-8")


@contextmanager
def writing_to(target: str):
    """Raise an ``OSError`` from the block as ``invalid-parameter`` naming ``target``."""
    try:
        yield
    except OSError as exc:
        raise DomainError("invalid-parameter", f"cannot write to {target}: {exc}") from exc
