"""The one reader and the one writer of the pipeline's CSV tables.

A table is a header row that names its columns, then one row per
record with exactly as many fields as the header. Blank lines are
skipped, and a table needs at least one row. Every fault raises
``DataError`` naming the file and, for a row, its line. Tables are
UTF-8 text whatever the locale, both ways.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
import os
import unicodedata
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Besides a comma, the characters that make csv.writer's default dialect
# quote a field
_QUOTED = '"\r\n'


def is_safe_id(value: str) -> bool:
    """Whether ``value`` can name a file and stand unquoted in a CSV row.

    A safe id is not empty, ``.`` or ``..``, holds no ``/``, ``\\``,
    ``,``, ``"`` or control character, and the file system's encoding
    can encode it.
    """
    try:
        os.fsencode(value)
    except UnicodeEncodeError:
        return False
    return value not in ("", ".", "..") and not any(
        ch in '/\\,"' or unicodedata.category(ch) == "Cc" for ch in value
    )


def write_table(
    path: str | os.PathLike,
    header: Sequence[str],
    rows: Iterable[Sequence[str | int | float]],
    line_end: str = "\r\n",
) -> None:
    """Write ``header``, then ``rows``, as a UTF-8 table whose lines end
    in ``line_end``, ``"\\r\\n"`` or ``"\\n"``.

    Each row is written as ``csv.writer``'s default dialect writes it, up
    to its line end. That dialect quotes every field that holds a CR or
    LF, so ``read_table`` reads each table back whatever its line end. A
    row with no ``,``, ``"``, CR or LF in its fields is joined directly,
    which takes far less time than ``csv.writer``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in itertools.chain([header], rows):
            line = ",".join(map(str, row))
            if not line or line.count(",") != len(row) - 1 or any(c in line for c in _QUOTED):
                buffer = io.StringIO()
                csv.writer(buffer).writerow(row)
                line = buffer.getvalue()[:-2]  # its CRLF
            fh.write(line + line_end)


def _first_repeat(values: list[str]) -> int | None:
    seen: set[str] = set()
    for i, value in enumerate(values):
        if value in seen:
            return i
        seen.add(value)
    return None


@dataclass
class Table:
    """The named text columns and the float block of one CSV file."""

    path: str | os.PathLike
    columns: list[str]  # names of the fields kept in ``rows``
    rows: list[list[str]]
    lines: list[int]  # file line of each row
    float_columns: list[str]
    floats: np.ndarray  # (rows, float columns), every value finite

    def where(self, i: int) -> str:
        """``path: line N`` of row ``i``, for error messages."""
        return f"{self.path}: line {self.lines[i]}"

    def text(self, name: str) -> list[str]:
        """One column's fields, without surrounding whitespace."""
        j = self.columns.index(name)
        return [row[j].strip() for row in self.rows]

    def ids(self, name: str) -> list[str]:
        """One column's fields, each an id that ``is_safe_id`` accepts."""
        ids = self.text(name)
        for i, value in enumerate(ids):
            if not is_safe_id(value):
                raise DataError(
                    f"{self.where(i)}: {name.replace('_', ' ')} {value!r} "
                    "is unsafe as a file name or CSV field"
                )
        return ids

    def ints(self, *names: str) -> list[tuple[int, ...]]:
        """The named columns of each row as integers."""
        idx = [self.columns.index(name) for name in names]
        out = []
        for i, row in enumerate(self.rows):
            try:
                out.append(tuple(int(row[j]) for j in idx))
            except ValueError:
                plural = "integers" if len(names) > 1 else "an integer"
                raise DataError(f"{self.where(i)}: {', '.join(names)} must be {plural}") from None
        return out


def read_table(
    path: str | os.PathLike,
    columns: Sequence[str] = (),
    floats: Sequence[str] = (),
    key: str | None = None,
    extra_floats: bool = False,
) -> Table:
    """Read a CSV table whose header names ``columns`` and ``floats``.

    The ``floats`` columns, and with ``extra_floats`` every column named
    in neither list, make up the float block, in that order. Each row's
    floats are converted in one numpy call as the file is read, so their
    text is never held all at once. ``key`` names one of ``columns``
    whose values (whitespace stripped) must be unique.
    """
    needed = (*columns, *floats)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [name for name in needed if name not in header]
            if missing:
                raise DataError(
                    f"{path}: missing column(s) {', '.join(missing)} "
                    f"(header needs {','.join(needed)})"
                )
            repeat = _first_repeat(header)
            if repeat is not None:
                raise DataError(f"{path}: line 1: column {header[repeat]!r} named twice")
            float_columns = list(floats)
            if extra_floats:
                float_columns += [name for name in header if name not in needed]
            position = {name: j for j, name in enumerate(header)}
            float_idx = [position[name] for name in float_columns]
            text_idx = [position[name] for name in columns]
            pick = operator.itemgetter(*float_idx) if float_idx else lambda row: ()
            rows, lines, values = [], [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: line {reader.line_num}: "
                        f"expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    values.append(np.array(pick(row), dtype=np.float64))
                except ValueError:
                    for j in float_idx:
                        try:
                            float(row[j])
                        except ValueError:
                            raise DataError(
                                f"{path}: line {reader.line_num}: "
                                f"non-numeric value {row[j]!r} in {header[j]}"
                            ) from None
                rows.append([row[j] for j in text_idx])
                lines.append(reader.line_num)
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    block = np.array(values, dtype=np.float64).reshape(len(rows), len(float_idx))
    table = Table(path, list(columns), rows, lines, float_columns, block)
    finite = np.isfinite(block)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DataError(
            f"{table.where(i)}: non-finite value {float(block[i, j])} in {float_columns[j]}"
        )
    keys = table.text(key) if key is not None else []
    repeat = _first_repeat(keys)
    if repeat is not None:
        name = key.replace("_", " ")
        raise DataError(f"{table.where(repeat)}: duplicate {name} {keys[repeat]!r}")
    return table

