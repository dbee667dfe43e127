"""Text formats shared across the package.

Input: the one CSV row reader behind the load, shapes and contract-schedule
files, the one reader that builds a config dataclass from its JSON block, and
the type rules the config dataclasses check at construction.  Output: the
canonical JSON text and the float and flag formats of the CSV writers.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .errors import DrContractsError, InputFormatError

T = TypeVar("T")


def is_number(value) -> bool:
    """A real number that is not a boolean (JSON true/false are not numbers)."""
    # The exact-type test is the fast path: it settles every JSON number.
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


def is_integer(value) -> bool:
    """A Python or NumPy integer that is not a boolean."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def read_json_block(cls: type[T], block: str, obj, *, required=(), exclude=()) -> T:
    """Build the dataclass ``cls`` from the JSON object of config block ``block``.

    The keys must be fields of ``cls`` other than ``exclude``; the fields
    without a default and the names in ``required`` must be present.  Errors
    name the block and raise InputFormatError, except the package's own
    errors from construction, which already name their cause.
    """
    if not isinstance(obj, dict):
        raise InputFormatError(f"{block} block must be an object")
    defaults = {f.name: f.default for f in fields(cls) if f.name not in exclude}
    unknown = set(obj) - set(defaults)
    if unknown:
        raise InputFormatError(f"unknown {block} keys {sorted(unknown)}")
    needed = [name for name, default in defaults.items() if default is MISSING]
    for key in (*needed, *required):
        if key not in obj:
            raise InputFormatError(f"{block} block needs {key!r}")
    try:
        return cls(**obj)
    except DrContractsError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{block} block: {exc}") from exc


def read_csv_rows(
    path,
    what: str,
    headers: Sequence[list[str]],
    parse_row: Callable[[list[str]], T],
) -> list[T]:
    """Parse the data rows of a CSV file whose first line is one of ``headers``.

    Blank lines are skipped and every other row must have as many fields as
    the header.  ``parse_row`` turns one row into a value and raises
    ValueError for a bad row; the error is reported at ``path:line``.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise InputFormatError(f"cannot read {what} {path}: {exc}") from exc
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise InputFormatError(f"{path}: empty file")
    if header not in headers:
        expected = " or ".join(",".join(h) for h in headers)
        raise InputFormatError(
            f"{path}: expected header {expected}, got {','.join(header)}"
        )
    values = []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            values.append(parse_row(row))
        except ValueError as exc:
            raise InputFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    if not values:
        raise InputFormatError(f"{path}: no data rows")
    return values


def json_text(obj) -> str:
    """Canonical JSON: sorted keys, indent 1, a final newline; equal objects, equal bytes."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def sig9(x: float) -> str:
    """Format a float with 9 significant digits (CSV convention)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {type(x).__name__}")
    if math.isnan(x):
        return "nan"
    return f"{x:.9g}"


def roundtrip(x: float) -> str:
    """The shortest decimal that reads back as x bit for bit, without a
    trailing ".0" (for a value that is read back and used, like c_star)."""
    return repr(float(x)).removesuffix(".0")


def flag(value: bool) -> str:
    return "true" if value else "false"


def parse_flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")
