"""Serialization helpers shared by the moment and Jacobi file formats."""

import math
import os
import tempfile
from fractions import Fraction

from .errors import FileFormatError

__all__ = [
    "atomic_write_text",
    "format_scalar",
    "parse_rational",
    "parse_float",
    "format_matrix",
    "parse_matrix",
]


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_scalar(x, backend: str):
    """Rational scalars serialize as canonical 'p/q' strings, floats as numbers."""
    if backend == "exact":
        return str(Fraction(x))
    return float(x)


def parse_rational(value) -> Fraction:
    """Accept only 'p/q' strings (or integer strings) in rational mode."""
    if not isinstance(value, str):
        raise FileFormatError(
            f"rational scalar must be a 'p/q' string, got {value!r}"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"bad rational scalar {value!r}: {exc}") from exc


def parse_float(value) -> float:
    """Accept only finite numbers in float mode; json admits NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"float scalar must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:
        raise FileFormatError(f"float scalar out of range: {exc}") from exc
    if not math.isfinite(x):
        raise FileFormatError(f"float scalar must be finite, got {value!r}")
    return x


def format_matrix(mat, backend: str):
    return [[format_scalar(x, backend) for x in row] for row in mat]


def parse_matrix(data, backend: str, rows: int, cols: int, what: str):
    if not isinstance(data, list) or len(data) != rows:
        raise FileFormatError(f"{what}: expected {rows} rows")
    parse = parse_rational if backend == "exact" else parse_float
    out = []
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise FileFormatError(f"{what}: expected rows of length {cols}")
        out.append([parse(x) for x in row])
    return out
