"""Matrix and vector file parsing.

Two formats: CSV (one row per line, cells either decimal or a rational
literal "p/q") and JSON ({"n": ..., "entries": [[...]]}; vectors may also
be a bare JSON list).  Rational literals force the exact backend; plain
decimals parse as floats unless backend="exact" is requested, in which
case they become exact decimal fractions.  Files are read as UTF-8, with or
without a byte order mark.  A decimal cell that is not zero but reads as an
infinite float, or as 0.0, is an InputError naming the cell, as float_view
names an exact value beyond the floats.

A float CSV matrix (backend="float", or a decimal mark or exponent in some
data line) is read with no Python object per cell, straight into the
float64 array that the ReciprocalMatrix is, a plain-decimal grid in row
chunks cut from the text (see _float_grid); per-entry tuples are built only
if something reads them.  Other CSV text, and float text that neither
reader takes, is read cell by cell by parse_scalar, which names a bad cell.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .errors import InputError
from .matrix import (ReciprocalMatrix, Scalar, Vector, check_positive_vector, float_view,
                     is_exact_scalar, validate_reciprocal)


def parse_scalar(cell, backend: Optional[str] = None) -> Scalar:
    """Parse a single cell: int, "p/q", or decimal."""
    if isinstance(cell, str):
        text = cell.strip()
        try:
            if "/" in text:
                return Fraction(text)
            if "." in text or "e" in text.lower():
                return Fraction(text) if backend == "exact" else float(text)
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse cell {cell!r}: {exc}") from exc
    if isinstance(cell, bool):
        raise InputError(f"cannot parse cell {cell!r}")
    if isinstance(cell, int):
        return Fraction(cell)
    if isinstance(cell, float):
        if backend != "exact":
            return cell
        try:
            return Fraction(cell)
        except (OverflowError, ValueError) as exc:
            raise InputError(f"cannot parse cell {cell!r}: {exc}") from exc
    raise InputError(f"cannot parse cell {cell!r}")


def _csv_lines(text: str) -> list:
    lines = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
    if not lines:
        raise InputError("no data rows found")
    return lines


#: a run of characters that holds none of str.splitlines' line boundaries
_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def _data_lines(text: str) -> Iterator[str]:
    """The lines _csv_lines keeps, one at a time, without a copy of the text
    (a regex scan, slower per character than splitlines on long texts)."""
    return (line for line in (m.group().strip() for m in _LINE.finditer(text))
            if line and not line.startswith("#"))


#: a plain-decimal cell's mantissa is below this (18 digits); np.fromstring reads an overflow as 2^63 - 1
_MANTISSA_BOUND = 10 ** 18
#: 5^k and 10^k, a double (5^22 < 2^53), for the fraction lengths k of a plain-decimal cell
_POW5 = np.array([5 ** k for k in range(23)], np.uint64)
_POW10 = _POW5 * 2.0 ** np.arange(23)
#: every integer up to 2^53 is a double, so fl(m) = m below it and m / 10^k is rounded once
_EXACT_INT = 2 ** 53
#: cells per row chunk of the plain-decimal reader, so its temporaries stay small beside its output
_CHUNK_CELLS = 1 << 14


def _float_grid(text: str) -> Optional[np.ndarray]:
    """The CSV text as an n-by-n float64 array, or None unless its data
    lines read as n rows of n positive finite floats, each float()'s value
    of its cell, bit for bit (a cell neither reader takes, "p/q" say, makes
    it None).  A grid of plain decimals (ASCII digits "." digits, at most 18
    significant digits and 22 after the ".") on n lines ending in "\n" or
    "\r\n", after any comment and blank lines, is read in row chunks of
    about 16K cells cut from the text: numpy's C integer tokenizer reads
    each cell without its "." as an int64 mantissa m, and the marks give its
    fraction length k.  numpy rounds x = fl(fl(m) / 10^k), m / 10^k rounded
    to nearest where m <= 2^53 (Clinger 1990); elsewhere an integer residual
    proves it, or one ulp step toward m / 10^k, and float() reads a cell
    still unproven (a tie, say).  Other text (exponents, padding, a comment
    below the first row) goes to numpy's loadtxt, which calls a correctly
    rounded strtod per cell.  At n = 1024 on 17-digit repr cells the first
    takes 0.11 s, loadtxt 0.26 s (in-process, best of 7, 2 vCPUs)."""
    a = _plain_decimal_grid(text)
    if a is None:
        try:
            a = np.loadtxt(_csv_lines(text), delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            return None
    return a if len(a) == a.shape[1] and (a > 0).all() and np.isfinite(a).all() else None


def _plain_decimal_grid(text: str) -> Optional[np.ndarray]:
    """The text as an n-by-n array of float()'s values, n the cells of its first line that
    _csv_lines keeps, or None unless _plain_decimals takes n lines from there and blanks follow."""
    start = 0  # past the comment and blank lines that _csv_lines drops
    while text[start:start + 1] not in "0123456789":  # "" at the text's end
        start = text.find("\n", start) + 1 or len(text)
    n = text.count(",", start, text.find("\n", start) % (len(text) + 1)) + 1  # find's -1: the end
    if 4 * n * n > len(text) - start + 1 or any(  # a cell takes at least "0.0,"
            line.lstrip()[:1] not in ("", "#") for line in text[:start].splitlines()):
        return None
    a, step = np.empty((n, n)), max(1, _CHUNK_CELLS // n)
    for i in range(0, n, step):
        rows, stop = min(step, n - i), start - 1  # stop: the "\n" ending the chunk, or the text's end
        for _ in range(rows):
            stop = text.find("\n", stop + 1) % (len(text) + 1)
        if not _plain_decimals(text[start:stop], a[i:i + rows]):
            return None
        start = stop + 1
    return None if text[start:].strip() else a


def _plain_decimals(chunk: str, out: np.ndarray) -> bool:
    """Whether the chunk's lines, as many as out's rows, hold as many plain
    decimals each as out's columns; out then holds their float()'s values."""
    rows, n = out.shape
    if not chunk.isascii():
        return False
    raw = chunk.encode()
    b = np.frombuffer(raw, np.uint8)
    marks = np.flatnonzero((b - ord("0")) > 9)  # the bytes that are not digits
    end, eol, crlf = len(raw), ord("\n"), "\r" in chunk
    if crlf:  # "\r" ends a line, and the "\n" after it is no mark
        lf = b[marks] == eol
        nl, marks, eol = marks[lf], marks[~lf], ord("\r")
        if raw.endswith(b"\r"):  # the last line's, whose "\n" ends the chunk
            marks, end = marks[:-1], end - 1
    if len(marks) + 1 != 2 * n * rows:
        return False
    dots, ends = marks[::2], np.append(marks[1::2], end)  # ends: one past each cell
    seps = np.append(b[ends[:-1]], eol).reshape(rows, n)
    gaps = np.diff(marks, prepend=-1, append=end)
    # a "." in each cell, a "," after all but a line's n-th, and a digit beside each mark
    if ((b[dots] != ord(".")).any() or (seps[:, :-1] != ord(",")).any() or (seps[:, -1] != eol).any()
            or (gaps < 2).any()):
        return False
    # and on CRLF lines, a "\n" just after each line's "\r" but the last, and a digit after it
    if crlf and (len(nl) != rows - 1 or (nl != ends[n - 1:-1:n] + 1).any() or (gaps[2 * n::2 * n] < 3).any()):
        return False
    k = ends - dots - 1
    # a "\r" left before a "," is whitespace, which the reader skips
    m = np.fromstring(raw.replace(b".", b"").replace(b"\n", b","), np.int64, sep=",")
    if len(m) != len(ends) or m.max() >= _MANTISSA_BOUND or k.max() >= len(_POW10):
        return False
    x = np.divide(m, _POW10[k], out=out.reshape(-1))
    big = np.flatnonzero(m > _EXACT_INT)
    r, ok = _rounding_residual(m[big], x[big], k[big])
    i, r = big[~ok], r[~ok]
    if len(i):  # off by one ulp at most: step toward m / 10^k and prove again
        y = np.nextafter(x[i], np.where(r > 0, np.inf, 0.0))
        ok = _rounding_residual(m[i], y, k[i])[1]
        x[i[ok]] = y[ok]
        for j in i[~ok]:  # a tie, say
            x[j] = float(raw[ends[j - 1] + 1 if j else 0:ends[j]])
    return True


def _rounding_residual(m: np.ndarray, x: np.ndarray, k: np.ndarray) -> tuple:
    """(r, ok) for integers 2^53 < m < 10^18, fraction lengths k <= 22 and
    positive doubles x within two ulps of m / 10^k.  With x = X 2^(e-53),
    2^52 <= X < 2^53 (np.frexp), and s = e - 53 + k, r = m 2^max(-s,0) -
    X 5^k 2^max(s,0) is (m - x 10^k) 2^max(-s,0); ok where 2r and -2r are
    below u = 5^k 2^max(s,0), -2r below u / 2 if X = 2^52 (the gap below a
    power of two is half that above it), proves x is m / 10^k rounded to
    nearest.  u < 2^53 and |r| < 2u, so uint64, which wraps, holds r exactly."""
    f, e = np.frexp(x)
    big_x = (f * 2.0 ** 53).astype(np.uint64)
    s = e - 53 + k
    u = _POW5[k] << np.maximum(s, 0).astype(np.uint64)
    r = ((m.astype(np.uint64) << np.maximum(-s, 0).astype(np.uint64)) - big_x * u).view(np.int64)
    u = u.view(np.int64)
    return r, (2 * r < u) & (-2 * r * (1 + (big_x == 2 ** 52)) < u)


def _json_entries(text: str, unit: str) -> list:
    """Entries of a JSON text: a list, or an object whose "entries" is one
    and whose optional "n" counts them (in `unit`, for the message).
    Decimal numbers stay text, so parse_scalar reads them like CSV cells."""
    try:
        obj = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    entries = obj.get("entries") if isinstance(obj, dict) else obj
    if not isinstance(entries, list):
        raise InputError('JSON input must be a list, or an object whose "entries" is a list')
    if isinstance(obj, dict) and "n" in obj and obj["n"] != len(entries):
        raise InputError(f"declared n={obj['n']} but found {len(entries)} {unit}")
    return entries


def _check_decimal_range(cells: list, values: list, label: str) -> None:
    """An InputError in float_view's words for the first text cell that
    parse_scalar read as an infinite float, or as 0.0 though its decimal is
    not zero, label.format(its index) naming it.  A value before it that
    float_view rejects is reported first."""
    for j, x in enumerate(values):
        if type(x) is float and (x == 0.0 or abs(x) == math.inf) and isinstance(cells[j], str) and (
                x or not Decimal(cells[j]).is_zero()):
            float_view(values[:j], label)
            if x:
                raise InputError(f"{label.format(j)} too large for a float: {cells[j].strip()!r}")
            raise InputError(f"{label.format(j)} rounds to 0.0 as a float")


def parse_matrix_text(
    text: str, backend: Optional[str] = None
) -> ReciprocalMatrix:
    if text.lstrip().startswith(("{", "[")):
        cells = _json_entries(text, "rows")
        for i, row in enumerate(cells):
            if not isinstance(row, list):
                raise InputError(f"JSON matrix row {i} is not a list")
    else:
        # a decimal mark or exponent in some data line, read up to the first that holds one
        if backend == "float" or backend is None and any(
                "." in line or "e" in line or "E" in line for line in _data_lines(text)):
            a = _float_grid(text)
            if a is not None:
                return validate_reciprocal(a)
        cells = [line.split(",") for line in _csv_lines(text)]
    rows = [[parse_scalar(c, backend) for c in row] for row in cells]
    if backend == "float" or not all(all(map(is_exact_scalar, r)) for r in rows):
        for i, r in enumerate(rows):
            label = f"cell ({i},{{}})"
            _check_decimal_range(cells[i], r, label)
            rows[i] = float_view(r, label)
    return validate_reciprocal(rows)


def parse_vector_text(text: str, backend: Optional[str] = None) -> Vector:
    if text.lstrip().startswith(("{", "[")):
        cells = _json_entries(text, "entries")
        vals = [parse_scalar(c, backend) for c in cells]
    else:
        cell_rows = [line.split(",") for line in _csv_lines(text)]
        rows = [[parse_scalar(c, backend) for c in r] for r in cell_rows]
        if len(rows) != 1 and any(len(r) != 1 for r in rows):
            raise InputError("vector file must be a single CSV row or column")
        cells, vals = list(chain.from_iterable(cell_rows)), list(chain.from_iterable(rows))
    if backend != "exact":
        _check_decimal_range(cells, vals, "cell ({})")
    if backend == "float":
        vals = float_view(vals, "cell ({})").tolist()
    return check_positive_vector(vals, len(vals))


def load_matrix(path: Union[str, Path], backend: Optional[str] = None) -> ReciprocalMatrix:
    return parse_matrix_text(Path(path).read_text(encoding="utf-8-sig"), backend)


def load_vector(path: Union[str, Path], backend: Optional[str] = None) -> Vector:
    return parse_vector_text(Path(path).read_text(encoding="utf-8-sig"), backend)


def scalar_repr(x: Scalar):
    """JSON-friendly value: rationals as "p/q" strings, floats as-is."""
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else x.numerator
    return x
