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
row) is read with no Python object per cell, straight into the float64
array that the ReciprocalMatrix is (see _float_grid); its per-entry tuples
are built only if something reads them.  Any other CSV text, and a float
one that neither reader takes, is read cell by cell with parse_scalar,
which names the cell it cannot read.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Optional, Union

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


#: a plain-decimal cell has at most 18 significant digits: its mantissa is an int64 below this
_MANTISSA_BOUND = 10 ** 18
#: 10^k for the fraction lengths k of a plain-decimal cell, each a double (5^22 < 2^53)
_POW10 = np.array([float(10 ** k) for k in range(23)])
#: every integer up to 2^53 is a double, so fl(m) = m below it and m / 10^k is rounded once
_EXACT_INT = 2 ** 53
#: Veltkamp's splitter for 26-bit halves of a double
_SPLITTER = 2.0 ** 27 + 1
#: cells per row chunk of the plain-decimal reader, so its temporaries stay small beside its output
_CHUNK_CELLS = 1 << 14


def _float_grid(lines: list) -> Optional[np.ndarray]:
    """The CSV lines as an n-by-n float64 array, or None unless they read
    as n rows of n positive finite floats.  Each value is float()'s on the
    cell, bit for bit; a cell neither reader takes (empty, quoted, "p/q",
    "1_0.5", non-ASCII digits) makes it None.

    A grid of plain decimals (ASCII digits "." digits, at most 18
    significant digits and 22 after the ".") is read in row chunks of about
    16K cells: numpy's C integer tokenizer reads each cell without its "."
    as an int64 mantissa m, and the "." and "," positions give its fraction
    length k.  numpy rounds x = fl(fl(m) / 10^k), which is m / 10^k rounded
    to nearest where m <= 2^53 (Clinger 1990); elsewhere an exact residual
    proves it (_rounding_residual), or proves one ulp step toward m / 10^k,
    and a cell still unproven (a tie, say) is read by float().  Any other
    grid (exponents, signs, spaces, more digits) goes to numpy's loadtxt,
    whose C parser calls a correctly rounded strtod on each cell.  At
    n = 1024 on 17-digit repr cells the first takes about 0.12 s where
    loadtxt takes 0.22-0.26 s (in-process, minimum of 7, a 2-vCPU host)."""
    n = len(lines)
    a = _plain_decimal_grid(lines)
    if a is None:
        try:
            a = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            return None
    return a if a.shape == (n, n) and (a > 0).all() and np.isfinite(a).all() else None


def _plain_decimal_grid(lines: list) -> Optional[np.ndarray]:
    """The n lines of plain decimals as an n-by-n array of float()'s values,
    or None unless _plain_decimals takes every row chunk."""
    n = len(lines)
    a = np.empty((n, n))
    step = max(1, _CHUNK_CELLS // n)
    for i in range(0, n, step):
        x = _plain_decimals(lines[i:i + step], n)
        if x is None:
            return None
        a[i:i + step] = x.reshape(-1, n)
    return a


def _plain_decimals(lines: list, n: int) -> Optional[np.ndarray]:
    """The cells of the lines, n to a line, in row-major order, as float()'s
    values, or None unless each is a plain decimal."""
    raw = ",".join(lines).encode()
    if not raw.isascii():
        return None
    b = np.frombuffer(raw, np.uint8)
    marks = np.flatnonzero((b - ord("0")) > 9)  # the bytes that are not digits
    cells = len(lines) * n
    dots, commas = marks[::2], marks[1::2]
    ends = np.append(commas, len(raw))  # one past each cell
    # a "." in each cell and a "," after it, a digit on each side of every
    # mark, and each line's end at the end of an n-th cell
    if (len(marks) != 2 * cells - 1 or (b[dots] != ord(".")).any() or (b[commas] != ord(",")).any()
            or (np.diff(marks, prepend=-1, append=len(raw)) < 2).any()
            or (ends[n - 1::n] != np.cumsum([len(line) + 1 for line in lines]) - 1).any()):
        return None
    k = ends - dots - 1
    m = np.fromstring(raw.replace(b".", b""), np.int64, sep=",")  # an overflow reads as 2^63 - 1
    if len(m) != cells or m.max() >= _MANTISSA_BOUND or k.max() >= len(_POW10):
        return None
    p = _POW10[k]
    x = m / p
    big = np.flatnonzero(m > _EXACT_INT)
    r, ok = _rounding_residual(m[big], x[big], p[big])
    i, r = big[~ok], r[~ok]
    if len(i):  # off by one ulp at most: step toward m / 10^k and prove again
        y = np.nextafter(x[i], np.where(r > 0, np.inf, 0.0))
        ok = _rounding_residual(m[i], y, p[i])[1]
        x[i[ok]] = y[ok]
        for j in i[~ok]:  # a tie, say
            x[j] = float(raw[ends[j - 1] + 1 if j else 0:ends[j]])
    return x


def _split(a: np.ndarray) -> tuple:
    """Veltkamp's split of doubles a = hi + lo, each half of at most 26 significant bits."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


def _rounding_residual(m: np.ndarray, x: np.ndarray, p: np.ndarray) -> tuple:
    """(r, ok) for integers 2^53 < m < 10^18, p = 10^k with k <= 22 and
    doubles x within two ulps of m / p: r = m - x*p exactly, and ok where
    |r| < half x's gap to its neighbour on r's side, times p, which proves
    x is m / p rounded to nearest (the gap below a power of two is half the
    gap above it).  x*p = hi + lo exactly by Dekker's TwoProduct (1971);
    hi is an integer, so m - hi is taken in int64, and r fits in a double."""
    (x_hi, x_lo), (p_hi, p_lo) = _split(x), _split(p)
    hi = x * p
    lo = x_hi * p_hi - hi + x_hi * p_lo + x_lo * p_hi + x_lo * p_lo
    r = (m - hi.astype(np.int64)) - lo
    return r, (2 * r < np.spacing(x) * p) & (-2 * r < (x - np.nextafter(x, 0.0)) * p)


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
        lines = _csv_lines(text)
        if backend == "float" or backend is None and any(
                "." in line or "e" in line or "E" in line for line in lines):
            a = _float_grid(lines)
            if a is not None:
                del lines  # freed before validation allocates its n-by-n temporaries
                return validate_reciprocal(a)
        cells = [line.split(",") for line in lines]
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
