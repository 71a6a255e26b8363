"""Matrix and vector file parsing.

Two formats: CSV (one row per line, cells either decimal or a rational
literal "p/q") and JSON ({"n": ..., "entries": [[...]]}; vectors may also
be a bare JSON list).  Rational literals force the exact backend; plain
decimals parse as floats unless backend="exact" is requested, in which
case they become exact decimal fractions.  Files are read as UTF-8, with or
without a byte order mark.

A float CSV matrix (backend="float", or a decimal mark or exponent in some
row) is read by numpy's C parser straight into the float64 array that the
ReciprocalMatrix is; its per-entry tuples are built only if something reads
them.  Any other CSV text, and a float one that parser refuses, is read
cell by cell with parse_scalar, which names the cell it cannot read.
"""

from __future__ import annotations

import json
from fractions import Fraction
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


def _float_grid(lines: list) -> Optional[np.ndarray]:
    """The CSV lines as an n-by-n float64 array, read by numpy's C parser
    with no Python object per cell, or None unless that reads n rows of n
    positive finite floats.  Each value it reads is float()'s on the cell,
    bit for bit; a cell it cannot read (empty, quoted, "p/q", "1_0.5",
    non-ASCII digits) makes it None."""
    try:
        a = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    n = len(lines)
    return a if a.shape == (n, n) and (a > 0).all() and np.isfinite(a).all() else None


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


def parse_matrix_text(
    text: str, backend: Optional[str] = None
) -> ReciprocalMatrix:
    if text.lstrip().startswith(("{", "[")):
        entries = _json_entries(text, "rows")
        for i, row in enumerate(entries):
            if not isinstance(row, list):
                raise InputError(f"JSON matrix row {i} is not a list")
        rows = [[parse_scalar(c, backend) for c in row] for row in entries]
    else:
        lines = _csv_lines(text)
        if backend == "float" or backend is None and any(
                "." in line or "e" in line or "E" in line for line in lines):
            a = _float_grid(lines)
            if a is not None:
                del lines  # freed before validation allocates its n-by-n temporaries
                return validate_reciprocal(a)
        rows = [[parse_scalar(c, backend) for c in line.split(",")] for line in lines]
    if backend == "float" or not all(all(map(is_exact_scalar, r)) for r in rows):
        rows = [float_view(r, "cell") for r in rows]
    return validate_reciprocal(rows)


def parse_vector_text(text: str, backend: Optional[str] = None) -> Vector:
    if text.lstrip().startswith(("{", "[")):
        vals = [parse_scalar(c, backend) for c in _json_entries(text, "entries")]
    else:
        rows = [[parse_scalar(c, backend) for c in line.split(",")]
                for line in _csv_lines(text)]
        if len(rows) == 1:
            vals = rows[0]
        elif all(len(r) == 1 for r in rows):
            vals = [r[0] for r in rows]
        else:
            raise InputError("vector file must be a single CSV row or column")
    if backend == "float":
        vals = float_view(vals, "cell").tolist()
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
