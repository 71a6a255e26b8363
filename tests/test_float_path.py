"""The float backend's array code against per-entry loop references.

The references below are per-entry Python loops for the parse (parse_scalar
on every cell), float validation, edge rule, score cuts, dominator,
comparison and report.  They live here, not in the package, so the array
code is checked against an independent implementation that makes the same
float operations: every answer must be identical, bit for bit where floats
are returned.
"""

import codecs
import json
import math
import random
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import numpy as np
import pytest

from effvec import (build_digraph, dominance_compare, extension_interval, io, is_efficient,
                    validate_reciprocal)
from effvec.efficiency import (EQUAL, INCOMPARABLE, TOL_DOMINANCE, TOL_EDGE, V_DOMINATES,
                               W_DOMINATES)
from effvec.errors import EffvecError, InputError
from effvec.io import parse_matrix_text, parse_scalar
from effvec.matrix import TOL_RECIP, ReciprocalMatrix, is_exact_scalar

# ---------------------------------------------------------------------------
# parse


def reference_validate(grid):
    """Per-entry float validation with a_ji := 1/a_ij; exact grids (whose
    loops are unchanged) go to validate_reciprocal."""
    if all(is_exact_scalar(x) for r in grid for x in r):
        return validate_reciprocal(grid)
    n = len(grid)
    if n < 2 or any(len(r) != n for r in grid):
        raise InputError("not a square grid with n >= 2")
    rows = [[float(x) for x in r] for r in grid]
    if not all(x > 0 for r in rows for x in r):
        raise InputError("an entry is not positive")
    for i in range(n):
        if rows[i][i] != 1:
            raise InputError("diagonal")
        for j in range(i + 1, n):
            if abs(rows[i][j] * rows[j][i] - 1.0) > TOL_RECIP:
                raise InputError("pair")
            rows[j][i] = 1.0 / rows[i][j]
    return ReciprocalMatrix(tuple(map(tuple, rows)), False)


def reference_parse(text, backend=None):
    """parse_scalar on every cell, floats coerced per cell, then validation."""
    if text.lstrip().startswith(("{", "[")):
        obj = json.loads(text, parse_float=str)
        entries = obj["entries"] if isinstance(obj, dict) else obj
        rows = [[parse_scalar(c, backend) for c in row] for row in entries]
        if isinstance(obj, dict) and "n" in obj and obj["n"] != len(rows):
            raise ValueError("declared n does not match")
    else:
        lines = [ln.strip() for ln in text.splitlines()]
        rows = [[parse_scalar(c, backend) for c in ln.split(",")]
                for ln in lines if ln and not ln.startswith("#")]
        if not rows:
            raise ValueError("no data rows")
    if backend == "float":
        rows = [[float(x) for x in r] for r in rows]
    return reference_validate(rows)


def _random_csv(n, rng, fmt):
    rows = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = math.exp(rng.gauss(0, 2))
            rows[j][i] = 1 / rows[i][j]
    return "".join(",".join(fmt(x) for x in r) + "\n" for r in rows)


_rng = random.Random(5)
PARSE_CORPUS = [
    "1,2\n1/2,1\n",                          # ints and p/q: exact
    "1,3,1/2\n1/3,1,1/6\n2,6,1\n",
    "1,2.5\n0.4,1\n",                         # decimals
    "1,2.5e0\n4E-1,1\n1.0\n",                 # exponents, ragged
    "1,2.5e0\n4E-1,1\n",
    "+1.0,+2.0\n0.5,+1\n",                    # signs, exact +1 beside floats
    "1,1_0.5\n0.09523809523809523,1\n",       # underscores
    " 1 , 2.0 \n 0.5 ,\t1\n",                 # padded cells
    "# comment\n\n1,2.0\n\n0.5,1\n# end\n",   # comments and blank lines
    "1,2.0,3\n0.5,1\n1/3,1,1\n",              # ragged rows
    "1,2.0\n0.5,1,\n",                        # trailing comma: empty cell
    "1,2.0,0.5\n1/2,1,0.25\n2.0,4,1\n",       # exact cells inside float rows
    "1,2,0.5\n1/2,1,1/4\n2.0,4,1\n",          # an all-exact row before float rows
    "1.0,0.5\n2,1\n",
    "1,nan\nnan,1\n",
    "1,inf\n0,1\n",
    "1.0,1e400\n1e-400,1\n",                  # overflow to inf, underflow to 0
    "1.0,1e400\n1,1\n",
    "1.0,1e-400\n1e400,1.0\n",
    "1.5.2,1\n1,1\n",
    "1,2.0\n0.5;1\n",
    "1,2\n0.5,1\n", "1.0,2.0\n0.5,1.0\n",
    "1,1.5/2\n2,1\n",
    "# only a comment\n",
    "1.0,2.0\n0.6,1.0\n",                     # not reciprocal
    "2.0,1.0\n1.0,1.0\n",                     # diagonal
    "1,2.0\n0.5,1.0000000000001\n",           # diagonal off by 1e-13 < TOL_RECIP
    "1.0,-2.0\n-0.5,1.0\n",                   # not positive
    "1,3.0\n0.33333333333333337,1\n",         # a_ji within TOL_RECIP: renormalized
    '{"n": 2, "entries": [[1, 2.5], [0.4, 1]]}',
    '{"n": 3, "entries": [[1, 2.5], [0.4, 1]]}',
    '[[1, "1/2"], ["2", 1]]',
    '[[1.0, 2], [0.5, 1]]',
    '[["1.0", "2.5e0"], ["0.4", " 1 "]]',
    _random_csv(7, _rng, repr),
    _random_csv(12, _rng, lambda x: "%.17g" % x),
    _random_csv(9, _rng, lambda x: " %.17e " % x),
    _random_csv(10, _rng, lambda x: "%.15g" % x),
    "# 0.5e3 E\n1,2\n1/2,1\n",               # a decimal mark and exponents in a comment alone: exact
    "1,2\x0c# 0.5\x0b1/2,1",                  # form feed and vertical tab end lines too
    "# m\n1,2\n0.5,1\n",                     # the mark in a later data line: float
]


@pytest.mark.parametrize("backend", [None, "float", "exact"])
@pytest.mark.parametrize("text", PARSE_CORPUS, ids=[f"text{k}" for k in range(len(PARSE_CORPUS))])
def test_parse_matches_per_cell_reference(text, backend):
    try:
        expected = reference_parse(text, backend)
    except (EffvecError, ValueError, ZeroDivisionError, OverflowError):
        with pytest.raises(EffvecError):
            parse_matrix_text(text, backend)
        return
    A = parse_matrix_text(text, backend)
    assert A.exact == expected.exact
    assert A.entries == expected.entries
    assert all(type(x) is type(y) for r, s in zip(A.entries, expected.entries)
               for x, y in zip(r, s))
    if not A.exact:
        assert A.array.tolist() == [list(r) for r in expected.entries]


def test_parse_corpus_covers_both_outcomes():
    accepted = rejected = 0
    for text in PARSE_CORPUS:
        try:
            reference_parse(text)
            accepted += 1
        except (EffvecError, ValueError, ZeroDivisionError, OverflowError):
            rejected += 1
    assert accepted >= 12 and rejected >= 12


# ---------------------------------------------------------------------------
# the C reader route of the CSV parse


def _exact_decimal(x):
    """The exact decimal of the Fraction x, whose denominator is a power of 2."""
    k = x.denominator.bit_length() - 1
    return f"{x.numerator * 5 ** k}e-{k}"


def _halfway_cells(x):
    """The midpoint of the positive double x and the next one up, written
    exactly, and the decimals a hair above and below it."""
    mid = (F(x) + F(math.nextafter(x, math.inf))) / 2
    k = mid.denominator.bit_length() - 1
    digits = mid.numerator * 5 ** k * 1000
    return [_exact_decimal(mid), f"{digits + 1}e-{k + 3}", f"{digits - 1}e-{k + 3}"]


def _hard_cell(rng):
    """A positive finite cell in one of the forms a float CSV may hold."""
    kind = rng.random()
    if kind < 0.05:  # a subnormal
        x = rng.randrange(1, 2 ** 52) * 5e-324
        return rng.choice([repr(x), "%.17e" % x, "%.25g" % x])
    if kind < 0.10:
        x = math.exp(rng.uniform(-60, 60)) if rng.random() < 0.9 else rng.randrange(1, 2 ** 52) * 5e-324
        return rng.choice(_halfway_cells(x))
    if kind < 0.15:  # an integer, as long as 30 digits
        return str(rng.randrange(1, 10 ** rng.randint(1, 30)))
    x = math.exp(rng.uniform(-700, 700))
    fmt = rng.choice([repr, "%.17e".__mod__, "%.25g".__mod__, "%.17g".__mod__, "%.15g".__mod__,
                      " %.6E ".__mod__, "+%.12e".__mod__, lambda x: repr(x).upper()])
    return fmt(x)


def test_c_reader_matches_cell_by_cell_bit_for_bit():
    """320 x 320 = 102400 cells, ties and subnormals among them: the array
    numpy's reader makes equals parse_scalar's on every cell."""
    rng = random.Random(23)
    n = 320
    lines = [",".join(_hard_cell(rng) for _ in range(n)) for _ in range(n)]
    a = io._float_grid("".join(line + "\n" for line in lines))
    ref = np.array([[float(parse_scalar(c)) for c in line.split(",")] for line in lines])
    assert a is not None and a.dtype == ref.dtype and a.shape == ref.shape
    assert a.tobytes() == ref.tobytes()
    assert (a < 2.3e-308).sum() > 5000  # subnormals (and tiny halfway cases) were read


def test_c_reader_accepts_nothing_float_refuses():
    """Short fuzzed cells: the reader takes a cell only if float() does, to
    the same positive finite value; any other cell goes cell by cell."""
    rng = random.Random(29)
    alphabet = "0123456789" * 3 + ".eE+-_ \t#\"'/xinfa\u0661\u00a0"
    taken = 0
    for _ in range(20000):
        cell = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))).strip()
        if not cell or cell.startswith("#"):
            continue
        a = io._float_grid(cell)
        try:
            x = float(cell)
        except ValueError:
            assert a is None, cell
            continue
        if a is not None:
            taken += 1
            assert 0 < x < math.inf and a.tobytes() == np.array([[x]]).tobytes(), cell
    assert taken > 3000


# ---------------------------------------------------------------------------
# the plain-decimal reader of the CSV parse


def _plain(q, digits, up):
    """The positive rational q rounded down (or up) to `digits` significant
    digits, written as digits "." digits."""
    e = math.floor(math.log10(q))
    e += (F(10) ** (e + 1) <= q) - (F(10) ** e > q)  # 10^e <= q < 10^(e+1)
    scale = digits - 1 - e
    t = q * F(10) ** scale
    m = -(-t.numerator // t.denominator) if up else t.numerator // t.denominator
    if scale <= 0:
        return f"{m * 10 ** -scale}.0"
    text = str(m).rjust(scale + 1, "0")
    return f"{text[:-scale]}.{text[-scale:]}"


def _is_plain(cell):
    """Whether the plain-decimal reader takes the cell: digits "." digits,
    at most 18 significant digits and 22 after the "."."""
    whole, dot, fraction = cell.partition(".")
    return (dot == "." and whole.isascii() and whole.isdigit() and fraction.isascii()
            and fraction.isdigit() and len(fraction) <= 22 and int(whole + fraction) < 10 ** 18)


def _plain_corpus(rng, count):
    """Positive plain-decimal cells that are hard to round: double midpoints
    rounded both ways at 1-18 significant digits, exact midpoints (ties),
    values at and beside powers of two, leading zeros, and random digits."""
    cells = ["00.5", "0.0000000000000001", "000123.456", "0.123456789012345678",
             "12345678901234567.8", "9007199254740993.0", "1.0"]
    for _ in range(count):
        x = 10 ** rng.uniform(-5, 17)
        if rng.random() < 0.2:  # a tie: an integer midpoint above 2^53
            x = float(rng.randrange(2 ** 53, 10 ** 17))
        mid = (F(x) + F(math.nextafter(x, math.inf))) / 2
        cells += [_plain(mid, d, up) for d in range(1, 19) for up in (False, True)]
        if mid.denominator == 1:
            cells.append(f"{mid}.0")
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(2, 18)))
        dot = rng.randint(1, len(digits) - 1)
        cells.append(f"{'0' * rng.randint(0, 2)}{digits[:dot]}.{digits[dot:]}")
    for e in range(-16, 57):
        x = 2.0 ** e
        down, up = math.nextafter(x, 0), math.nextafter(x, math.inf)
        cells += [repr(y) for y in (down, x, up)]
        cells += [_plain(q, d, rounded_up) for q in (F(x), (F(down) + F(x)) / 2, (F(x) + F(up)) / 2)
                  for d in range(14, 19) for rounded_up in (False, True)]
    return [c for c in cells if _is_plain(c) and float(c) > 0]


def _square(cells):
    """The cells, repeated as needed, as the text of a square CSV grid."""
    n = math.isqrt(len(cells) - 1) + 1
    cells = (cells * 2)[:n * n]
    return "".join(",".join(cells[i:i + n]) + "\n" for i in range(0, n * n, n))


def test_plain_reader_matches_float_bit_for_bit(monkeypatch):
    """On hard-to-round plain decimals, the plain-decimal reader (not
    loadtxt) reads float()'s value of every cell.  Some cells need the
    one-ulp step after fl(fl(m) / 10^k), and some (ties) the float() re-read."""
    text = _square(_plain_corpus(random.Random(31), 800))
    reread = []
    monkeypatch.setattr(io, "float", raising=False, value=lambda cell: reread.append(
        cell if isinstance(cell, str) else cell.decode()) or float(cell))
    a = io._plain_decimal_grid(text)
    monkeypatch.undo()
    assert a is not None and a.tobytes() == io._float_grid(text).tobytes()
    cells = [c for line in text.splitlines() for c in line.split(",")]
    assert a.tobytes() == np.array([float(c) for c in cells]).tobytes()
    first = {c for c in cells  # fl(fl(m) / 10^k)
             if int(c.replace(".", "")) / float(10 ** (len(c) - c.index(".") - 1)) != float(c)}
    assert len(cells) > 30000 and reread and set(reread) <= set(cells)
    assert len(first - set(reread)) > 1000  # stepped one ulp and proven


def test_plain_reader_reads_crlf_as_lf(monkeypatch):
    """The hard cells of test_plain_reader_matches_float_bit_for_bit on CRLF
    lines, in several row chunks: the plain-decimal reader reads them as on
    LF lines, bit for bit, and re-reads its ties, whose text then starts with
    the "\\n" of the line end before them, as float() does."""
    lines = _square(_plain_corpus(random.Random(31), 800)).splitlines()
    reread = []
    monkeypatch.setattr(io, "float", raising=False, value=lambda cell: reread.append(cell) or float(cell))
    a = io._plain_decimal_grid("\r\n".join(lines) + "\r\n")
    monkeypatch.undo()
    assert len(lines) > io._CHUNK_CELLS // len(lines) and a is not None  # two row chunks or more
    assert a.tobytes() == io._plain_decimal_grid("\n".join(lines)).tobytes()
    assert any(cell.startswith(b"\n") for cell in reread)


#: texts with "\r" near the plain-decimal grammar: whichever reader takes one,
#: it reads as reference_parse reads it, or gives an error as that does
CRLF_NEAR_PLAIN = [
    "1.0,2.0\r\n.5,1.0\r\n",           # no digit after a line's "\r\n"
    "1.0,2.0\r\r\n0.5,1.0\r\n",         # "\r" twice
    "1.0,2.0\r\n0.5,1.0\r\r\n",
    "1.0,2.0\n\r0.5,1.0\r\n",           # "\n" before "\r"
    "1.0,2.0\r0.5,1.0\r\n",             # "\r" alone
    "1.0,2.0\n0.5,1.0\r\n",             # LF and CRLF lines
    "1.0,2.0\r\n0.5,1.0\n",
    "1.0,2.0\r,\n0.5,1.0\r\n",
    "1.0,2.0\r\n\r\n0.5,1.0\r\n",       # a blank line inside
    "1.0\r,2.0\r\n0.5,1.0\r\n",         # a "\r" in a line
]


@pytest.mark.parametrize("text", CRLF_NEAR_PLAIN, ids=[f"crlf{k}" for k in range(len(CRLF_NEAR_PLAIN))])
def test_crlf_near_plain_inputs_read_as_the_reference(text):
    try:
        expected = reference_parse(text).array.tobytes()
    except (InputError, ValueError):
        with pytest.raises(InputError):
            parse_matrix_text(text)
    else:
        assert parse_matrix_text(text).array.tobytes() == expected


def test_plain_reader_reads_zero():
    """A 0.0 cell reads as 0.0; the grid is then no float matrix."""
    text = "1.0,0.0\n0.0,00.000\n"
    assert io._plain_decimal_grid(text).tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert io._float_grid(text) is None


def _ragged(n, long_row, short_row):
    """An n-row grid of plain decimals in which one row has n + 1 cells and
    another n - 1, so the cell count is n * n."""
    rows = [["1.0" if i == j else "2.0" if i > j else "0.5" for i in range(n)] for j in range(n)]
    rows[long_row].append("1.0")
    rows[short_row].pop()
    return "".join(",".join(r) + "\n" for r in rows)


#: inputs near the plain-decimal grammar, and what they read as before the
#: plain-decimal reader existed: an InputError text, or the matrix's rows
NEAR_PLAIN_INPUTS = [
    ("1.0,2.0,0.5,1.0\n0.5,1.0\n2.0,1.0,1.0\n", "grid is not square"),
    (_ragged(130, 5, 6), "grid is not square"),     # in one row chunk of 126 rows
    (_ragged(130, 5, 120), "grid is not square"),
    (_ragged(130, 125, 126), "grid is not square"),  # across a row chunk boundary
    (_ragged(130, 129, 0), "grid is not square"),
    ("1.0,1.2.5,4\n0.5,1.0,2.0\n1.0,0.5,1.0\n",
     "cannot parse cell '1.2.5': could not convert string to float: '1.2.5'"),
    ("1.0,2.0.,4\n0.5,1.0,2.0\n0.25,0.5,1.0\n",
     "cannot parse cell '2.0.': could not convert string to float: '2.0.'"),
    ("1.0,2.\n.5,1.0\n", [[1.0, 2.0], [0.5, 1.0]]),
    ("1.0,5.\n0.2,1.0\n", [[1.0, 5.0], [0.2, 1.0]]),
    ("1.0,2.0\r\n0.5,1.0\r\n", [[1.0, 2.0], [0.5, 1.0]]),
    ("1.0,\t2.0\n0.5, 1.0\n", [[1.0, 2.0], [0.5, 1.0]]),
    ("1.0,2.0\n0.5,1 .0\n", "cannot parse cell '1 .0': could not convert string to float: '1 .0'"),
    ("1.0,٢.0\n0.5,1.0\n", [[1.0, 2.0], [0.5, 1.0]]),
    ("1.0,2.000000000000000000\n0.5,1.0\n", [[1.0, 2.0], [0.5, 1.0]]),
    # 19 significant digits, which round otherwise than their first 18
    ("1.0,1.000000000000000112\n1.0,1.0\n", [[1.0, 1.0000000000000002], [0.9999999999999998, 1.0]]),
    ("1.0,0.9999999999999999445\n1.0,1.0\n", [[1.0, 1.0], [1.0, 1.0]]),
]


@pytest.mark.parametrize("backend", [None, "float"])
@pytest.mark.parametrize("text, expected", NEAR_PLAIN_INPUTS,
                         ids=[f"near{k}" for k in range(len(NEAR_PLAIN_INPUTS))])
def test_near_plain_inputs_read_as_before(text, expected, backend):
    """The byte check does not misread these: each reads as it did through
    loadtxt, which is where all but the CRLF grid go."""
    if isinstance(expected, str):
        with pytest.raises(InputError) as exc:
            parse_matrix_text(text, backend)
        assert str(exc.value) == expected
    else:
        assert parse_matrix_text(text, backend).array.tobytes() == np.array(expected).tobytes()
    assert (io._plain_decimal_grid(text) is not None) == (text == "1.0,2.0\r\n0.5,1.0\r\n")


def test_plain_reader_memory(monkeypatch):
    """At n = 1024 on repr cells, with LF and with CRLF line ends, the
    plain-decimal reader's tracemalloc peak is at most 1.5 times its 8 MiB
    output; neither text goes to np.loadtxt."""
    monkeypatch.setattr(io, "_csv_lines", lambda text: pytest.fail("split for np.loadtxt"))
    rng = random.Random(41)
    n = 1024
    lines = [",".join([repr(math.exp(rng.uniform(-2.2, 2.2))) for _ in range(n)]) for _ in range(n)]
    for end in ("\n", "\r\n"):
        text = "".join(line + end for line in lines)
        tracemalloc.start()
        try:
            a = io._float_grid(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a is not None and a.nbytes == 8 * 2 ** 20
        assert peak <= 1.5 * a.nbytes, end


def _repr_grid(n, rng):
    """The rows of a random n-by-n float reciprocal matrix as repr cells (plain decimals)."""
    rows = [["1.0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = math.exp(rng.uniform(-2.2, 2.2))
            rows[i][j], rows[j][i] = repr(x), repr(1 / x)
    return rows


def test_parse_memory():
    """parse_matrix_text on an n = 1024 grid of repr cells, read and
    validated, peaks at most 2.5 times its 8 MiB array under tracemalloc."""
    text = "".join(",".join(r) + "\n" for r in _repr_grid(1024, random.Random(43)))
    tracemalloc.start()
    try:
        A = parse_matrix_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.array.nbytes == 8 * 2 ** 20
    assert peak <= 2.5 * A.array.nbytes


_LINES = [",".join(r) for r in _repr_grid(5, random.Random(47))]
_CHUNKED = [",".join(r) for r in _repr_grid(130, random.Random(53))]  # 126 rows to a chunk


#: texts of one grid laid out in lines in different ways (ragged rows are among
#: NEAR_PLAIN_INPUTS), whether the plain-decimal reader takes the text, and the InputError
#: text it gives (None: it reads as reference_parse reads it)
LINE_STRUCTURE = [
    ("\n".join(_LINES), True, None),                        # no final newline
    ("\n".join(_LINES) + "\n\n\n", True, None),              # several trailing newlines
    ("\n".join(_LINES) + "\n \t\n", True, None),
    ("\r\n".join(_LINES) + "\r\n", True, None),              # CRLF
    ("\r\n".join(_LINES), True, None),
    ("\n".join(_CHUNKED), True, None),                      # two row chunks
    ("\r\n".join(_CHUNKED) + "\r\n", True, None),
    ("# m\n  \n\n" + "\n".join(_LINES), True, None),         # a comment and blank lines first
    ("\n" + "\n".join(_LINES), True, None),
    ("  # m\r\n" + "\r\n".join(_CHUNKED), True, None),
    ("# \ud800 \u00e9\n" + "\n".join(_LINES), True, None),  # a comment no codec can encode
    ("# m\n" + "\n".join(_LINES[:2]) + "\n\n" + "\n".join(_LINES[2:]), False, None),  # blank inside
    ("\n".join(_LINES) + "\n# end\n", False, None),
    ("\n".join("  " + line for line in _LINES), False, None),  # leading spaces
    ("# m\r" + "\n".join(_LINES), False, None),               # a data line after "\r"
    ("\r".join(_LINES), False, None),                       # CR alone ends a line too
    ("", False, "no data rows found"),
    ("\n\n", False, "no data rows found"),
    ("# only\n", False, "no data rows found"),
    ("\n".join(_LINES + _LINES[:1]), False, "grid is not square"),         # n + 1 rows
    ("\n".join(_LINES[:-1]), False, "grid is not square"),                 # n - 1 rows
    ("\n".join(_LINES[:2]) + "\n# m\n" + "\n".join(_LINES[2:]), False, None),  # a comment inside
]


@pytest.mark.parametrize("backend", [None, "float"])
@pytest.mark.parametrize("text, plain, message", LINE_STRUCTURE,
                         ids=[f"lines{k}" for k in range(len(LINE_STRUCTURE))])
def test_line_structure_reads_as_before(text, plain, message, backend, monkeypatch):
    """Line ends, blank and comment lines, padding and ragged rows: a grid
    reads as the per-cell reference reads it, or gives the same error.  The
    text the plain-decimal reader takes never reaches loadtxt."""
    assert (io._plain_decimal_grid(text) is not None) == plain
    if message is not None:
        with pytest.raises(InputError) as exc:
            parse_matrix_text(text, backend)
        assert str(exc.value) == message
        return
    expected = reference_parse(text, backend)
    if plain:
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("loadtxt called"))
    assert parse_matrix_text(text, backend).array.tobytes() == np.array(expected.entries).tobytes()


def test_routing_reads_the_data_lines_one_at_a_time():
    """The lines that route CSV text (a decimal mark or exponent in one of
    them sends it to the float reader) are str.splitlines' lines, stripped,
    but for blank and "#" lines, at every line boundary splitlines knows."""
    texts = PARSE_CORPUS + [text for text, _, _ in LINE_STRUCTURE] + ["1\r\n\r\n2"]
    texts += [f"1{sep} #x{sep}{sep} 2.0 {sep}3" for sep in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"]
    for text in texts:
        lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
        assert list(io._data_lines(text)) == lines, text


def test_byte_order_mark_file_reads_as_without(tmp_path):
    text = "\n".join(_LINES) + "\n"
    path = tmp_path / "m.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert io.load_matrix(path).array.tobytes() == np.array(reference_parse(text).entries).tobytes()


#: odd CSV (and JSON) inputs and the InputError text they give, on every backend but "exact"
ODD_INPUTS = [
    ("1,2.0\n,1\n", "cannot parse cell '': invalid literal for int() with base 10: ''"),
    ("1,2.0,\n0.5,1,\n", "cannot parse cell '': invalid literal for int() with base 10: ''"),
    ("1, ,0.5\n1,1,1\n2.0,1,1\n",
     "cannot parse cell ' ': invalid literal for int() with base 10: ''"),
    ('1,"2.0"\n0.5,1\n',
     "cannot parse cell '\"2.0\"': could not convert string to float: '\"2.0\"'"),
    ("1,2.0 # note\n0.5,1\n",
     "cannot parse cell '2.0 # note': could not convert string to float: '2.0 # note'"),
    ("1,nan\n1.0,1\n", "cannot parse cell 'nan': invalid literal for int() with base 10: 'nan'"),
    ("1.0,inf\n0,1\n", "cannot parse cell 'inf': invalid literal for int() with base 10: 'inf'"),
    ("1,2.0\n0.5,-inf\n",
     "cannot parse cell '-inf': invalid literal for int() with base 10: '-inf'"),
    ("1,1e400\n1e-400,1\n", "cell (0,1) too large for a float: '1e400'"),
    ("1,1e-400\n1e400,1\n", "cell (0,1) rounds to 0.0 as a float"),
    ("1.0,1e-400\n1,1\n", "cell (0,1) rounds to 0.0 as a float"),
    (f"1.0,{'1' + '0' * 399}\n1e-399,1\n",
     "cell (0,1) too large for a float: integer division result too large for a float"),
    (f"1,{'1' + '0' * 399}.0\n0.5,1\n", f"cell (0,1) too large for a float: '{'1' + '0' * 399}.0'"),
    ("1,2.0,4.0\n0.5,1\n0.25,1,1\n", "grid is not square"),
    ("1,2.0\n0.5,1,1\n", "grid is not square"),
    ("1.0\n2.0\n", "grid is not square"),
    ("1.0,2.0\n", "need n >= 2, got 1"),
    ("1.0,-0\n-0,1\n", "entry (0,1) = 0.0 is not positive"),  # the reader reads -0.0
    ("1.0,2.0\n0.5,-1.0\n", "entry (1,1) = -1.0 is not positive"),
    ("1.0,1e400\n0.5,1.0\n", "cell (0,1) too large for a float: '1e400'"),
    ("1.0,2.0\n1e-400,1.0\n", "cell (1,0) rounds to 0.0 as a float"),
    ("1.0,2.0\n0.5,-1E+400\n", "cell (1,1) too large for a float: '-1E+400'"),
    ("1.0,2.0\n0.5,0.0e-400\n", "entry (1,1) = 0.0 is not positive"),  # a zero is no underflow
    (f"1.0,{'1' + '0' * 399}\n1e-400,1\n",  # the first cell beyond the floats in row-major order
     "cell (0,1) too large for a float: integer division result too large for a float"),
    (f"1.0,1e-400\n{'1' + '0' * 399},1\n", "cell (0,1) rounds to 0.0 as a float"),
    (f"1.0,1e-400,1/{'1' + '0' * 399}\n1,1,1\n1,1,1\n", "cell (0,1) rounds to 0.0 as a float"),
    (f"1.0,1/{'1' + '0' * 399},1e-400\n1,1,1\n1,1,1\n", "cell (0,1) rounds to 0.0 as a float"),
    ('[[1, 1e400], [1e-400, 1]]', "cell (0,1) too large for a float: '1e400'"),
    ('{"entries": [[1, 2.0], [1e-400, 1]]}', "cell (1,0) rounds to 0.0 as a float"),
]


@pytest.mark.parametrize("backend", [None, "float"])
@pytest.mark.parametrize("text, message", ODD_INPUTS, ids=[f"odd{k}" for k in range(len(ODD_INPUTS))])
def test_odd_inputs_keep_their_error_text(text, message, backend):
    with pytest.raises(InputError) as exc:
        parse_matrix_text(text, backend)
    assert str(exc.value) == message


#: vectors whose decimal cells leave the floats, and the InputError text they give on
#: every backend but "exact"
ODD_VECTORS = [
    ("1e400,1\n", "cell (0) too large for a float: '1e400'"),
    ("1\n1e-400\n", "cell (1) rounds to 0.0 as a float"),
    ("[1, 1e-400]", "cell (1) rounds to 0.0 as a float"),
    ('{"entries": [2.5, -1e400]}', "cell (1) too large for a float: '-1e400'"),
    (f"{'1' + '0' * 399},1e400\n",
     "cell (0) too large for a float: integer division result too large for a float"),
]


@pytest.mark.parametrize("backend", [None, "float"])
@pytest.mark.parametrize("text, message", ODD_VECTORS,
                         ids=[f"vector{k}" for k in range(len(ODD_VECTORS))])
def test_odd_vectors_name_their_cell(text, message, backend):
    with pytest.raises(InputError) as exc:
        io.parse_vector_text(text, backend)
    assert str(exc.value) == message


def test_exact_backend_reads_beyond_the_floats():
    A = parse_matrix_text("1,1e400\n1e-400,1\n", "exact")
    assert A.exact and A.entries[0][1] == F(10) ** 400 == 1 / A.entries[1][0]
    assert io.parse_vector_text("1e400,1e-400\n", "exact") == (F(10) ** 400, F(1, 10 ** 400))


#: inputs that read the same through either route
SAME_VALUE_INPUTS = [
    f"1,1_000.5\n{1 / 1000.5!r},1\n",                        # underscores
    f"\u0661,\u0661.\u0665\n{1 / 1.5!r},\u0661\n",         # Arabic-Indic digits
    "1,2.0,1/2\n0.5,1,0.25\n2,4.0,1\n",                      # p/q cells in float rows
    "1,2,4\n0.5,1,2\n0.25,0.5,1\n",                          # an all-integer row
    "1,1,1\n1,1,1\n1,1,1\n",                                 # all integers
    "# m\r\n1,2.0\r\n\r\n0.5,1\r\n",                         # CRLF
    "1,3,1e2\r\n0.3333333333333333,1,5E-1\r\n1e-2,2,1\r\n",
]


@pytest.mark.parametrize("backend", [None, "float"])
@pytest.mark.parametrize("text", SAME_VALUE_INPUTS,
                         ids=[f"same{k}" for k in range(len(SAME_VALUE_INPUTS))])
def test_odd_inputs_read_the_same_value(text, backend):
    expected = reference_parse(text, backend)
    A = parse_matrix_text(text, backend)
    assert A.exact == expected.exact
    assert A.entries == expected.entries
    assert [list(map(type, r)) for r in A.entries] == [list(map(type, r)) for r in expected.entries]


def test_all_ones_integer_csv_stays_exact():
    A = parse_matrix_text("1,1,1\n1,1,1\n1,1,1\n")
    assert A.exact and A.entries == ((F(1),) * 3,) * 3
    assert not parse_matrix_text("1,1\n1,1\n", "float").exact


# ---------------------------------------------------------------------------
# float validation in row panels


def _panel_grid(n, changes):
    """2.0 above the diagonal, 0.5 below it and 1.0 on it, with the changes made."""
    a = np.full((n, n), 2.0)
    a[np.tril_indices(n, -1)] = 0.5
    np.fill_diagonal(a, 1.0)
    for (i, j), x in changes.items():
        a[i, j] = x
    return a


#: (changes as functions of n, the InputError text with n's last index as {last})
PANEL_ERRORS = [
    # a pair within TOL_RECIP, a bad pair in the second 64-row panel and one in the last
    (lambda last: {(5, 6): 2.0000000000008, (70, 100): 3.0, (last - 1, last): 5.0},
     "a[70][100] * a[100][70] = 1.5 deviates from 1 beyond 1e-12"),
    # a bad a_ji in the last panel's rows names the pair (i, j) of the first panel
    (lambda last: {(last, 10): 0.25, (70, 100): 3.0},
     "a[10][{last}] * a[{last}][10] = 0.5 deviates from 1 beyond 1e-12"),
    (lambda last: {(70, 100): 3.0, (90, 90): 2.0},  # a bad diagonal after a bad pair
     "a[70][100] * a[100][70] = 1.5 deviates from 1 beyond 1e-12"),
    (lambda last: {(65, 65): 1.5, (70, 100): 3.0}, "diagonal entry (65,65) = 1.5 != 1"),
    (lambda last: {(70, 100): 3.0, (70, 70): 1.0000001}, "diagonal entry (70,70) = 1.0000001 != 1"),
    # a product past the floats is inf, with no RuntimeWarning
    (lambda last: {(3, 100): 1e200, (100, 3): 1e200, (80, 90): 3.0},
     "a[3][100] * a[100][3] = inf deviates from 1 beyond 1e-12"),
    # non-positive cells below the diagonal come before any pair
    (lambda last: {(0, 1): 3.0, (last, 3): 0.0, (100, 2): -0.5}, "entry (100,2) = -0.5 is not positive"),
    (lambda last: {(last, 3): -0.0, (64, 64): 2.0}, "entry ({last},3) = -0.0 is not positive"),
]


@pytest.mark.parametrize("n", [130, 200])
@pytest.mark.parametrize("changes, message", PANEL_ERRORS,
                         ids=[f"panel{k}" for k in range(len(PANEL_ERRORS))])
def test_panel_validation_names_the_first_bad_entry(n, changes, message):
    with pytest.raises(InputError) as exc:
        validate_reciprocal(_panel_grid(n, changes(n - 1)))
    assert str(exc.value) == message.format(last=n - 1)


@pytest.mark.parametrize("n", [2, 63, 64, 65, 130, 200])
def test_panel_validation_renormalizes_like_the_loop(n):
    """a_ji is 1/a_ij bit for bit across panel edges, also where the text's
    a_ji was off by less than TOL_RECIP."""
    rng = random.Random(n)
    rows = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = math.exp(rng.uniform(-5, 5))
            rows[j][i] = 1 / rows[i][j] * (1 + rng.uniform(-4e-13, 4e-13))
    A = validate_reciprocal(np.array(rows))
    assert A.array.tobytes() == np.array(reference_validate(rows).entries).tobytes()
    assert A.array.flags.c_contiguous and not A.array.flags.writeable


# ---------------------------------------------------------------------------
# the float matrix is its array


def test_float_check_builds_no_entries():
    """The `effvec check` pipeline on a float CSV never reads an entry one by
    one, so the per-entry tuples are never built."""
    rng = random.Random(17)
    for text_n in (9, 40):
        A = parse_matrix_text(_random_csv(text_n, rng, repr))
        column = tuple(A.array[:, 0].tolist())  # a column of A is efficient
        other = (column[0] * 1e6,) + column[1:]  # index 0 alone is a source: inefficient
        for w in (column, other):
            v = is_efficient(A, w)
            json.dumps(v.to_dict(edges=True))
            if not v.efficient:
                dominance_compare(A, w, v.dominator)
        assert is_efficient(A, column).efficient and not is_efficient(A, other).efficient
        assert A.n == text_n and "entries" not in A.__dict__
        assert A.entries == tuple(map(tuple, A.array.tolist()))
        assert "entries" in A.__dict__ and A.entries is A.entries


def test_float_matrix_equality_hash_repr():
    rng = random.Random(19)
    texts = [_random_csv(n, rng, repr) for n in (2, 3, 5)] + ["1,1\n1,1\n"]
    for text in texts:
        A, B = parse_matrix_text(text, "float"), parse_matrix_text(text, "float")
        plain = ReciprocalMatrix(tuple(map(tuple, A.array.tolist())), False)
        assert repr(B) == repr(plain)  # B's tuples built by repr
        assert A == plain and plain == A and hash(A) == hash(plain) and A == B
        assert A != ReciprocalMatrix(plain.entries, True)
        assert A != parse_matrix_text(_random_csv(A.n, rng, repr))
        with pytest.raises(FrozenInstanceError):
            A.n = 3
    E = validate_reciprocal([[1, F(1, 3), 7], [3, 1, F(2, 5)], [F(1, 7), F(5, 2), 1]])
    Ef = E.to_float()
    assert not Ef.exact and "entries" not in Ef.__dict__ and Ef.array is E.array
    plain = ReciprocalMatrix(tuple(tuple(map(float, r)) for r in E.entries), False)
    assert Ef == plain and hash(Ef) == hash(plain) and repr(Ef) == repr(plain)
    assert Ef != E and Ef.to_float() is Ef


def test_float_submatrix_slices_the_array():
    """submatrix and delete on a float matrix slice its array: the same
    entries, equality and hash as the per-entry path, and no tuples built."""
    rng = random.Random(23)
    for n in (2, 3, 9, 40):
        A = parse_matrix_text(_random_csv(n, rng, repr))
        rows = A.array.tolist()
        tupled = ReciprocalMatrix(tuple(map(tuple, rows)), False)
        keeps = [range(n), range(n - 1, -1, -1), [0], rng.sample(range(n), max(1, n // 2))]
        for keep, sub in [(k, A.submatrix(k)) for k in keeps] + [
                ([k for k in range(n) if k != i], A.delete(i)) for i in (0, n // 2, n - 1)]:
            assert "entries" not in A.__dict__ and "entries" not in sub.__dict__
            assert not sub.exact and not sub.array.flags.writeable
            plain = ReciprocalMatrix(tuple(tuple(rows[i][j] for j in keep) for i in keep), False)
            assert sub.entries == plain.entries and sub.n == len(keep)
            assert sub == plain and plain == sub and hash(sub) == hash(plain)
            assert tupled.submatrix(keep) == plain
    E = validate_reciprocal([[1, F(1, 3), 7], [3, 1, F(2, 5)], [F(1, 7), F(5, 2), 1]])
    E.array  # an exact matrix that holds its float view keeps its entries
    assert E.submatrix((2, 0)) == ReciprocalMatrix(((F(1), F(1, 7)), (F(7), F(1))), True)
    assert E.to_float().delete(1) == ReciprocalMatrix(((1.0, 7.0), (1 / 7, 1.0)), False)


def test_extension_interval_reads_the_array_column():
    """On a float matrix that is its array, extension_interval reads column k
    of the array and builds no entries; the interval is the per-entry one."""
    rng = random.Random(29)
    for n in (3, 9, 40):
        A = parse_matrix_text(_random_csv(n, rng, repr))
        tupled = ReciprocalMatrix(tuple(map(tuple, A.array.tolist())), False)
        for k in (0, n // 2, n - 1):
            w = tupled.delete(k).column(rng.randrange(n - 1))  # a column is efficient
            iv = extension_interval(A, w, k)
            assert "entries" not in A.__dict__
            assert iv == extension_interval(tupled, w, k)
            assert A.column(k) == tupled.column(k)
            ratios = [x / tupled[i, k] for x, i in zip(w, (i for i in range(n) if i != k))]
            assert (iv.lo, iv.hi) == (min(ratios), max(ratios))


# ---------------------------------------------------------------------------
# edge rule, components, dominator, comparison, report


def reference_succ(A, w, tol_edge=TOL_EDGE):
    n = A.n
    return [frozenset(j for j in range(n) if j != i and
                      float(w[i]) / float(w[j]) >= float(A[i, j]) * (1.0 - tol_edge))
            for i in range(n)]


def reference_components(succ):
    n = len(succ)
    score = [len(out) for out in succ]
    for out in succ:
        for j in out:
            score[j] -= 1
    order = sorted(range(n), key=lambda i: -score[i])
    comps = []
    start = total = 0
    for k, v in enumerate(order, 1):
        total += score[v]
        if total == k * (n - k):
            comps.append(tuple(sorted(order[start:k])))
            start = k
    return comps[::-1]


def reference_dominator(A, w, S):
    t = None
    for i in S:
        for j in range(A.n):
            if j not in S:
                cand = A[i, j] * w[j] / w[i]
                assert cand < 1
                t = cand if t is None or cand > t else t
    return tuple(w[i] * t if i in S else w[i] for i in range(A.n))


def reference_compare(A, w, v):
    n = A.n
    w = tuple(float(x) for x in w)
    v = tuple(float(x) for x in v)
    if all(abs(a * w[0] / (b * v[0]) - 1.0) <= 1e-12 for a, b in zip(v, w)):
        return EQUAL
    v_le = w_le = True
    for i in range(n):
        for j in range(n):
            if i != j:
                a = A[i, j]
                gap = abs(a - v[i] / v[j]) - abs(a - w[i] / w[j])
                slack = 1e-12 * max(a, w[i] / w[j], v[i] / v[j])
                if gap > slack:
                    v_le = False
                if gap < -slack:
                    w_le = False
    return V_DOMINATES if v_le else W_DOMINATES if w_le else INCOMPARABLE


def reference_report(succ, comps, dominator):
    n = len(succ)
    d = {
        "status": "efficient" if len(comps) == 1 else "inefficient",
        "scc_partition": [[v + 1 for v in c] for c in comps],
        "edge_list": [(i + 1, j + 1) for i in range(n) for j in sorted(succ[i])],
    }
    if len(comps) > 1:
        d["source_set"] = [v + 1 for v in comps[-1]]
        d["dominator"] = [float(x) for x in dominator]
    return json.dumps(d)


def float_instance(n, rng, kind):
    """A random float matrix and a vector: "column" gives w_i/w_j = a_ij ties,
    "groups" a near-consistent A with a scaled-up group (multi-vertex sources)."""
    u = [math.exp(rng.gauss(0, 2)) for _ in range(n)]
    rows = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "random":
                rows[i][j] = math.exp(rng.gauss(0, 1.5))
            else:
                rows[i][j] = u[i] / u[j] * math.exp(rng.gauss(0, 0.05))
            rows[j][i] = 1 / rows[i][j]
    A = validate_reciprocal(rows)
    if kind == "column":
        return A, A.column(rng.randrange(n))
    if kind == "groups":
        group = set(rng.sample(range(n), rng.randint(1, max(1, n - 1))))
        return A, tuple(u[i] * (8.0 if i in group else 1.0) for i in range(n))
    return A, tuple(math.exp(rng.gauss(0, 2)) for _ in range(n))


def test_float_path_matches_loop_references():
    rng = random.Random(2024)
    multi_source = ties = 0
    kinds = ["random", "column", "groups", "near"]
    for trial in range(160):
        n = rng.choice([2, 3, 4, 5, 8, 13, 21, 34, 64]) if trial % 2 else rng.randint(2, 64)
        A, w = float_instance(n, rng, kinds[trial % 4])
        succ = reference_succ(A, w)
        ties += sum(j in succ[i] and i in succ[j] for i in range(n) for j in range(i))
        G = build_digraph(A, w)
        assert list(G.succ) == succ
        assert [G.has_edge(i, j) for i in range(n) for j in range(n)] == \
            [j in succ[i] for i in range(n) for j in range(n)]
        comps = reference_components(succ)
        v = is_efficient(A, w)
        assert list(v.components) == comps
        assert v.efficient == (len(comps) == 1)
        dom = None
        if not v.efficient:
            assert v.source_set == comps[-1]
            multi_source += len(v.source_set) > 1
            dom = reference_dominator(A, w, set(comps[-1]))
            assert v.dominator == dom
            assert all(type(x) is float for x in v.dominator)
            for a, b in [(w, dom), (dom, w), (w, w)]:
                assert dominance_compare(A, a, b) == reference_compare(A, a, b)
        other = tuple(x * math.exp(rng.gauss(0, 0.1)) for x in w)
        assert dominance_compare(A, w, other) == reference_compare(A, w, other)
        full = v.to_dict(edges=True)
        assert json.dumps(full) == reference_report(succ, comps, dom)
        assert list(v.to_dict().items()) == [kv for kv in full.items() if kv[0] != "edge_list"]
    assert multi_source >= 20 and ties >= 100


def full_compare(A, w, v):
    """dominance_compare's float answer from all n^2 gaps at once."""
    w, v = np.array(w, float), np.array(v, float)
    with np.errstate(all="ignore"):
        r = v / w
        if (np.abs(r / r[0] - 1.0) <= TOL_DOMINANCE).all():
            return EQUAL
        a, rv, rw = A.array, v[:, None] / v, w[:, None] / w
        gap = np.abs(a - rv) - np.abs(a - rw)
        slack = np.minimum(TOL_DOMINANCE * np.maximum(np.maximum(a, rv), rw), np.finfo(float).max)
    v_le, w_le = not (gap > slack).any(), not (gap < -slack).any()
    return V_DOMINATES if v_le else W_DOMINATES if w_le else INCOMPARABLE


def test_dominance_compare_on_changed_entries():
    """Comparing only the rows and columns of the entries v and w do not
    share answers as the full n^2 comparison does: dominators and vectors that
    scale 1..n entries, scalar multiples, rescaled dominators (every entry
    changes) and entries near 1e+-200, whose ratios are inf or NaN."""
    rng = random.Random(59)
    seen = set()
    for n, kind in [(5, "random"), (17, "groups"), (64, "random"), (64, "groups"), (300, "random"),
                    (300, "groups"), (700, "groups")]:
        A, w = float_instance(n, rng, kind)
        pairs = []
        v = is_efficient(A, w)
        if not v.efficient:
            pairs += [(w, v.dominator), (w, tuple(2.5 * x for x in v.dominator))]
        counts = range(1, n + 1) if n <= 64 else sorted({1, 2, 3, n // 4, n // 2 - 1, n // 2, n - 1, n})
        for count in counts:
            moved = set(rng.sample(range(n), count))
            for c in (1.5, 1 / 1.5, 1 + 1e-13, 8.0):
                pairs.append((w, tuple(x * c if i in moved else x for i, x in enumerate(w))))
        pairs.append((w, tuple(3.7 * x for x in w)))
        huge = tuple(1e200 if i % 3 == 0 else 1e-200 if i % 3 == 1 else x for i, x in enumerate(w))
        pairs += [(huge, tuple(x * 1.5 if i == 1 else x for i, x in enumerate(huge))),
                  (huge, tuple(1e-200 if i == 0 else x for i, x in enumerate(huge))),
                  (w, tuple(1e200 if i == 2 else x for i, x in enumerate(w)))]
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                answer = dominance_compare(A, x, y)
                assert answer == full_compare(A, x, y), (n, kind)
                seen.add(answer)
    assert seen == {EQUAL, V_DOMINATES, W_DOMINATES, INCOMPARABLE}


def test_dominance_compare_row_blocks():
    """n = 300 runs over more than one row block."""
    rng = random.Random(7)
    A, w = float_instance(300, rng, "random")
    for k in (0, 150, 299):
        v = list(w)
        v[k] *= 1.5
        v = tuple(v)
        assert dominance_compare(A, w, v) == reference_compare(A, w, v)
        assert dominance_compare(A, v, w) == reference_compare(A, v, w)
