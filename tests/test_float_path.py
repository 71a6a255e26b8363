"""The float backend's array code against per-entry loop references.

The references below are per-entry Python loops for the parse (parse_scalar
on every cell), float validation, edge rule, score cuts, dominator,
comparison and report.  They live here, not in the package, so the array
code is checked against an independent implementation that makes the same
float operations: every answer must be identical, bit for bit where floats
are returned.
"""

import json
import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import numpy as np
import pytest

from effvec import (build_digraph, dominance_compare, extension_interval, io, is_efficient,
                    validate_reciprocal)
from effvec.efficiency import EQUAL, INCOMPARABLE, TOL_EDGE, V_DOMINATES, W_DOMINATES
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
    a = io._float_grid(lines)
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
        a = io._float_grid([cell])
        try:
            x = float(cell)
        except ValueError:
            assert a is None, cell
            continue
        if a is not None:
            taken += 1
            assert 0 < x < math.inf and a.tobytes() == np.array([[x]]).tobytes(), cell
    assert taken > 3000


#: odd CSV inputs and the InputError text they give, on every backend but "exact"
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
    ("1,1e400\n1e-400,1\n", "entry (1,0) = 0.0 is not positive"),
    ("1,1e-400\n1e400,1\n", "entry (0,1) = 0.0 is not positive"),
    ("1.0,1e-400\n1,1\n", "entry (0,1) = 0.0 is not positive"),
    (f"1.0,{'1' + '0' * 399}\n1e-399,1\n",
     "cell (0,1) too large for a float: integer division result too large for a float"),
    (f"1,{'1' + '0' * 399}.0\n0.5,1\n", "a[0][1] * a[1][0] = inf deviates from 1 beyond 1e-12"),
    ("1,2.0,4.0\n0.5,1\n0.25,1,1\n", "grid is not square"),
    ("1,2.0\n0.5,1,1\n", "grid is not square"),
    ("1.0\n2.0\n", "grid is not square"),
    ("1.0,2.0\n", "need n >= 2, got 1"),
    ("1.0,-0\n-0,1\n", "entry (0,1) = 0.0 is not positive"),  # the reader reads -0.0
    ("1.0,2.0\n0.5,-1.0\n", "entry (1,1) = -1.0 is not positive"),
]


@pytest.mark.parametrize("backend", [None, "float"])
@pytest.mark.parametrize("text, message", ODD_INPUTS, ids=[f"odd{k}" for k in range(len(ODD_INPUTS))])
def test_odd_inputs_keep_their_error_text(text, message, backend):
    with pytest.raises(InputError) as exc:
        parse_matrix_text(text, backend)
    assert str(exc.value) == message


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
