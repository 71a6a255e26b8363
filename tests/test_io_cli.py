import argparse
import codecs
import importlib.metadata
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import effvec
from effvec import block_matrix, perron
from effvec.cli import build_parser, main
from effvec.errors import InputError
from effvec.fixtures import B3
from effvec.io import (
    load_matrix,
    parse_matrix_text,
    parse_scalar,
    parse_vector_text,
    scalar_repr,
)
from effvec.perron import TOL_PERRON


class TestParseScalar:
    def test_rational(self):
        assert parse_scalar("3/4") == F(3, 4)

    def test_int(self):
        v = parse_scalar("7")
        assert v == 7 and isinstance(v, F)

    def test_decimal_float(self):
        v = parse_scalar("0.5")
        assert v == 0.5 and isinstance(v, float)

    def test_decimal_exact_backend(self):
        v = parse_scalar("0.5", backend="exact")
        assert v == F(1, 2) and isinstance(v, F)

    def test_garbage(self):
        with pytest.raises(InputError, match="cannot parse cell 'x/y'"):
            parse_scalar("x/y")
        with pytest.raises(InputError, match="cannot parse cell '1/0'"):
            parse_scalar("1/0")


class TestParseMatrix:
    def test_csv(self):
        A = parse_matrix_text("1,2\n1/2,1\n")
        assert A.n == 2 and A[0, 1] == 2 and A.exact

    def test_csv_comments_blanks(self):
        A = parse_matrix_text("# header\n\n1,3\n1/3,1\n")
        assert A[0, 1] == 3

    def test_json_dict(self):
        A = parse_matrix_text(json.dumps({"n": 2, "entries": [["1", "2"], ["1/2", "1"]]}))
        assert A[1, 0] == F(1, 2)

    def test_json_bare_list(self):
        A = parse_matrix_text("[[1, 2], [0.5, 1]]")
        assert not A.exact

    def test_json_n_mismatch(self):
        with pytest.raises(InputError, match="declared n=3 but found 2 rows"):
            parse_matrix_text(json.dumps({"n": 3, "entries": [[1, 2], [0.5, 1]]}))

    def test_backend_float_coercion(self):
        A = parse_matrix_text("1,2\n1/2,1\n", backend="float")
        assert not A.exact and A[0, 1] == 2.0


class TestParseVector:
    def test_row(self):
        assert parse_vector_text("1,2,3\n") == (F(1), F(2), F(3))

    def test_column(self):
        assert parse_vector_text("1\n2\n3\n") == (F(1), F(2), F(3))

    def test_json(self):
        assert parse_vector_text('["1/2", 2]') == (F(1, 2), F(2))

    def test_ragged(self):
        with pytest.raises(InputError, match="single CSV row or column"):
            parse_vector_text("1,2\n3\n")

    @pytest.mark.parametrize("text, message", [
        ("1e400,1,1", r"^cell \(0\) too large for a float: '1e400'$"),
        ("[Infinity, 1, 1]", "is not positive and finite"),
    ], ids=["1e400,1,1", "[Infinity, 1, 1]"])
    def test_non_finite_rejected(self, text, message):
        with pytest.raises(InputError, match=message):
            parse_vector_text(text)

    @pytest.mark.parametrize("text", ["[Infinity, 1, 1]", "[NaN, 1, 1]"])
    def test_non_finite_json_exact_backend(self, text):
        with pytest.raises(InputError, match="cannot parse cell"):
            parse_vector_text(text, "exact")

    def test_json_n_mismatch(self):
        with pytest.raises(InputError, match="declared n=3 but found 2 entries"):
            parse_vector_text('{"n": 3, "entries": [1, 2]}')
        assert parse_vector_text('{"n": 2, "entries": [1, 2]}') == (F(1), F(2))


@pytest.mark.parametrize("backend", [None, "exact", "float"])
def test_json_decimals_parse_like_csv(backend):
    """A decimal JSON number reads exactly like the same CSV cell."""
    A_json = parse_matrix_text("[[1, 1e-13], [1e13, 1]]", backend)
    A_csv = parse_matrix_text("1,1e-13\n1e13,1\n", backend)
    assert A_json.exact == A_csv.exact and A_json.entries == A_csv.entries
    w_json = parse_vector_text("[0.30000000000000004, 3]", backend)
    w_csv = parse_vector_text("0.30000000000000004,3", backend)
    assert w_json == w_csv and list(map(type, w_json)) == list(map(type, w_csv))
    if backend == "exact":
        assert A_json[0, 1] == F(1, 10**13)
        assert w_json[0] == F(30000000000000004, 10**17)


def test_scalar_repr_round_trip():
    assert scalar_repr(F(3, 4)) == "3/4"
    assert scalar_repr(F(5)) == 5
    assert scalar_repr(0.25) == 0.25


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


CC_CSV = "1,2,3,1/2\n1/2,1,1,1\n1/3,1,1,1\n2,1,1,1\n"


class TestCheckCommand:
    def test_efficient_exit_zero(self, files, capsys):
        m = files("m.csv", CC_CSV)
        v = files("v.csv", "3,2,1,2\n")
        assert main(["check", m, v, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "efficient"

    def test_inefficient_exit_one(self, files, capsys):
        m = files("m.csv", "1,2,3\n1/2,1,1\n1/3,1,1\n")
        v = files("v.csv", "3,2,1\n")
        assert main(["check", m, v, "--format", "json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "inefficient"
        assert out["source_set"] and out["dominator"]

    #: stdout of `check --format json` before the edge list became opt-in,
    #: on CC_CSV with 3,2,1,2 and on the 3-by-3 of test_inefficient_exit_one
    FULL_REPORTS = {
        (CC_CSV, "3,2,1,2\n"): (
            0, '{"status": "efficient", "scc_partition": [[1, 2, 3, 4]], "edge_list": '
               '[[1, 3], [1, 4], [2, 1], [2, 3], [2, 4], [3, 1], [4, 2], [4, 3]]}\n'),
        ("1,2,3\n1/2,1,1\n1/3,1,1\n", "3,2,1\n"): (
            1, '{"status": "inefficient", "scc_partition": [[1, 3], [2]], "edge_list": '
               '[[1, 3], [2, 1], [2, 3], [3, 1]], "source_set": [2], "dominator": [3, "3/2", 1]}\n'),
    }

    @pytest.mark.parametrize("inputs", FULL_REPORTS, ids=["efficient", "inefficient"])
    def test_edges_flag_keeps_full_report(self, files, capsys, inputs):
        """--edges prints the full report byte for byte; the default report is
        the same object without edge_list."""
        rc, full = self.FULL_REPORTS[inputs]
        m, v = files("m.csv", inputs[0]), files("v.csv", inputs[1])
        assert main(["check", m, v, "--format", "json", "--edges"]) == rc
        assert capsys.readouterr().out == full
        assert main(["check", m, v, "--format", "json"]) == rc
        out = json.loads(capsys.readouterr().out)
        expected = json.loads(full)
        del expected["edge_list"]
        assert list(out.items()) == list(expected.items())

    def test_report_size_linear(self, files, capsys):
        """Float n = 512, inefficient: the default report stays under 64 bytes
        per vertex, and --edges lists every one of the at least n(n-1)/2 edges."""
        n = 512
        rng = random.Random(3)
        rows = [[1.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = math.exp(rng.gauss(0, 1))
                rows[j][i] = 1 / rows[i][j]
        w = [math.exp(rng.gauss(0, 1)) for _ in range(n)]
        w[7] = 2 * max(a * x for a, x in zip(rows[7], w))  # a dominator of n floats
        m = files("m.csv", "".join(",".join(map(repr, r)) + "\n" for r in rows))
        v = files("v.csv", ",".join(map(repr, w)) + "\n")
        assert main(["check", m, v, "--format", "json"]) == 1
        out = capsys.readouterr().out
        assert len(out) < 64 * n and "edge_list" not in json.loads(out)
        assert main(["check", m, v, "--format", "json", "--edges"]) == 1
        assert len(json.loads(capsys.readouterr().out)["edge_list"]) >= n * (n - 1) // 2

    @pytest.mark.parametrize("vector", ["1e308,1e-308", "5e-324,1.0"])
    def test_float_dominator_underflow(self, files, capsys, vector):
        """w_i * t underflows to 0.0; the report's dominator is still (2, 1)
        up to scale, positive and finite."""
        m = files("m.csv", "1.0,2.0\n0.5,1.0\n")
        assert main(["check", m, files("v.csv", vector + "\n"), "--format", "json"]) == 1
        dom = json.loads(capsys.readouterr().out)["dominator"]
        assert all(0 < x < math.inf for x in dom) and dom[0] == 2 * dom[1]

    def test_exact_dominator_beyond_floats(self, files, capsys):
        """An exact dominator is written as exact values, so one outside the
        float range still makes a JSON report."""
        m = files("m.csv", f"1,1{'0' * 800}\n1/1{'0' * 800},1\n")
        v = files("v.csv", f"1{'0' * 400},1\n")
        assert main(["check", m, v, "--format", "json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "inefficient" and out["source_set"] == [2]
        assert [F(x) for x in out["dominator"]] == [F(10) ** 400, F(1, 10**400)]

    def test_csv_format(self, files, capsys):
        m = files("m.csv", "1,2,3\n1/2,1,1\n1/3,1,1\n")
        v = files("v.csv", "3,2,1\n")
        assert main(["check", m, v, "--format", "csv"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "status,inefficient"
        assert lines[1].startswith("dominator,")

    def test_table_format_no_color(self, files, capsys, monkeypatch):
        monkeypatch.setenv("EFFVEC_NO_COLOR", "1")
        m = files("m.csv", CC_CSV)
        v = files("v.csv", "3,2,1,2\n")
        assert main(["check", m, v]) == 0
        assert "EFFICIENT" in capsys.readouterr().out

    def test_table_format_inefficient(self, files, capsys, monkeypatch):
        """An inefficient table report adds the source set and the dominator."""
        monkeypatch.setenv("EFFVEC_NO_COLOR", "1")
        m = files("m.csv", "1,2,4\n1/2,1,2\n1/4,1/2,1\n")
        v = files("v.csv", "1,2,3\n")
        assert main(["check", m, v, "--format", "table"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "INEFFICIENT",
            "components: [[1], [2], [3]]",
            "source set: [3]",
            "dominating vector: 1 2 1",
        ]

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "/nonexistent/a.csv", "/nonexistent/b.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_matrix_exit_two(self, files, capsys):
        m = files("m.csv", "1,2\n3,1\n")
        v = files("v.csv", "1,1\n")
        assert main(["check", m, v]) == 2

    @pytest.mark.parametrize("text", ["1e400,2,1,2\n", "[Infinity, 2, 1, 2]"])
    def test_non_finite_vector_exit_two(self, files, capsys, text):
        m = files("m.csv", CC_CSV)
        v = files("v.csv", text)
        assert main(["check", m, v]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("matrix, vector", [
    (CC_CSV, "3,2,1,2\n"),
    ('{"n": 4, "entries": [[1, 2, 3, "1/2"], ["1/2", 1, 1, 1], ["1/3", 1, 1, 1], [2, 1, 1, 1]]}',
     "[3, 2, 1, 2]"),
], ids=["csv", "json"])
def test_byte_order_mark_accepted(files, capsys, matrix, vector):
    """A file saved as "UTF-8 with BOM" (Excel's "CSV UTF-8") reads as without it."""
    plain = [files("m.txt", matrix), files("v.txt", vector)]
    marked = [path + ".bom" for path in plain]
    for path, bom in zip(plain, marked):
        Path(bom).write_bytes(codecs.BOM_UTF8 + Path(path).read_bytes())
    assert main(["check", *plain, "--format", "json"]) == 0
    expected = capsys.readouterr().out
    assert main(["check", *marked, "--format", "json"]) == 0
    assert capsys.readouterr().out == expected


BIG = "1" + "0" * 400  # an integer cell too large for a float


class TestFloatOverflow:
    """An exact cell or entry converted to a float must stay a positive
    float, or it is an input error (exit 2)."""

    def test_conversion_errors(self):
        with pytest.raises(InputError, match=r"^cell \(0,1\) too large for a float"):
            parse_matrix_text(f"1,{BIG}\n0.5,1.0\n")
        with pytest.raises(InputError, match=r"^cell \(0\) too large for a float"):
            parse_vector_text(f"{BIG},1\n", backend="float")
        A = parse_matrix_text("1,2.0\n0.5,1\n")
        for vector, message in ((f"{BIG},1\n", r"^vector entry \(0\) too large for a float"),
                                (f"1/{BIG},1\n", r"^vector entry \(0\) rounds to 0.0")):
            with pytest.raises(InputError, match=message):
                effvec.build_digraph(A, parse_vector_text(vector))
        A = parse_matrix_text(f"1,{BIG}\n1/{BIG},1\n")
        with pytest.raises(InputError, match=r"entry \(0,1\) too large for a float"):
            A.to_float()
        A = parse_matrix_text(f"1,1/{BIG}\n{BIG},1\n")
        with pytest.raises(InputError, match=r"entry \(0,1\) rounds to 0.0 as a float"):
            A.array

    @pytest.mark.parametrize("command, matrix, vector, args", [
        ("check", f"1,{BIG}\n0.5,1.0\n", "1,1\n", ["--format", "json"]),
        ("check", "1,2.0\n0.5,1\n", f"{BIG},1\n", ["--format", "json"]),
        ("check", "1,2.0\n0.5,1\n", f"{BIG},1\n", ["--format", "json", "--backend", "float"]),
        ("check", f"1,{BIG}\n1/{BIG},1\n", "1.0,2.0\n", []),
        ("perron", f"1,{BIG}\n1/{BIG},1\n", None, []),
    ], ids=["matrix-cell", "vector", "vector-backend-float", "exact-matrix-float-vector",
            "perron-exact-matrix"])
    def test_exit_two(self, files, capsys, command, matrix, vector, args):
        paths = [files("m.csv", matrix)] + ([files("v.csv", vector)] if vector else [])
        assert main([command, *paths, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


class TestJsonShape:
    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "JSON matrix row 0 is not a list"),
        ("[[1, 2], 3]", "JSON matrix row 1 is not a list"),
        ('{"entries": 5}', 'object whose "entries" is a list'),
        ('{"n": 2}', 'object whose "entries" is a list'),
    ])
    def test_matrix_exit_two(self, files, capsys, text, message):
        with pytest.raises(InputError, match=message):
            parse_matrix_text(text)
        m, v = files("m.json", text), files("v.csv", "1,1\n")
        assert main(["check", m, v]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("matrix, vector, message", [
        ("[[1, true], [1, 1]]", "1,1\n", "cannot parse cell True"),
        ("[[1, null], [1, 1]]", "1,1\n", "cannot parse cell None"),
        ("[[1, 2], [0.5, 1]", "1,1\n", "invalid JSON"),
        ("1,2\n1/2,1\n", "[1, null]", "cannot parse cell None"),
        ("1,2\n1/2,1\n", "[1, 2", "invalid JSON"),
        ("1,2\n1/2,1\n", "[]", "empty vector"),
    ], ids=["matrix-true", "matrix-null", "matrix-malformed", "vector-null",
            "vector-malformed", "vector-empty"])
    def test_bad_cells_exit_two(self, files, capsys, matrix, vector, message):
        """JSON cells true and null, malformed JSON and an empty vector are
        input errors, in the library and through the CLI."""
        with pytest.raises(InputError, match=message):
            parse_matrix_text(matrix) if matrix.startswith("[") else parse_vector_text(vector)
        m, v = files("m.txt", matrix), files("v.txt", vector)
        assert main(["check", m, v]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("text", ['{"entries": 5}', '{"n": 2}'])
    def test_vector(self, text):
        with pytest.raises(InputError, match='object whose "entries" is a list'):
            parse_vector_text(text)


class TestPerronCommand:
    def test_json_output(self, files, capsys):
        m = files("m.csv", "1,2,4,1\n1/2,1,2,1\n1/4,1/2,1,1\n1,1,1,1\n")
        rc = main(["perron", m, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["verdict"]["status"] == "efficient"
        assert out["residual"] <= 1e-12
        assert out["lambda"] >= 4.0 - 1e-9

    def test_block_detection_fields(self, files, capsys):
        rows = "1,2,3,1/2,1,1\n1/2,1,1,1,1,1\n1/3,1,1,1,1,1\n2,1,1,1,1,1\n1,1,1,1,1,1\n1,1,1,1,1,1\n"
        m = files("m.csv", rows)
        main(["perron", m, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert out["block_indices"] == [1, 2, 3, 4]
        assert out["structure_ok"] is True

    def test_three_block_condition_reported(self, files, capsys):
        rows = "1,2,4,1,1\n1/2,1,3,1,1\n1/4,1/3,1,1,1\n1,1,1,1,1\n1,1,1,1,1\n"
        m = files("m.csv", rows)
        rc = main(["perron", m, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["sufficient_condition"] == "cond1"

    def test_table_format(self, files, capsys, monkeypatch):
        monkeypatch.setenv("EFFVEC_NO_COLOR", "1")
        m = files("m.csv", CC_CSV)
        main(["perron", m])
        out = capsys.readouterr().out
        assert "lambda" in out and "residual" in out

    # A_6(B) for a 4-by-4 block B, rescaled and with its indices scrambled
    SCRAMBLED = ("1,1,1,1,1,1\n1,1,2,1,1,1\n1,1/2,1,1,4,3\n"
                 "1,1,1,1,1,1\n1,1,1/4,1,1,1\n1,1,1/3,1,1,1\n")

    def test_one_perron_pair(self, files, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return perron(*args)

        monkeypatch.setattr("effvec.cli.perron", counted)
        assert main(["perron", files("m.csv", self.SCRAMBLED), "--format", "json"]) == 0
        assert len(calls) == 1

    def test_verdict_on_input_indices(self, files, capsys):
        main(["perron", files("m.csv", self.SCRAMBLED), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert out["block_indices"] == [2, 3, 5, 6] and out["structure_ok"] is True
        assert len(out["vector"]) == 6
        assert sorted(sum(out["verdict"]["scc_partition"], [])) == [1, 2, 3, 4, 5, 6]

    def test_edges_flag(self, files, capsys):
        """perron's verdict lists the edges only with --edges; nothing else changes."""
        m = files("m.csv", self.SCRAMBLED)
        reports = []
        for flags in ([], ["--edges"]):
            assert main(["perron", m, "--format", "json", *flags]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        plain, full = reports
        assert "edge_list" not in plain["verdict"]
        assert len(full["verdict"].pop("edge_list")) >= 6 * 5 // 2
        assert full == plain

    def test_same_keys_with_and_without_detection(self, files, capsys):
        big = block_matrix(B3, 10)  # n > 8: no block detection
        rows = "\n".join(",".join(str(x) for x in row) for row in big.entries)
        reports = []
        for text in (self.SCRAMBLED, rows + "\n"):
            main(["perron", files("m.csv", text), "--format", "json"])
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0].keys() == reports[1].keys()
        assert reports[1]["block_indices"] is None and reports[1]["structure_ok"] is None


#: `effvec perron --format json` on three inputs, its keys that hold no float
#: (the floats' last bits follow the BLAS summation order): exit code,
#: block_indices, structure_ok, sufficient_condition, verdict status and
#: scc_partition.  Recorded before blocks were oriented by index reversal.
PERRON_PINNED = {
    # A_6(B), B = [[1, 2, 1/2], [1/2, 1, 1/2], [2, 2, 1]], under a monomial
    # similarity; the detected block is B[(1, 0, 2)], whose a13 is 1/2 < 1
    "3block-a13<1": (
        "1,1/12,1/2,1/20,3/4,1/8\n12,1,3,3/10,9/2,3/4\n2,1/3,1,1/5,3/2,1/4\n"
        "20,10/3,5,1,15/2,5/4\n4/3,2/9,2/3,2/15,1,1/6\n8,4/3,4,4/5,6,1\n",
        (0, [1, 2, 4], True, "cond1", "efficient", [[1, 2, 3, 4, 5, 6]]),
    ),
    # A_7(C_4(1/2)) under a monomial similarity
    "constant-x<1": (
        "1,5,10,5/7,30,20/3,5\n1/5,1,1,1/7,3,4/3,1/2\n1/10,1,1,1/7,3/2,4/3,1\n"
        "7/5,7,7,1,21,28/3,7/2\n1/30,1/3,2/3,1/21,1,4/9,1/3\n"
        "3/20,3/4,3/4,3/28,9/4,1,3/8\n1/5,2,1,2/7,3,8/3,1\n",
        (0, [1, 3, 5, 7], True, None, "efficient", [[1, 2, 3, 4, 5, 6, 7]]),
    ),
    # A_7(B), B = [[1, 2, 3], [1/2, 1, 1/2], [1/3, 2, 1]], under a monomial
    # similarity, written as floats; the detected block is B[(1, 0, 2)].
    # Recorded before block detection reused its reference scan
    "3block-float": (
        "1.0,5.0,1.25,0.4,0.6666666666666666,3.3333333333333335,0.3333333333333333\n"
        "0.2,1.0,0.25,0.08,0.06666666666666667,0.6666666666666667,0.03333333333333333\n"
        "0.8,4.0,1.0,0.32,0.5333333333333333,2.666666666666667,0.26666666666666666\n"
        "2.5,12.5,3.125,1.0,1.6666666666666667,8.333333333333334,0.8333333333333334\n"
        "1.5,15.0,1.875,0.6,1.0,5.0,1.5\n"
        "0.3,1.4999999999999998,0.37499999999999994,0.12,0.19999999999999998,1.0,0.09999999999999999\n"
        "3.0,30.0,3.75,1.2,0.6666666666666666,10.0,1.0\n",
        (0, [2, 5, 7], True, "cond3", "efficient", [[1, 2, 3, 4, 5, 6, 7]]),
    ),
    # a generic matrix whose Perron vector is inefficient
    "generic": (
        "1,1/5,1/2,1/5,1/3\n5,1,1,5,1/3\n2,1,1,1/3,1/3\n5,1/5,3,1,3\n3,3,3,1/3,1\n",
        (1, [1, 2, 3, 4], True, None, "inefficient", [[1], [2, 3, 4, 5]]),
    ),
}


@pytest.mark.parametrize("name", PERRON_PINNED)
def test_perron_json_pinned(name, files, capsys):
    text, expected = PERRON_PINNED[name]
    rc = main(["perron", files("m.csv", text), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert (rc, out["block_indices"], out["structure_ok"], out["sufficient_condition"],
            out["verdict"]["status"], out["verdict"]["scc_partition"]) == expected


# stdout of `effvec generate FAMILY ... --n 6 --seed 0 --count 3`, recorded
# before the samplers shared one head-plus-tail rule: a reordered or
# dropped random draw changes these bytes.
GENERATE_PINNED = {
    ('2block', '--x', '3'): [
        '{"vector": ["11891/5000", 1, 1, "52433071/25000000", "8424827/5000000", "90429497/50000000"], "seed_head": ["11891/5000", 1], "tail_bounds": [1, "11891/5000"], "permutation": null}',
        '{"vector": ["8579/5000", 1, "33263911/25000000", "8579/5000", 1, "40615177/25000000"], "seed_head": ["8579/5000", 1], "tail_bounds": [1, "8579/5000"], "permutation": null}',
        '{"vector": ["7431/2500", 1, "25029671/12500000", 1, 1, "5167671/2500000"], "seed_head": ["7431/2500", 1], "tail_bounds": [1, "7431/2500"], "permutation": null}',
    ],
    ('3block', '--a12', '2', '--a13', '8', '--a23', '2'): [
        '{"vector": [1, "4/7", "1/3", "5437/7500", "4/5", "773/1500"], "seed_head": [1, "4/7", "1/3", "4/5"], "tail_bounds": ["1/3", 1], "permutation": [1, 2, 0]}',
        '{"vector": [4, "4/3", "1/2", "8/7", "171/125", 4], "seed_head": [4, "4/3", "1/2", "8/7"], "tail_bounds": ["1/2", 4], "permutation": [0, 1, 2]}',
        '{"vector": ["4/3", 1, 1, 1, "11633/10000", "32287/30000"], "seed_head": ["4/3", 1, 1, 1], "tail_bounds": [1, "4/3"], "permutation": [0, 2, 1]}',
    ],
    ('constant', '--s', '4', '--x', '1/2'): [
        '{"vector": ["176451929/400000000", "16891/40000", "1/2", 1, "28376173/40000000", "304490503/400000000"], "seed_head": ["176451929/400000000", "16891/40000", "1/2", 1], "tail_bounds": ["16891/40000", 1], "permutation": null}',
        '{"vector": ["1/2", "13579/40000", "58263911/100000000", 1, "13579/40000", "183169823/200000000"], "seed_head": ["1/2", "13579/40000", "58263911/100000000", 1], "tail_bounds": ["13579/40000", 1], "permutation": null}',
        '{"vector": ["9931/40000", "9931/20000", "37529671/50000000", 1, "9931/40000", "26198329/40000000"], "seed_head": ["9931/40000", "9931/20000", "37529671/50000000", 1], "tail_bounds": ["9931/40000", 1], "permutation": null}',
    ],
}


class TestGenerateCommand:
    def _records(self, capsys):
        return [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]

    def test_two_block(self, capsys):
        rc = main(["generate", "2block", "--n", "5", "--x", "3", "--count", "5",
                   "--seed", "11"])
        recs = self._records(capsys)
        assert rc == 0 and len(recs) == 5
        for r in recs:
            assert len(r["vector"]) == 5 and len(r["seed_head"]) == 2

    def test_three_block(self, capsys):
        rc = main(["generate", "3block", "--n", "6", "--a12", "2", "--a13", "8",
                   "--a23", "2", "--count", "4", "--seed", "7"])
        recs = self._records(capsys)
        assert rc == 0 and len(recs) == 4
        for r in recs:
            assert len(r["vector"]) == 6
            assert sorted(r["permutation"]) == [0, 1, 2]

    def test_constant(self, capsys):
        rc = main(["generate", "constant", "--n", "6", "--s", "4", "--x", "1/2",
                   "--count", "4", "--seed", "3"])
        recs = self._records(capsys)
        assert rc == 0 and len(recs) == 4

    def test_missing_params_exit_two(self, capsys):
        for argv in (["generate", "2block", "--n", "5"],
                     ["generate", "3block", "--n", "5"],
                     ["generate", "constant", "--n", "5", "--x", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "the following arguments are required" in capsys.readouterr().err

    @pytest.mark.parametrize("family", GENERATE_PINNED, ids=lambda f: f[0])
    def test_pinned_stdout(self, capsys, family):
        argv = ["generate", *family, "--n", "6", "--seed", "0", "--count", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == GENERATE_PINNED[family]

    def test_count_zero_prints_nothing(self, capsys):
        assert main(["generate", "2block", "--n", "5", "--x", "3", "--count", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_negative_count_exit_two(self, capsys):
        assert main(["generate", "2block", "--n", "5", "--x", "3", "--count", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


# a valid set of parameters for each generate family
GENERATE_VALID = {
    "2block": {"--n": "5", "--x": "3"},
    "3block": {"--n": "5", "--a12": "2", "--a13": "8", "--a23": "2"},
    "constant": {"--n": "5", "--s": "3", "--x": "2"},
}
BAD_VALUES = ["0", "-2", "abc", "1/0", "1e400", "1e-400"]


def _argv(params):
    return [a for option, value in params.items() for a in (option, value)]


def _bad_generate_params(family):
    """Parameter sets that must each exit 2: every parameter missing and at
    every bad value, and each option of another family added."""
    valid = GENERATE_VALID[family]
    for option in valid:
        yield {o: v for o, v in valid.items() if o != option}
        for value in BAD_VALUES:
            yield {**valid, option: value}
    for other in GENERATE_VALID.values():
        for option in other.keys() - valid.keys():
            yield {**valid, option: other[option]}


def _run(argv, capsys):
    """main's exit code and captured output; an exception other than
    SystemExit propagates, so a traceback fails the caller."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


@pytest.mark.parametrize("count", ["0", "1"])
@pytest.mark.parametrize("family", GENERATE_VALID)
def test_generate_bad_parameters_exit_two(capsys, family, count):
    """A missing, malformed, out-of-range or foreign generate parameter
    exits 2 before anything is printed, at --count 0 as at --count 1."""
    code, _ = _run(["generate", family, *_argv(GENERATE_VALID[family]), "--count", count], capsys)
    assert code == 0
    for params in _bad_generate_params(family):
        argv = ["generate", family, *_argv(params), "--count", count]
        code, captured = _run(argv, capsys)
        assert code == 2 and captured.out == "", argv
        assert "usage:" in captured.err or captured.err.startswith("error:"), argv


@pytest.mark.parametrize("argv, name", [
    (["generate", "2block", "--x", "5e-324", "--n", "5"], "x"),
    (["generate", "constant", "--s", "3", "--x", "1e-310", "--n", "5"], "x"),
    (["generate", "3block", "--n", "5", "--a12", "5e-324", "--a13", "8", "--a23", "2"], "a12"),
], ids=["2block", "constant", "3block"])
def test_generate_parameter_without_finite_reciprocal(capsys, argv, name):
    """A float parameter whose reciprocal overflows is an input error that
    names the parameter, not the matrix built from it."""
    code, captured = _run(argv, capsys)
    value = float(argv[argv.index(f"--{name}") + 1])
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {name} must have a finite reciprocal, got {value}\n"


@pytest.mark.parametrize("argv", [
    ["reproduce", "all", "--seed", "1"],
    ["check", "m", "v", "--tol-perron", "1e-6"],
    ["check", "m", "v", "--tol-edge", "0.5"],
    ["perron", "m", "--format", "csv"],
    ["perron", "m", "--tol-edge", "1e-6"],
    ["perron", "m", "--tol-perron", "1e-6"],
    ["generate", "2block", "--n", "5", "--x", "3", "--backend", "exact"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_option_not_read_is_a_usage_error(capsys, argv):
    """Each subcommand accepts only the options it reads."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: effvec")
    assert argv[-2] in captured.err.splitlines()[-1]  # the error line names the option


def _leaf_parsers(parser, path=""):
    """(command path, parser) for each parser without subcommands, e.g.
    ("check", ...) and ("generate 2block", ...)."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for sub in subs:
        for name, sp in sub.choices.items():
            yield from _leaf_parsers(sp, f"{path} {name}".strip())


def test_readme_option_table_matches_parser():
    """Each command's row of the README option table lists exactly the
    options build_parser registers for it (besides -h/--help); generate has
    one row per family."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    registered = {path: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
                  for path, sp in _leaf_parsers(build_parser())}
    rows = {}
    for command, cell in re.findall(r"^\| `([^`]*)` \| (.*) \|$", readme, re.M):
        words = command.split()
        path = next((p for p in (" ".join(words[:2]), words[0]) if p in registered), None)
        if path:
            rows[path] = set(re.findall(r"--[\w-]+", cell))
    assert rows == registered


def test_readme_tolerances_match_package():
    """Every `TOL_*` = value pair in README equals the constant effvec exports,
    and every TOL_* that effvec exports has such a pair."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    pairs = re.findall(r"`(TOL_\w+)` = (\d[\d.]*(?:e[+-]?\d+)?)", readme)
    exported = {name for name in dir(effvec) if name.startswith("TOL_")}
    assert all(getattr(effvec, name) == float(value) for name, value in pairs)
    assert exported and exported <= {name for name, _ in pairs}


#: `effvec reproduce all`, uncoloured, line by line; {r} stands for a Perron
#: residual, whose digits depend on the LAPACK build
REPRODUCE_ALL = """\
[PASS] table row (2, 17/2, 2): inefficient  (residual={r})
[PASS] table row (2, 8, 2): efficient  (residual={r}, cycle 1->4->3->2)
[PASS] table row (100, 59/10, 1/10): inefficient  (residual={r})
[PASS] table row (90, 59/10, 1/10): efficient  (residual={r}, cycle 1->4->2->3)
[PASS] table row (1/10, 59/10, 140): inefficient  (residual={r})
[PASS] table row (1/10, 59/10, 130): efficient  (residual={r}, cycle 1->2->4->3)
[PASS] table row (1/2, 8, 2/5): inefficient  (residual={r})
[PASS] table row (1/2, 9, 2/5): efficient  (residual={r}, cycle 1->2->4->3)
[PASS] reference (3,2,1,2) efficient
[PASS] reference (3,2,1) inefficient on leading 3-by-3
[PASS] column 1 of the leading 3-by-3 efficient for it
[PASS] D^{-1} B D recovers the reference matrix
[PASS] (15,8,8,12) efficient for C
[PASS] scaled image (15,16,32,24) efficient for B
[PASS] family 1, w1=5: extensions efficient
[PASS] family 1, w1=10: extensions efficient
[PASS] family 1, w1=18: extensions efficient
[PASS] family 2, w2=4: extensions efficient
[PASS] family 2, w2=8: extensions efficient
[PASS] family 2, w2=12: extensions efficient
[PASS] u efficient with witness j=4  (j=4)
[PASS] u not in the j=5,6 routes
[PASS] v efficient with witness j=5  (j=5)
[PASS] v not in the j=4,6 routes
[PASS] heads (13,8,7) not efficient for the block
[PASS] u without an equal tail entry efficient for A_5
[PASS] v without an equal tail entry efficient for A_5
[PASS] ex20 w efficient
[PASS] ex20 profile(w) == {3,4}  ([3, 4])
[PASS] ex20 v efficient
[PASS] ex20 profile(v) == {3,4,6}  ([3, 4, 6])
[PASS] ex21 w efficient
[PASS] ex21 profile == {5,6}  ([5, 6])
[PASS] ex21 4-block head inefficient
[PASS] ex20 minimal perturbed block is {1,2,3,4}
[PASS] ex20 block perturbation on {1,2,3,4}, not on {1,2,3}
[PASS] interval for (7,3,2,1) is [1/3, 7/3]  ([1/3, 7/3])
[PASS] interval for (7,3,2,7/3) is [2/3, 7/3]  ([2/3, 7/3])
[PASS] 8-dim constant-block extensions efficient
39/39 checks passed
"""


class TestReproduceCommand:
    def test_table1(self, capsys, monkeypatch):
        monkeypatch.setenv("EFFVEC_NO_COLOR", "1")
        assert main(["reproduce", "table1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_examples(self, capsys, monkeypatch):
        monkeypatch.setenv("EFFVEC_NO_COLOR", "1")
        assert main(["reproduce", "examples"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "31/31 checks passed"

    def test_all(self, capsys, monkeypatch):
        monkeypatch.setenv("EFFVEC_NO_COLOR", "1")
        assert main(["reproduce", "all"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1].endswith("checks passed")

    def test_all_lines(self, capsys, monkeypatch):
        """Every line of `reproduce all`, names, order and details, with each
        residual read as a number and held to TOL_PERRON instead of its digits."""
        monkeypatch.setenv("EFFVEC_NO_COLOR", "1")
        assert main(["reproduce", "all"]) == 0
        residuals = []

        def residual(m):
            residuals.append(float(m.group(1)))
            return "residual={r}"

        out = re.sub(r"residual=([^,)]+)", residual, capsys.readouterr().out)
        assert out.splitlines() == REPRODUCE_ALL.splitlines()
        assert len(residuals) == 8 and all(0 <= r <= TOL_PERRON for r in residuals)


def _assert_command_exit_codes(command, tmp_path, env):
    def run(*args):
        return subprocess.run([*command, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    ok = run("reproduce", "table1")
    assert ok.returncode == 0, ok.stderr
    missing = str(tmp_path / "missing.csv")
    bad = run("check", missing, missing)
    assert bad.returncode == 2 and "error:" in bad.stderr


def test_entry_point_installed(tmp_path):
    """The ``effvec`` command is declared as ``effvec.cli:main`` and runs as a process.

    The declaration is read from the installed distribution's metadata, or
    from ``pyproject.toml`` on an uninstalled checkout (``PYTHONPATH=src``).
    The entry point is run the way an installer's launcher runs it; where a
    distribution is installed, the ``effvec`` launcher on PATH is run too.
    """
    try:
        dist = importlib.metadata.distribution("effvec")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is None:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["effvec"]
        ep = importlib.metadata.EntryPoint(name="effvec", value=target,
                                           group="console_scripts")
    else:
        (ep,) = dist.entry_points.select(group="console_scripts", name="effvec")
    assert ep.value == "effvec.cli:main"
    assert ep.load() is main

    src = str(Path(effvec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    launcher = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    _assert_command_exit_codes([sys.executable, "-c", launcher], tmp_path, env)

    if dist is not None:
        exe = shutil.which("effvec")
        assert exe is not None, "effvec is installed but its launcher is not on PATH"
        _assert_command_exit_codes([exe], tmp_path, env)


def test_python_dash_m(tmp_path):
    """``python -m effvec`` runs the CLI wherever ``effvec`` is importable."""
    src = str(Path(effvec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    _assert_command_exit_codes([sys.executable, "-m", "effvec"], tmp_path, env)
