"""No module imports a private name from another effvec module."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src/effvec", "tests", "demos") for p in (ROOT / d).glob("*.py")
)


def private_imports(path):
    """(line, module, name) of each `from effvec[.mod] import _x` or
    `from .[mod] import _x` in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "effvec":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append((node.lineno, "." * node.level + module, alias.name))
    return found


def test_files_found():
    assert {p.parent.name for p in FILES} == {"effvec", "tests", "demos"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_imports(path):
    assert private_imports(path) == []


def test_detects_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from effvec.blockpert import _sample_in\n"
        "from .matrix import Vector, _reference_block\n"
        "from effvec import __version__\n"
        "from conftest import _helper\n"
    )
    assert private_imports(probe) == [
        (1, "effvec.blockpert", "_sample_in"),
        (2, ".matrix", "_reference_block"),
    ]
