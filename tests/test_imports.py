"""No module imports a private name from another effvec module, or a name
from a submodule that does not define it, or an effvec name inside a
function body, and every module-level private name is used in its own
module.  In src/effvec a float literal below 1e-6 (a tolerance or a slack)
appears only in a module-level assignment, so each is named once, no
module but efficiency.py reads G(A, w)'s adj array, and no module reads a
private attribute that another module defines.  Every function the
package exports has a caller outside the tests."""

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


def local_imports(path):
    """(line, module) of each effvec import (`import effvec[.mod]`,
    `from effvec[.mod] import ...` or a relative one) inside a function body:
    such imports go at the top of the module."""
    found = set()
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                found.update((node.lineno, a.name) for a in node.names
                             if a.name.split(".")[0] == "effvec")
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "effvec"):
                found.add((node.lineno, "." * node.level + (node.module or "")))
    return sorted(found)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_local_imports(path):
    assert local_imports(path) == []


def test_detects_local_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from effvec import perron\n"
        "import json\n\n"
        "def f():\n"
        "    from effvec.matrix import apply_similarity\n"
        "    import json, effvec.io\n"
        "    from conftest import rand_vector\n\n"
        "    def g():\n"
        "        from . import fixtures\n"
        "    return g\n\n"
        "class C:\n"
        "    async def m(self):\n"
        "        import effvec\n"
    )
    assert local_imports(probe) == [
        (5, "effvec.matrix"), (6, "effvec.io"), (10, "."), (15, "effvec"),
    ]


def defined_names(path):
    """Names a module binds at top level with a def, a class or an assignment."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def borrowed_imports(path):
    """(line, module, name) of each `from effvec.mod import x` or
    `from .mod import x` (mod read in src/effvec) where mod does not define
    x itself: a name is imported from the module that defines it.  The
    package effvec, which gathers the public names, is exempt."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("effvec."):
            module = node.module[len("effvec."):]
        else:
            continue
        defined = defined_names(ROOT / "src" / "effvec" / f"{module}.py")
        for alias in node.names:
            if alias.name not in defined:
                found.append((node.lineno, "." * node.level + node.module, alias.name))
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_from_defining_module(path):
    assert borrowed_imports(path) == []


def test_detects_borrowed_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from effvec.fixtures import B3, canonical_form\n"
        "from .perron import TOL_PERRON, perron, ConstantBlockMatrix\n"
        "from effvec.matrix import canonical_form, Vector\n"
        "from effvec import canonical_form\n"
        "from . import fixtures\n"
        "from conftest import rand_vector\n"
    )
    assert borrowed_imports(probe) == [
        (1, "effvec.fixtures", "canonical_form"),
        (2, ".perron", "ConstantBlockMatrix"),
    ]


def unraised_errors(errors_path, paths):
    """Classes in errors_path that no `raise` in paths names and that no
    class in errors_path derives from."""
    tree = ast.parse(errors_path.read_text(), str(errors_path))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {b.id for node in tree.body if isinstance(node, ast.ClassDef)
             for b in node.bases if isinstance(b, ast.Name)}
    raised = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return sorted(classes - raised - bases)


def test_every_error_is_raised():
    src = ROOT / "src" / "effvec"
    assert unraised_errors(src / "errors.py", sorted(src.glob("*.py"))) == []


def test_detects_unraised_errors(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text(
        "class BaseError(Exception):\n    pass\n\n"
        "class Raised(BaseError):\n    pass\n\n"
        "class RaisedBare(BaseError):\n    pass\n\n"
        "class Unraised(BaseError):\n    pass\n"
    )
    module = tmp_path / "module.py"
    module.write_text(
        "def f(x):\n"
        "    if x:\n        raise Raised('x') from None\n"
        "    raise RaisedBare\n\n"
        "def g():\n    return Unraised('never raised')\n"
    )
    assert unraised_errors(errors, [errors, module]) == ["Unraised"]


def unused_private_names(path):
    """Module-level private names (`_x`) that no other top-level statement of
    the file reads: a helper used only by itself, or not at all, is dead."""
    tree = ast.parse(path.read_text(), str(path))
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_") or name.endswith("__"):
                continue
            if not any(isinstance(n, ast.Name) and n.id == name
                       for other in tree.body if other is not node for n in ast.walk(other)):
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "effvec"],
                         ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path) == []


def test_detects_unused_private_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "_USED = 1\n_DEAD: int = 2\n__version__ = '0'\n\n"
        "def _helper(x):\n    return x + _USED\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
        "class _Gone:\n    pass\n\n"
        "def public(x):\n    return _helper(x)\n"
    )
    assert unused_private_names(probe) == ["_DEAD", "_recursive", "_Gone"]


def outside_intake(path):
    """(line, name) of each `.to_float()` call in the file and, unless the
    file is matrix.py, of each `raise DimensionMismatch` and each
    `0 < ... < math.inf` test: matrix.py owns the intake of numbers, so only
    it checks sizes or signs or builds float copies."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "to_float":
            found.append((node.lineno, "to_float"))
        elif isinstance(node, ast.Compare) and path.name != "matrix.py" \
                and [type(op) for op in node.ops] == [ast.Lt, ast.Lt] \
                and ast.unparse(node.left) == "0" \
                and ast.unparse(node.comparators[1]) == "math.inf":
            found.append((node.lineno, "positive_finite"))
        elif isinstance(node, ast.Raise) and path.name != "matrix.py":
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "DimensionMismatch":
                found.append((node.lineno, "DimensionMismatch"))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "effvec"],
                         ids=lambda p: p.name)
def test_intake_stays_in_matrix(path):
    assert outside_intake(path) == []


def test_detects_intake_outside_matrix(tmp_path):
    text = (
        "def f(A, w):\n"
        "    if len(w) != A.n:\n        raise DimensionMismatch('size')\n"
        "    return A.to_float().array\n\n"
        "def to_float(self):\n    raise DimensionMismatch\n\n"
        "def g(x):\n    return 0 < x < math.inf and 0 < x < 1 and x < math.inf\n"
    )
    probe, matrix = tmp_path / "probe.py", tmp_path / "matrix.py"
    probe.write_text(text)
    matrix.write_text(text)
    assert outside_intake(probe) == [(3, "DimensionMismatch"), (4, "to_float"),
                                     (7, "DimensionMismatch"), (10, "positive_finite")]
    assert outside_intake(matrix) == [(4, "to_float")]


def small_float_literals(path):
    """(line, value) of each float literal below 1e-6 in the file outside the
    value of a module-level assignment.  Docstrings are text, not literals."""
    tree = ast.parse(path.read_text(), str(path))
    named = {id(n) for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             and node.value is not None for n in ast.walk(node.value)}
    return sorted((n.lineno, n.value) for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and type(n.value) is float
                  and 0 < n.value < 1e-6 and id(n) not in named)


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "effvec"],
                         ids=lambda p: p.name)
def test_small_floats_are_named(path):
    assert small_float_literals(path) == []


def test_detects_small_float_literals(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        '"""A slack of 1e-12."""\n'
        "TOL = 1e-9\n"
        "_REL, _ABS = 1 + 1e-9, 1e-15\n"
        "LIMIT: float = -5e-10\n\n"
        "def f(x, tol=3e-9):\n"
        "    y = 1e-12\n"
        "    return x * 2e-7 + 0.0 + 1e-6\n\n"
        "class C:\n"
        "    tol = 5e-10\n"
    )
    assert small_float_literals(probe) == [(6, 3e-9), (7, 1e-12), (8, 2e-7), (11, 5e-10)]


def attribute_reads(path, name):
    """Lines of the file that read an attribute `name`, as in `x.name`."""
    return sorted(n.lineno for n in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(n, ast.Attribute) and n.attr == name)


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "effvec"
                                  and p.name != "efficiency.py"], ids=lambda p: p.name)
def test_digraph_array_read_only_in_efficiency(path):
    """efficiency.py alone knows how G(A, w) is stored: every other module
    reads its edges through has_edge and has_cycle, never its adj array."""
    assert attribute_reads(path, "adj") == []


def test_detects_attribute_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "G = f()\n"
        "ok = G.adj[0, 1] and G.has_edge(1, 0)\n"
        "adj = G.n\n"
        "G.adj.any()\n"
    )
    assert attribute_reads(probe, "adj") == [2, 4]


def foreign_private_reads(path):
    """(line, name) of each attribute read `x._name` in the file whose name
    the file itself binds nowhere (with a def, a class or an assignment, at
    any depth): a private attribute is read only in the module that defines
    it.  Reads through self or cls, and dunder names, are exempt."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id if isinstance(n, ast.Name) else n.attr
                         for t in targets for n in ast.walk(t)
                         if isinstance(n, (ast.Name, ast.Attribute)))
    return sorted((n.lineno, n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                  and n.attr.startswith("_") and not n.attr.endswith("__")
                  and not (isinstance(n.value, ast.Name) and n.value.id in ("self", "cls"))
                  and n.attr not in bound)


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "effvec"],
                         ids=lambda p: p.name)
def test_no_foreign_private_reads(path):
    assert foreign_private_reads(path) == []


def test_detects_foreign_private_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class C:\n"
        "    _cache = None\n\n"
        "    def _helper(self):\n"
        "        return self._other, cls._made\n\n"
        "def f(A, M):\n"
        "    A._block\n"
        "    M.matrix()._private.x\n"
        "    C._helper(A), C._cache, A.__dict__\n"
        "    A._stored = 1\n"
        "    return M._stored\n"
    )
    assert foreign_private_reads(probe) == [(8, "_block"), (9, "_private")]


def unreferenced_exports(init, paths):
    """Functions that the package file init imports from its own modules and
    that no file in paths reads (as a name or an attribute) outside the
    function's own body."""
    exported = {alias.name: init.parent / f"{node.module}.py"
                for node in ast.parse(init.read_text(), str(init)).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    functions = {name for name, module in exported.items()
                 if any(isinstance(node, ast.FunctionDef) and node.name == name
                        for node in ast.parse(module.read_text(), str(module)).body)}
    read = set()
    for path in paths:
        for top in ast.parse(path.read_text(), str(path)).body:
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
            if isinstance(top, ast.FunctionDef):
                names.discard(top.name)
            read |= names
    return sorted(functions - read)


#: exported functions with no caller yet, each with its ROADMAP item: item 3's
#: to_input replaces transform_vector, and item 17 gives geometric_mean_vector one
UNCALLED_EXPORTS = ["geometric_mean_vector", "transform_vector"]


def test_every_export_has_a_caller():
    src = ROOT / "src" / "effvec"
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert unreferenced_exports(src / "__init__.py", paths) == UNCALLED_EXPORTS


def test_detects_unreferenced_exports(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .mod import CONST, Klass, by_attribute, by_name, recursive, unused\n")
    (tmp_path / "mod.py").write_text(
        "CONST = 1\n\nclass Klass:\n    pass\n\n"
        "def by_name():\n    return 0\n\n"
        "def by_attribute():\n    return 0\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def unused():\n    return by_name()\n")
    (tmp_path / "user.py").write_text("import mod\n\nx = mod.by_attribute()\n")
    paths = [tmp_path / "mod.py", tmp_path / "user.py"]
    assert unreferenced_exports(tmp_path / "__init__.py", paths) == ["recursive", "unused"]
