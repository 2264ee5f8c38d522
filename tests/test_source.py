"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polarmorse"


def unused_imports(source):
    """Names bound by an import of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == [(1, "os")]
    assert unused_imports("from a import b as c, d\nd.e\n") == [(1, "c")]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips assert statements; a check raises explicitly
    asserts = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []


#: Dataclass fields that no code in the package reads, each with the reader
#: that keeps it.  ``BranchContribution.branch``: criterion 8 of
#: ``tests/test_acceptance.py`` reads each contribution's branch.
UNREAD_FIELDS_ALLOWED = {("BranchContribution", "branch")}


def dataclass_fields(source):
    """(class, field) for each annotated field of a ``@dataclass`` class."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decos = [d.func if isinstance(d, ast.Call) else d
                 for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decos):
            continue
        out.extend((node.name, stmt.target.id) for stmt in node.body
                   if isinstance(stmt, ast.AnnAssign)
                   and isinstance(stmt.target, ast.Name))
    return out


def attributes_read(source):
    """Names read as an attribute, ``obj.name``, in ``source``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_dataclass_fields_are_found():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n"
              "    def f(self):\n        self.z = self.x\n"
              "@dataclass\nclass B:\n    w: int\n"
              "class C:\n    v: int\n")
    assert dataclass_fields(source) == [("A", "x"), ("A", "y"), ("B", "w")]
    assert attributes_read(source) == {"x"}


def test_dataclass_fields_are_read():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    read = set().union(*map(attributes_read, sources))
    unread = [cf for source in sources for cf in dataclass_fields(source)
              if cf[1] not in read and cf not in UNREAD_FIELDS_ALLOWED]
    assert unread == []


def calls_of(source, name):
    """The top-level function or class around each call of ``name`` (or of
    an attribute ``name``) in ``source``; None at module level."""
    out = []
    for top in ast.parse(source).body:
        around = getattr(top, "name", None)
        out.extend(around for node in ast.walk(top)
                   if isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None)))
    return out


def test_calls_are_found():
    source = ("def f():\n    A(1)\n    m.A(2)\n"
              "class C:\n    def g(self):\n        B(A)\n"
              "A()\n")
    assert calls_of(source, "A") == ["f", "f", None]
    assert calls_of(source, "B") == ["C"]


def test_one_constructor_per_class():
    # every number field is made by fields.adjoin, every point class in polar
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [(name, around) for name, source in sources.items()
            for around in calls_of(source, "ExtensionField")] == [("fields.py", "adjoin")]
    assert {name for name, source in sources.items()
            if calls_of(source, "PointClass")} == {"polar.py"}
