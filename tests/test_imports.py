"""Every module under src/, tests/ and scripts/ uses each name it imports,
and every public name that src/ defines has a reader outside the tests.

No linter ships with the project, so these stdlib-``ast`` checks stand in
for one. A name counts as used when it appears anywhere else in its
module; a package ``__init__.py`` is exempt, since importing is how it exports.

A public top-level function, class or constant of a src/ module, or a public
method of a top-level class, counts as read when src/, scripts/, perfbench/ or
the acceptance tests name it outside its definition. Attribute names are
matched by name only: ``x.step`` reads every method called ``step``, whatever
``x`` is, and a name passed as a string (``getattr``) does not count.
"""

import ast
import functools
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def _walk(*tops: str) -> list[Path]:
    return sorted(
        path.relative_to(_ROOT)
        for top in tops
        for path in (_ROOT / top).rglob("*.py")
        if path.name != "__init__.py"
    )


_MODULES = _walk("src", "tests", "scripts")
_READERS = _walk("src", "scripts", "perfbench") + [Path("tests/test_acceptance.py")]


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` binds by an import and names nowhere else, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_flags_names_used_nowhere_else():
    source = "import os\nimport a.b\nfrom c import d as e, f\na.b.x(f)\n"
    assert unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize("module", _MODULES, ids=str)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((_ROOT / module).read_text()) == []


def public_definitions(source: str) -> list[str]:
    """Public top-level functions, classes and constants of ``source``, and
    the public methods of its top-level classes, in order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names += [node.name] + [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def named(source: str) -> set[str]:
    """Every name ``source`` reads, and every attribute name it mentions."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        or (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))
    }


@functools.cache
def _named_by_readers() -> frozenset[str]:
    return frozenset().union(*(named((_ROOT / module).read_text()) for module in _READERS))


def test_public_definitions_and_named_see_through_definitions():
    source = "A = 1\n_B = 2\nclass C:\n    def m(self): pass\n    def _p(self): pass\n"
    source += "def f():\n    return A + g.m\n"
    assert public_definitions(source) == ["A", "C", "m", "f"]
    assert named(source) == {"A", "g", "m"}


@pytest.mark.parametrize("module", [m for m in _MODULES if m.parts[0] == "src"], ids=str)
def test_every_public_name_has_a_reader_outside_the_tests(module):
    unread = set(public_definitions((_ROOT / module).read_text())) - _named_by_readers()
    assert sorted(unread) == []
