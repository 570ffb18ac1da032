"""Every module under src/, tests/ and scripts/ uses each name it imports.

No linter ships with the project, so this stdlib-``ast`` check stands in
for one. A name counts as used when it appears anywhere else in its
module; a package ``__init__.py`` is exempt, since importing is how it exports.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = sorted(
    path.relative_to(_ROOT)
    for top in ("src", "tests", "scripts")
    for path in (_ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


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
