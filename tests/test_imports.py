"""No module imports a name it never uses.

This is the lint step for unused imports. It covers every library
module except ``__init__.py`` (whose imports are the package's
re-exports) and every test module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = [
    p
    for p in sorted((ROOT / "src" / "netscaffold").glob("*.py"))
    if p.name != "__init__.py"
] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads.

    A name listed in a literal ``__all__`` counts as read. Names read
    only inside string annotations are not seen.
    """
    tree = ast.parse(source)
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds "a"
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_checker_flags_only_unused_names():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "import numpy.linalg\n"
        "__all__ = ['loads']\n"
        "print(dumps, numpy.linalg)\n"
    )
    assert unused_imports(src) == ["os", "osp"]


@pytest.mark.parametrize(
    "path", CHECKED, ids=[str(p.relative_to(ROOT)) for p in CHECKED]
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
