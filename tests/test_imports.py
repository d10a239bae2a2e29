"""No module imports a name it never uses, no private helper, public
function or class, or class member is dead, no command loads scipy,
and only a process pool loads multiprocessing.

The first four checks are the lint step. The unused-import check
covers every library module except ``__init__.py`` (whose imports are
the package's re-exports) and every test module. The dead-helper check
covers the top-level ``_name`` functions and classes of the library:
each must be referenced somewhere in the library outside its own
definition. The dead-public-name check covers the top-level public
functions and classes of the library: each must be read somewhere in
the library, ``perfbench/`` or ``demos/`` outside its own definition,
and the re-exports of ``__init__.py`` and the strings of its
``__all__`` do not count, so a name only the tests use is dead (such a
helper lives in ``tests/oracles.py``). The dead-member check covers
the methods and properties of the library's top-level classes: each
name must be read somewhere in the library, ``perfbench/`` or
``demos/`` outside its own definition; what only the tests read is
dead. It matches names, not classes, so a
member whose name another class shares escapes it: reads of the field
``FlagComplex2.weights`` hid the dead ``WeightedGraph.weights()``, and
reads of ``ComparisonReport.to_json`` cover ``GeneratorConfig.to_json``,
which writes the documented ``--config`` format and stays. The import
guards run each case in a fresh interpreter and list the modules it
loaded under a prefix: neither importing the package nor a
``persistence``, ``scaffold``, ``compare`` or ``generate`` run may load
any scipy module, which only the tests use, as an oracle; neither the
import nor a serial ``scaffold`` run may load ``multiprocessing`` or
``concurrent.futures.process``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "netscaffold").glob("*.py"))
CHECKED = [p for p in LIBRARY if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py")
)
# callers outside the library whose reads keep a class member alive
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted(
    (ROOT / "demos").glob("*.py")
)


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


def _names_read(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names, attributes and imported names used in tree outside skip."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """Top-level ``_name`` functions and classes no module refers to,
    as ``module:name``. A helper that only calls itself is dead."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if not any(node.name in _names_read(t, node) for t in trees.values()):
                dead.append(f"{module}:{node.name}")
    return sorted(dead)


def test_dead_helper_checker_flags_only_unreferenced_helpers():
    sources = {
        "a.py": (
            "def _called(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "def _by_attribute(): pass\n"
            "def _imported(): pass\n"
            "class _Unused: pass\n"
            "def public(): pass\n"
            "def __getattr__(name): pass\n"
            "_called()\n"
        ),
        "b.py": "import a\nfrom a import _imported\nprint(a._by_attribute)\n",
    }
    assert dead_private_helpers(sources) == ["a.py:_Unused", "a.py:_recursive"]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text() for p in LIBRARY}
    assert dead_private_helpers(sources) == []


def dead_members(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Methods and properties of the top-level classes in sources whose
    name no module of sources or callers reads outside the member's own
    definition, as ``module:Class.name``. Dunder methods are left out:
    the language calls them."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    readers = [*trees.values(), *(ast.parse(src) for src in callers.values())]
    dead = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if not any(node.name in _names_read(t, node) for t in readers):
                    dead.append(f"{module}:{cls.name}.{node.name}")
    return sorted(dead)


def test_dead_member_checker_flags_only_unread_members():
    sources = {
        "a.py": (
            "class Sweep:\n"
            "    def __len__(self): return 0\n"
            "    def _take(self): return self._pool()\n"
            "    def _pool(self): return self._pool\n"
            "    def advance(self):\n"
            "        self._take()\n"
            "        return self.advance\n"
            "    def log_summary(self): pass\n"
            "class Pair:\n"
            "    @property\n"
            "    def persistence(self): return 1\n"
            "    @property\n"
            "    def dim(self): return 1\n"
            "class Graph:\n"
            "    def weights(self): return ()\n"
            "def use(sweep, pair):\n"
            "    weights = sweep._take()\n"
            "    return pair.dim, weights\n"
        ),
    }
    callers = {"run.py": "from a import Sweep\nSweep().log_summary()\n"}
    # Graph.weights is dead too, but a local variable's name hides it
    assert dead_members(sources, callers) == [
        "a.py:Pair.persistence", "a.py:Sweep.advance"
    ]
    assert dead_members(sources, {}) == [
        "a.py:Pair.persistence", "a.py:Sweep.advance", "a.py:Sweep.log_summary"
    ]


def test_no_dead_members():
    sources = {p.name: p.read_text() for p in LIBRARY}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert dead_members(sources, callers) == []


def dead_public_names(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Top-level public functions and classes of sources that no module
    of sources or callers reads outside their own definition, as
    ``module:name``. The package's ``__init__.py`` is not a reader: its
    imports only re-export, and the strings of ``__all__`` are no
    reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    readers = [t for name, t in trees.items() if name != "__init__.py"]
    readers += [ast.parse(src) for src in callers.values()]
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            if not any(node.name in _names_read(t, node) for t in readers):
                dead.append(f"{module}:{node.name}")
    return sorted(dead)


def test_dead_public_checker_flags_only_unread_names():
    sources = {
        "__init__.py": (
            "from .a import exported, recursive, used\n"
            "__all__ = ['exported', 'recursive', 'used']\n"
        ),
        "a.py": (
            "def used(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def exported(): pass\n"
            "def by_caller(): pass\n"
            "class Model: pass\n"
            "def _private(): pass\n"
        ),
        "b.py": "from .a import used\nx: Model = used()\n",
    }
    callers = {"run.py": "import a\na.by_caller()\n"}
    assert dead_public_names(sources, callers) == ["a.py:exported", "a.py:recursive"]
    assert dead_public_names(sources, {}) == [
        "a.py:by_caller", "a.py:exported", "a.py:recursive"
    ]


def test_no_dead_public_names():
    sources = {p.name: p.read_text() for p in LIBRARY}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert dead_public_names(sources, callers) == []


def modules_loaded(code: str, cwd: Path, prefix: str) -> list[str]:
    """The modules named ``prefix`` or below it that a fresh interpreter
    holds after running code. The worker count is left at its default."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("NETSCAFFOLD_WORKERS", None)
    probe = (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m == {prefix!r}"
        f" or m.startswith({prefix + '.'!r}))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code + probe],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


GRAPH = '{"n_vertices": 5}\n0,1,1\n1,2,1\n2,3,1\n0,3,1\n0,4,3/2\n2,4,3/2\n'


def run_cli(argv: list[str]) -> str:
    return (
        "from netscaffold.cli import main\n"
        f"assert main({argv!r}) == 0\n"
    )


def test_package_import_loads_no_scipy(tmp_path):
    code = "import netscaffold, netscaffold.cli\n"
    assert modules_loaded(code, tmp_path, "scipy") == []


@pytest.mark.parametrize(
    "argv",
    [
        ["persistence", "--input", "g.edges", "--output-dir", "out"],
        ["scaffold", "--input", "g.edges", "--output-dir", "out"],
        ["compare", "--input", "g.edges", "--output-dir", "out"],
        ["generate", "--model", "er", "--n", "6", "--m", "7", "--out", "out/er.edges"],
    ],
    ids=["persistence", "scaffold", "compare", "generate"],
)
def test_pipeline_commands_load_no_scipy(tmp_path, argv):
    (tmp_path / "g.edges").write_text(GRAPH)
    assert modules_loaded(run_cli(argv), tmp_path, "scipy") == []
    assert any((tmp_path / "out").iterdir())


POOL_MODULES = ["multiprocessing", "concurrent.futures.process"]


@pytest.mark.parametrize("prefix", POOL_MODULES)
def test_package_import_loads_no_process_pool(tmp_path, prefix):
    code = "import netscaffold, netscaffold.cli\n"
    assert modules_loaded(code, tmp_path, prefix) == []


@pytest.mark.parametrize("prefix", POOL_MODULES)
def test_serial_scaffold_loads_no_process_pool(tmp_path, prefix):
    (tmp_path / "g.edges").write_text(GRAPH)
    code = run_cli(["scaffold", "--input", "g.edges", "--output-dir", "out"])
    assert modules_loaded(code, tmp_path, prefix) == []
    assert (tmp_path / "out" / "g_minimal.csv").is_file()


@pytest.mark.parametrize("prefix", POOL_MODULES)
def test_pooled_scaffold_loads_the_process_pool(tmp_path, prefix):
    # without this the guards above could pass on a probe that sees nothing
    (tmp_path / "g.edges").write_text(GRAPH)
    code = run_cli(
        ["scaffold", "--input", "g.edges", "--output-dir", "out", "--parallelism", "2"]
    )
    assert prefix in modules_loaded(code, tmp_path, prefix)
