"""Every imported name is used, every private module-level name of the
package is read somewhere in it, and the public functions and methods that
only tests read are a pinned set: three small checks on the ast.  And the
command line loads the catalog and runs every exact command without
importing numpy or sympy."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nilkaehler import catalog, cli

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/nilkaehler", "tests", "bench") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read (``__future__`` is exempt)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation names what it uses inside a string
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                         if isinstance(m, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from math import gcd, lcm\n"
        "def f(x: 'Fraction') -> int:\n"
        "    return gcd(x, 2) + len(os.sep)\n"
        "from fractions import Fraction\n"
    )
    assert unused_imports(source) == ["line 2: osp", "line 3: lcm"]


def _reads(source: str) -> set[str]:
    """Loaded names and attributes of ``source``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions, classes and constants that no module reads.

    A read is a loaded name or an attribute (``linalg._accumulate``); an
    import of the name alone is not one.
    """
    defined: list[tuple[str, str, int]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [(n.id, n.lineno) for t in nodes for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, line) for name, line in targets
                        if name.startswith("_") and not name.startswith("__")]
        read |= _reads(source)
    return [f"{module} line {line}: {name}" for module, name, line in defined
            if name not in read]


def test_no_unused_private_names_in_the_package():
    package = sorted((ROOT / "src/nilkaehler").glob("*.py"))
    assert unused_private_names({p.name: p.read_text() for p in package}) == []


def test_the_check_finds_an_unused_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_A, _B = 1, 2\n"
            "__all__ = []\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "class _Unused:\n"
            "    _slot = 1\n"
            "def _loop():\n"
            "    pass\n"
        ),
        "b.py": "from a import _loop, _B\nimport a\nprint(a._helper(), _B)\n",
    }
    assert unused_private_names(sources) == [
        "a.py line 2: _A", "a.py line 6: _Unused", "a.py line 8: _loop"]


def _function_reads(module: str, source: str) -> set[str]:
    """``owner.name`` of each read of ``source`` that names its module: an
    attribute of a name (``linalg.mat_mul``), a name bound by ``from owner
    import`` and, for any other name, ``module`` itself."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: f"{node.module.rsplit('.', 1)[-1]}.{alias.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names}
    reads = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            reads.add(f"{n.value.id}.{n.attr}")
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads.add(imported.get(n.id, f"{module}.{n.id}"))
    return reads


def unread_public_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` of each module-level public function, and
    ``module.Class.name`` of each public method of a module-level class, of
    ``package`` that neither the package nor ``readers`` read.

    A function is read through its module only (``np.zeros`` is no read of
    ``linalg.zeros``); a method is read by any attribute of its name."""
    sources = {m.removesuffix(".py"): src for m, src in package.items()}
    sources |= {f"<reader {i}>": src for i, src in enumerate(readers)}
    read = set().union(*map(_reads, sources.values()))
    qualified = set().union(*(_function_reads(m, src) for m, src in sources.items()))
    unread = []
    for module, source in package.items():
        prefix = module.removesuffix(".py")
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                unread += [f"{prefix}.{node.name}.{n.name}" for n in node.body
                           if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
                           and n.name not in read]
            elif (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and f"{prefix}.{node.name}" not in qualified):
                unread.append(f"{prefix}.{node.name}")
    return unread


# Public functions and methods that only tests call.  A new one fails here:
# make it a check the package runs, or move it into the tests.
TEST_ONLY_NAMES = [
    "geometry.is_metric_connection",  # nabla g = 0, symbolic: test 5
    "tensors.is_nilpotent_J",  # the J-twisted ascending series: tests
    "tensors.is_abelian_J",
]


def test_public_functions_only_tests_read_are_pinned():
    package = {p.name: p.read_text() for p in sorted((ROOT / "src/nilkaehler").glob("*.py"))}
    readers = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    readers += re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                          re.M | re.S)
    assert unread_public_names(package, readers) == TEST_ONLY_NAMES


def test_the_check_finds_an_unread_public_function():
    package = {
        "a.py": (
            "def used(): pass\n"
            "def unused(): pass\n"
            "def zeros(): pass\n"
            "def helper(): pass\n"
            "def imported(): return helper()\n"
            "def _private(): pass\n"
            "class Kind:\n"
            "    def method(self): pass\n"
            "    def called(self): pass\n"
            "    def _helper(self): pass\n"
            "    @property\n"
            "    def size(self): pass\n"
        ),
        "b.py": (
            "import a\n"
            "import numpy as np\n"
            "from a import unused, imported as alias\n"
            "def run(): return a.used, np.zeros, alias(), Kind().called(), Kind().size\n"
        ),
    }
    # a name read bare outside its module is not a read of it either
    readers = ["import b\nb.run(unused, zeros)\n"]
    assert unread_public_names(package, readers) == ["a.unused", "a.zeros", "a.Kind.method"]


# each command but ``search`` is exact: it runs with numpy and sympy blocked
EXACT_COMMANDS = [["list"], ["verify", "--all"], ["show", "g21"],
                  ["curvature", "g21", "--form", "w2"], ["export", "g21", "--format", "latex"],
                  ["solve-linear", "form.json"]]
FRESH_RUN = """\
import contextlib, io, sys
{block}
import nilkaehler.cli
from nilkaehler import catalog, cli
for name in catalog.NAMES:
    catalog.get(name)
codes = []
for argv in {commands!r}:
    before = "nilkaehler.probe" in sys.modules
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append((cli.run(argv), before, "nilkaehler.probe" in sys.modules))
loaded = {{m.split(".")[0] for m, module in sys.modules.items() if module is not None}}
print(len(catalog.NAMES), codes, sorted(loaded & {{"numpy", "sympy"}}))
"""


def _fresh_run(tmp_path, commands, block=""):
    """The printout of FRESH_RUN in a fresh interpreter, in a directory
    holding g21's algebra and its form w2 as algebra.json and form.json."""
    e = catalog.get("g21")
    (tmp_path / "algebra.json").write_text(json.dumps(e.algebra.to_json_dict()))
    (tmp_path / "form.json").write_text(json.dumps(e.form("w2").form.to_json_dict()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = FRESH_RUN.format(block=block, commands=commands)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120, cwd=tmp_path)
    return done.stdout


def test_the_command_line_runs_without_sympy(tmp_path, monkeypatch, capsys):
    # a fresh interpreter where importing numpy or sympy fails: import the
    # command line, load every entry and run each exact command
    blocked = 'sys.modules["numpy"] = None\nsys.modules["sympy"] = None'
    monkeypatch.chdir(tmp_path)
    out = _fresh_run(tmp_path, EXACT_COMMANDS, blocked)
    codes = [(cli.run(argv), False, False) for argv in EXACT_COMMANDS]
    capsys.readouterr()
    assert out == f"13 {codes} []\n"
    assert [code for code, *_ in codes] == [0, 1, 0, 0, 0, 0]


def test_only_a_search_loads_the_numerical_probe(tmp_path):
    out = _fresh_run(tmp_path, [["show", "g21"], ["search", "algebra.json", "form.json"]])
    # the probe is loaded by the search and not before it
    assert out == "13 [(0, False, False), (0, False, True)] ['numpy']\n"
