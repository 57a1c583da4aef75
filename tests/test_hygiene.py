"""Every name a module imports is used in that module, every private
definition in alexlab is referred to, every public definition in alexlab
is referred to from alexlab, the tests or the benchmark, every parameter
of an alexlab function is read, every UPPER_CASE module constant of
alexlab is read in alexlab, importing alexlab loads no module that it
does not use, and every console script in pyproject.toml resolves."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "alexlab"
MODULES = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path) == []


def test_unused_import_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nfrom os import path, sep as s\nprint(path)\n")
    assert unused_imports(mod) == [(1, "math"), (2, "s")]


def referred_names(trees):
    """Every name and attribute name in the syntax trees `trees`."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def unused_private_definitions(paths):
    """(file name, line, name) of each private function, class or method in
    `paths` that no name or attribute in `paths` refers to; dunders are
    exempt."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    used = referred_names(trees.values())
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in used):
                found.append((path.name, node.lineno, node.name))
    return sorted(found)


def test_every_private_definition_is_used():
    assert unused_private_definitions(sorted(SRC.glob("*.py"))) == []


def test_unused_private_definition_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def _used():\n    return 1\n\n\n"
        "def _unused():\n    pass\n\n\n"
        "class _Box:\n"
        "    def __init__(self):\n        self.x = _used()\n\n"
        "    def _get(self):\n        return self.x\n\n"
        "    def _spare(self):\n        pass\n\n\n"
        "print(_Box()._get())\n"
    )
    assert unused_private_definitions([mod]) == [("mod.py", 5, "_unused"), ("mod.py", 16, "_spare")]


def unreferenced_public_definitions(defined, referring):
    """(file name, line, name) of each public function, class, method or
    property in `defined` that no name or attribute in `referring` refers
    to; dunders are exempt."""
    used = referred_names(ast.parse(path.read_text(), filename=str(path)) for path in referring)
    found = []
    for path in defined:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in used):
                found.append((path.name, node.lineno, node.name))
    return sorted(found)


def test_every_public_definition_is_referred_to():
    referring = [p for d in (SRC, ROOT / "tests", ROOT / "perfbench") for p in sorted(d.glob("*.py"))]
    assert unreferenced_public_definitions(sorted(SRC.glob("*.py")), referring) == []


def test_unreferenced_public_definition_is_reported(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "def called():\n    return 1\n\n\n"
        "def spare():\n    pass\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.x = called()\n\n"
        "    @property\n    def size(self):\n        return self.x\n\n"
        "    def unused(self):\n        pass\n\n\n"
        "class Spare:\n    pass\n"
    )
    user.write_text("import lib\n\nprint(lib.Box().size)\n")
    assert unreferenced_public_definitions([lib], [lib, user]) == [
        ("lib.py", 5, "spare"), ("lib.py", 17, "unused"), ("lib.py", 21, "Spare"),
    ]


def unread_parameters(path):
    """(line, function, parameter) of each parameter of a function or lambda
    in `path` that its body, nested definitions included, never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found.extend((node.lineno, name, p) for p in params if p not in read)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path) == []


def test_unread_parameter_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(a, b, *args, c=1, **kw):\n"
        "    b = 2\n"
        "    def g():\n        return a + kw['x']\n"
        "    return g()\n\n\n"
        "h = lambda x, y: x\n"
    )
    assert unread_parameters(mod) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "c"), (8, "<lambda>", "y"),
    ]


def unread_constants(paths):
    """(file name, line, name) of each UPPER_CASE module-level constant in
    `paths` that no code in `paths` reads, by name or as an attribute."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for path, tree in trees.items():
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            found.extend((path.name, stmt.lineno, t.id) for t in targets
                         if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
                         and t.id not in read)
    return sorted(found)


def test_every_constant_is_read():
    assert unread_constants(sorted(SRC.glob("*.py"))) == []


def test_unread_constant_is_reported(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "LIMIT = 4\n"
        "SPARE = 2\n"
        "_HIDDEN: int = 3\n"
        "Mixed = 1\n"
        "def f(x):\n    LOCAL = 5\n    return x\n"
    )
    b.write_text("import a\n\nprint(a.LIMIT)\nSPARE = 7\n")
    assert unread_constants([a, b]) == [
        ("a.py", 2, "SPARE"), ("a.py", 3, "_HIDDEN"), ("b.py", 4, "SPARE"),
    ]


def test_import_footprint():
    # scipy.integrate is not used and costs every process ~12 MB, and
    # scipy.spatial (Qhull) with the scipy.special it loads ~8 MB; a first
    # flat_disk call must not import inside a timed region
    script = (
        "import importlib, pathlib, sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        f"for path in sorted(pathlib.Path({str(SRC)!r}).glob('*.py')):\n"
        "    importlib.import_module('alexlab' if path.stem == '__init__' else 'alexlab.' + path.stem)\n"
        "print([m for m in ('scipy.integrate', 'scipy.spatial', 'scipy.special') if m in sys.modules])\n"
        "before = set(sys.modules)\n"
        "from alexlab.space import flat_disk\n"
        "flat_disk(1, 0.2)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines() == ["[]", "[]"]


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert hasattr(importlib.import_module(module), attr), f"{name} = {target!r}"
