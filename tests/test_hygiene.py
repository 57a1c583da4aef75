"""Every name a module imports is used in that module, every private
definition in alexlab is referred to, every definition in alexlab is
reached from the benchmark, from alexlab's module-level code or from a
definition that awaits a planned caller, every parameter of an alexlab
function is read, every UPPER_CASE module constant of alexlab is read in
alexlab, importing alexlab loads no module that it does not use, and every
console script in pyproject.toml resolves."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "alexlab"
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
MODULES = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) + BENCH


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name if p.parent == SRC
                         else f"{p.parent.name}/{p.name}")
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions that nothing reaches yet, each with the ROADMAP item that is
# to call it.  An entry must go once its definition is gone or reached, so
# the list can only shrink.
AWAITING_CALLER = MappingProxyType({
    "supersolution_slack": "item 2: Q_t u as a supersolution",
    "node_values": "item 4: Hopf-Lax feet on every graph node",
    "euler_characteristic": "item 13: doubled surfaces have chi = 2",
    "generalized_cosine": "item 14: cot_k of the distance comparison",
    "green_kernel": "item 8: the Green experiment",
    "green_kernel_deriv": "item 8: the Green experiment",
    "green_identity_check": "item 8: the Green experiment",
})


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def own_names(node):
    """Every name and attribute name in the code of `node` itself.  A
    function or class defined inside it adds only its decorators, default
    values and bases: its body is its own."""
    names, todo = set(), list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        if isinstance(child, DEFINITIONS):
            todo.extend(child.decorator_list)
            if isinstance(child, ast.ClassDef):
                todo.extend(child.bases + child.keywords)
            else:
                todo.extend(child.args.defaults + [d for d in child.args.kw_defaults if d])
            continue
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        todo.extend(ast.iter_child_nodes(child))
    return names


def reached_names(trees, roots):
    """The closure of the names `roots` over the definitions in `trees`: a
    reached name reaches the names in the code of every definition of that
    name, and a reached class also reaches those in its dunder methods."""
    defs = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                defs.setdefault(node.name, []).append(node)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defs.get(name, ()):
            todo.extend(own_names(node))
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, DEFINITIONS) and is_dunder(method.name):
                        todo.extend(own_names(method))
    return reached


def root_names(library_trees, users, awaiting=()):
    """The names the walk starts from: those in the module-level code of
    the syntax trees `library_trees`, those anywhere in the files `users`,
    and `awaiting`."""
    roots = set(awaiting) | referred_names(ast.parse(path.read_text(), filename=str(path))
                                           for path in users)
    for tree in library_trees:
        roots |= own_names(tree)
    return roots


def unreached_definitions(library, users, awaiting=()):
    """(file name, line, name) of each function, class, method or property
    in `library` that no root reaches (see root_names); dunders are exempt."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in library}
    reached = reached_names(trees.values(), root_names(trees.values(), users, awaiting))
    return sorted((path.name, node.lineno, node.name)
                  for path, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, DEFINITIONS) and not is_dunder(node.name)
                  and node.name not in reached)


def test_every_definition_is_reachable():
    assert unreached_definitions(sorted(SRC.glob("*.py")), BENCH, AWAITING_CALLER) == []


def stale_entries(library, users, awaiting):
    """(name, reason) of each entry of `awaiting` that `library` no longer
    defines, or that the walk reaches from the other roots."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in library]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, DEFINITIONS)}
    stale = []
    for name in sorted(awaiting):
        if name not in defined:
            stale.append((name, "gone"))
        elif name in reached_names(trees, root_names(trees, users, set(awaiting) - {name})):
            stale.append((name, "reached"))
    return stale


def test_awaiting_callers_are_defined_and_unreached():
    assert stale_entries(sorted(SRC.glob("*.py")), BENCH, AWAITING_CALLER) == []


def test_unreferenced_public_definition_is_reported(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "def called():\n    return 1\n\n\n"
        "def spare():\n    pass\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.x = called()\n\n"
        "    @property\n    def size(self):\n        return self.x\n\n"
        "    def unused(self):\n        pass\n\n\n"
        "class Spare:\n    pass\n\n\n"
        "def dead():\n    return helper()\n\n\n"
        "def helper():\n    def inner():\n        return 2\n    return inner\n\n\n"
        "def waiting():\n    return spare()\n\n\n"
        "def _setup():\n    return 3\n\n\n"
        "LIMIT = _setup()\n"
    )
    user.write_text("import lib\n\nprint(lib.Box().size)\n")
    # helper is reached only from the dead function dead, inner only from helper
    dead = [("lib.py", 17, "unused"), ("lib.py", 21, "Spare"), ("lib.py", 25, "dead"),
            ("lib.py", 29, "helper"), ("lib.py", 30, "inner")]
    assert unreached_definitions([lib], [user], {"waiting"}) == dead
    assert unreached_definitions([lib], [user]) == sorted(
        dead + [("lib.py", 5, "spare"), ("lib.py", 35, "waiting")])
    # waiting reaches spare, so spare cannot wait for a caller of its own
    assert stale_entries([lib], [user], {"waiting", "spare", "gone", "called"}) == [
        ("called", "reached"), ("gone", "gone"), ("spare", "reached"),
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
