"""Static checks: every import in the package modules is used, and so is
every definition.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  A name bound by an import counts as used when
it is read anywhere in the module (as a bare name or as the base of an
attribute access).  The package ``__init__`` is exempt: its imports are the
public re-exports.

A function, class, method or module-level name assigned in the package
counts as used when its name is read somewhere under src/, tests/ or
perfbench/: as a bare name, as an attribute, or as a whole string constant
(perfbench looks functions up by name).  Importing or assigning a name is
not a use.  Dunder names are exempt.

Every parameter of a function under src/ is read in its body, nested
functions and lambdas included; ``self`` and ``cls`` are exempt.

No module under src/ calls ``np.unique``, ``np.fft.*`` or ``np.ma.*``.

``systems.size_bound`` is the one place under src/ that reads ``os.environ``
or ``os.getenv``, so the engine has exactly one environment knob.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parabraid"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nx = np.pi + len(sep)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: path"]


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, qualified name) of every non-dunder function, class, method and module-level
    assigned name."""
    tree = ast.parse(source)
    out = [(node.lineno, node.id) for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
           for node in ast.walk(stmt)
           if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and not is_dunder(node.id)]

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not is_dunder(child.name):
                    out.append((child.lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return sorted(out)


def referenced_names(sources) -> set[str]:
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def dead_definitions(source: str, referenced: set[str]) -> list[str]:
    return [f"line {line}: {name}" for line, name in definitions(source)
            if name.rsplit(".", 1)[-1] not in referenced]


@lru_cache(maxsize=1)
def project_references() -> frozenset[str]:
    files = [p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py")]
    return frozenset(referenced_names(p.read_text(encoding="utf-8") for p in files))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_definitions(path):
    assert dead_definitions(path.read_text(encoding="utf-8"), project_references()) == []


def test_checker_flags_a_dead_definition():
    source = (
        "class Box:\n"
        "    def __repr__(self): return 'Box'\n"
        "    def used(self): return 1\n"
        "    def unused(self): return 2\n"
        "def helper(): return Box().used()\n"
        "def orphan(): return helper()\n"
        "def traced(): pass\n"
        "from os import sep\n"
    )
    caller = "import mod\nmod.helper()\nx = Box\nSPANS = [('mod', 'traced')]\n"
    referenced = referenced_names([source, caller])
    assert dead_definitions(source, referenced) == ["line 4: Box.unused", "line 6: orphan"]
    assert "sep" not in referenced


def test_checker_flags_a_dead_module_name():
    source = (
        "__version__ = '1'\n"
        "TOL = 1e-9\n"
        "LIMIT: int = 3\n"
        "STALE = 2\n"
        "LOW, HIGH = 0, 1\n"
        "def bound(): return LIMIT + LOW\n"
    )
    caller = "import mod\nmod.bound(mod.TOL)\n"
    referenced = referenced_names([source, caller])
    assert dead_definitions(source, referenced) == ["line 4: STALE", "line 5: HIGH"]


def unused_parameters(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [(node.lineno, f"{getattr(node, 'name', 'lambda')}({a.arg})") for a in params
                    if a.arg not in read and a.arg not in ("self", "cls")]
    return [f"line {line}: {name}" for line, name in sorted(out)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_parameter():
    source = (
        "class Box:\n"
        "    def size(self, scale): return 2\n"
        "    @classmethod\n"
        "    def make(cls, *args, **kwargs): return cls(*args)\n"
        "def identify(enc, word, tol=1e-9):\n"
        "    def inner(x): return x + enc + word\n"
        "    return inner\n"
        "pick = lambda a, b: a\n"
    )
    assert unused_parameters(source) == ["line 2: size(scale)", "line 4: make(kwargs)",
                                         "line 5: identify(tol)", "line 8: lambda(b)"]


def dotted_name(node: ast.AST) -> str | None:
    """'np.fft.fft' for the attribute chain np.fft.fft, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def numpy_submodule_calls(source: str) -> list[str]:
    """Calls that load numpy submodules the engine otherwise never needs: np.unique imports
    numpy.ma (numpy >= 2.3), and np.fft.* and np.ma.* import their packages."""
    out = []
    for node in ast.walk(ast.parse(source)):
        name = dotted_name(node.func) if isinstance(node, ast.Call) else None
        if name is None:
            continue
        root, _, rest = name.partition(".")
        if root in ("np", "numpy") and (rest == "unique" or rest.startswith(("fft.", "ma."))):
            out.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(out)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_submodule_calls(path):
    assert numpy_submodule_calls(path.read_text(encoding="utf-8")) == [], (
        "these calls load numpy.ma or numpy.fft, which the engine otherwise never imports; "
        "use clifford._sorted_unique for large arrays, sorted(set(...)) for a few ints, and a "
        "root-of-unity product for a short DFT")


def test_checker_flags_numpy_submodule_calls():
    source = (
        "import numpy as np\n"
        "a = np.unique([3, 1, 3])\n"
        "b = np.fft.fft(a).real\n"
        "c = numpy.ma.is_masked(a)\n"
        "d = np.sort(np.asarray(a))\n"
        "e = sorted(set([3, 1, 3]))\n"
        "f = keys.unique()\n"
    )
    assert numpy_submodule_calls(source) == ["line 2: np.unique", "line 3: np.fft.fft",
                                             "line 4: numpy.ma.is_masked"]


def environment_reads(source: str) -> list[str]:
    """Each os.environ or os.getenv access, and each import of either from os, as
    'line N: scope: name', scope the enclosing def or class path or <module>."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and dotted_name(child) in ("os.environ", "os.getenv"):
                out.append((child.lineno, scope, dotted_name(child)))
            elif isinstance(child, ast.ImportFrom) and child.module == "os":
                out.extend((child.lineno, scope, f"os.{alias.name}") for alias in child.names
                           if alias.name in ("environ", "getenv"))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {scope}: {name}" for line, scope, name in sorted(out)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_size_bound_reads_the_environment(path):
    reads = [read.split(": ", 1)[1] for read in environment_reads(path.read_text(encoding="utf-8"))]
    assert reads == (["size_bound: os.environ"] if path.name == "systems.py" else []), (
        "the engine has one environment knob, PARABRAID_SIZE_BOUND, read by systems.size_bound")


def test_checker_flags_environment_reads():
    source = (
        "import os\n"
        "from os import environ, path\n"
        "DEBUG = os.getenv('DEBUG')\n"
        "class Config:\n"
        "    def load(self):\n"
        "        return os.environ.get('X', os.sep)\n"
        "def bound():\n"
        "    return int(os.environ['B']) + len(path.sep)\n"
    )
    assert environment_reads(source) == ["line 2: <module>: os.environ", "line 3: <module>: os.getenv",
                                         "line 6: Config.load: os.environ", "line 8: bound: os.environ"]
