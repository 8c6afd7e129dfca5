"""Each `mgg` module is the one home of the names it defines.

Code imports a name from the module that defines it, never through a
module that merely imports it (the tests' own helper modules, such as
`oracles`, included), and a bare `import mgg` loads the eight
library modules that `perfbench/` reads from `sys.modules`, but not the CLI.
The package holds only what the CLI and the benchmark use: every name it
defines is used elsewhere in the package or named in `perfbench/`, and
every method or property of a package class is read as an attribute
elsewhere in the package or as a `.name` in `perfbench/`, unless it is a
dunder or overrides a base class.  The reference rules,
`kernel.legal_moves` and `kernel.apply_move`, share no code with the
engine they check.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIBRARY = ("arena", "graphs", "kernel", "matching", "polysolve", "posfile",
           "reductions", "search")
#: The tests' helper modules, imported by bare name (`from oracles import ...`).
HELPERS = {path.stem: path for path in (ROOT / "tests").glob("*.py")
           if not path.stem.startswith("test_")}


def _defined_by(node: ast.stmt) -> set[str]:
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _defined(path: Path) -> set[str]:
    """The names a module binds at top level by def, class or assignment."""
    return set().union(*map(_defined_by, ast.parse(path.read_text()).body))


def _imports(path: Path):
    """(module, name) of each `from .module import name` in a package file,
    each `from mgg.module import name` elsewhere and each import from a
    test helper module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("mgg."):
            module = node.module.removeprefix("mgg.")
        elif node.level == 0 and node.module in HELPERS:
            module = node.module
        else:
            continue
        for alias in node.names:
            yield module, alias.name


def test_every_imported_name_comes_from_the_module_that_defines_it():
    package = sorted((SRC / "mgg").glob("*.py"))
    defined = {path.stem: _defined(path) for path in package + list(HELPERS.values())}
    strays = [
        f"{path.relative_to(ROOT)}: {name} from {module}"
        for path in package + sorted((ROOT / "tests").glob("*.py"))
        for module, name in _imports(path)
        if name not in defined[module]
    ]
    assert strays == []


def test_import_mgg_loads_the_library_modules_and_not_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = "import mgg, sys; print(*sorted(m for m in sys.modules if m.startswith('mgg.')))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [f"mgg.{m}" for m in LIBRARY]


def _used(node: ast.AST) -> set[str]:
    """The names, attributes and imported names that `node` refers to."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name)
    return used


def test_every_package_name_is_used_in_the_package_or_the_benchmark():
    statements = [(path, node) for path in sorted((SRC / "mgg").glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    bench = " ".join(path.read_text() for path in (ROOT / "perfbench").glob("*.py"))
    named = set(re.findall(r"\w+", bench))
    unused = []
    for path, node in statements:
        for name in sorted(_defined_by(node) - named):
            if not any(name in _used(other) for _, other in statements if other is not node):
                unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert unused == []


def test_every_package_method_is_used_in_the_package_or_the_benchmark():
    trees = {path: ast.parse(path.read_text()) for path in sorted((SRC / "mgg").glob("*.py"))}
    attributes = [n for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)]
    bench = " ".join(path.read_text() for path in (ROOT / "perfbench").glob("*.py"))
    unused = []
    for path, tree in trees.items():
        module = importlib.import_module(f"mgg.{path.stem}")
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            bases = getattr(module, cls.name).__mro__[1:]
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                name = member.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if any(hasattr(base, name) for base in bases):  # an override
                    continue
                if re.search(rf"\.{name}\b", bench):
                    continue
                inside = set(map(id, ast.walk(member)))
                if not any(a.attr == name and id(a) not in inside for a in attributes):
                    unused.append(f"{path.relative_to(ROOT)}: {cls.name}.{name}")
    assert unused == []


def test_reference_rules_share_no_code_with_the_engine():
    # the bodies of legal_moves and apply_move name no engine, rule set or closure
    kernel = ast.parse((SRC / "mgg" / "kernel.py").read_text())
    functions = {node.name: node for node in kernel.body if isinstance(node, ast.FunctionDef)}
    engine = {"_Engine", "_RULES", "_nimg_labels"} | {f for f in functions if f.endswith("_rules")}
    closures = {"move_bits", "child", "encode", "move"}
    shared = [f"{name}: {n.id}" if isinstance(n, ast.Name) else f"{name}: .{n.attr}"
              for name in ("legal_moves", "apply_move") for n in ast.walk(functions[name])
              if isinstance(n, ast.Name) and n.id in engine
              or isinstance(n, ast.Attribute) and n.attr in closures]
    assert shared == []
