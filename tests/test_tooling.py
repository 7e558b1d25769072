"""Source hygiene that a linter would check: no module imports a name it
never uses, and no private helper outlives its last caller."""

import ast
from pathlib import Path

import periodmaps

PACKAGE = Path(periodmaps.__file__).parent


def _imported_names(tree):
    """(bound name, line) of each import; __future__ features excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.rglob("*.py")
                     if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(PACKAGE)}:{line}: {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _referenced_names(tree):
    """Every name a tree reads, as a bare name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def test_no_private_helper_goes_unreferenced():
    """A module-level _function or _Class that no other statement of the
    package names is dead code left behind."""
    statements = []     # (module, top-level statement, names it reads)
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path, node, set(_referenced_names(node)))
                       for node in tree.body]
    helpers = [(path, node) for path, node, _ in statements
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")]
    assert helpers
    dead = [f"{path.relative_to(PACKAGE)}:{node.lineno}: {node.name}"
            for path, node in helpers
            if not any(node.name in names
                       for _, other, names in statements if other is not node)]
    assert not dead, "unreferenced private helpers:\n" + "\n".join(dead)
