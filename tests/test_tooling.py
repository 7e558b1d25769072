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


def _private_names(node):
    """The private names a top-level statement defines: a _function, a
    _Class or an assigned _name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_no_private_helper_goes_unreferenced():
    """A module-level _function, _Class or _name that no other statement
    of the package names is dead code left behind."""
    statements = []     # (module, top-level statement, names it reads)
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path, node, set(_referenced_names(node)))
                       for node in tree.body]
    helpers = [(path, node, name) for path, node, _ in statements
               for name in _private_names(node)]
    assert {type(node) for _, node, _ in helpers} >= {
        ast.FunctionDef, ast.Assign}
    dead = [f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}"
            for path, node, name in helpers
            if not any(name in names
                       for _, other, names in statements if other is not node)]
    assert not dead, "unreferenced private helpers:\n" + "\n".join(dead)


def _module_name(path: Path) -> str:
    parts = ("periodmaps",) + path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_targets(path: Path, tree):
    """The dotted names each import of a module names, resolved against its
    package; `from m import n` names both m and m.n."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rsplit(".", 1)[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_every_module_is_imported_by_another():
    """A module no other module of the package imports is reachable only
    from the tests: an orphan, like an unreferenced private helper.
    ``python -m periodmaps`` runs __main__, so it alone is exempt."""
    paths = sorted(PACKAGE.rglob("*.py"))
    imported = {}       # module -> the modules that import it or a submodule
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for target in _import_targets(path, tree):
            parts = target.split(".")
            for k in range(1, len(parts) + 1):
                imported.setdefault(".".join(parts[:k]), set()).add(
                    _module_name(path))
    orphans = [name for name in map(_module_name, paths)
               if name != "periodmaps.__main__"
               and not imported.get(name, set()) - {name}]
    assert not orphans, "modules no other module imports: " + ", ".join(
        orphans)


def test_a_function_level_import_only_breaks_a_cycle():
    """An import inside a function is allowed only where the module it
    names imports the importer at module level, so that importing it at
    the top would be circular; anything else belongs at the top."""
    trees = {_module_name(path): (path, ast.parse(
        path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(PACKAGE.rglob("*.py"))}
    top_level = {name: set(_import_targets(path, ast.Module(
        [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))],
        [])))
        for name, (path, tree) in trees.items()}
    misplaced = {}
    for name, (path, tree) in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                targets = list(_import_targets(path, node))
                if not any(name in top_level.get(t, ()) for t in targets):
                    misplaced[(path, node.lineno)] = (
                        f"{path.relative_to(PACKAGE)}:{node.lineno}: "
                        f"{fn.name} imports {targets[0]}")
    assert not misplaced, "function-level imports with no cycle:\n" + \
        "\n".join(misplaced.values())


def test_only_the_root_finder_imports_numpy():
    """numpy is the eigenvalue boundary of algebra.roots; every other
    module computes in Python numbers."""
    importers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if any(t.split(".")[0] == "numpy" for t in _import_targets(path, tree)):
            importers.append(str(path.relative_to(PACKAGE)))
    assert importers == ["algebra/roots.py"]
