"""Source hygiene that a linter would check: no module imports a name it
never uses, no private helper outlives its last caller, no function is
reachable only from the tests, and every name the benchmark traces exists."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import periodmaps
from periodmaps.catalog import MAPS
from periodmaps.data import FIXTURES
from periodmaps.varieties import available_periods
from test_cli import _readme_commands

PACKAGE = Path(periodmaps.__file__).parent
REPO = Path(__file__).resolve().parents[1]


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


# ------------------------------------------------------------ reachability

# parameters for the maps that need them: the README's and the recorded ones
PROBE_PARAMS = {
    "lyness2": ["--a", "7"],
    "euler": ["--alpha=1/3", "--beta=1/5", "--gamma=-2/7"],
    "moebius2d": ["--a", "2", "--b", "1/3"],
    "qrt": ["--qp", "1,2,0,3,1,2", "--qpp", "0,1,1,0,2,1"],
}


def _probe_commands():
    """The README block, every recorded elimination and fixtures pair, and
    verify, sample and --off-variety on every map."""
    commands = _readme_commands()
    commands += [["list", "--map", "lv3", "--format", "text"],
                 ["orbit", "--map", "lv4", "--init", "1,2,3,4", "--steps", "4"]]
    for name, spec in MAPS.items():
        for target, periods in spec.eliminations.items():
            params = PROBE_PARAMS.get(name, []) if target == name else []
            commands += [["eliminate", "--map", target, "--period", str(n)]
                         + params for n in periods]
    commands += [["fixtures", "--map", name, "--period", period]
                 for name, periods in FIXTURES.items() for period in periods]
    for name, spec in MAPS.items():
        params = PROBE_PARAMS.get(name, [])
        everywhere = spec.period
        for n in (everywhere,) if everywhere else available_periods(name):
            commands.append(["verify", "--map", name, "--period", str(n),
                             "--seeds", "5"] + params)
            if not everywhere:
                commands.append(["sample", "--map", name, "--period", str(n),
                                 "--seeds", "3"] + params)
        if not everywhere:
            commands.append(["verify", "--map", name, "--off-variety",
                             "--seeds", "5"] + params)
    return commands


# Runs the commands in one fresh interpreter, so that no cache an earlier
# test filled hides a build, and prints (file, first line) of every code
# object entered, import included.
_PROBE = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
commands = json.loads(sys.stdin.read())
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from periodmaps.cli import main
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        main(argv)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""

# Functions no probe command enters, each with the reason it stays.
UNENTERED_ALLOWED = {
    "algebra/ratfunc.py:RatFunc.eval":
        "compile_eval's bit-for-bit reference in test_compile_eval.py",
    "moebius.py:step_matrix_power":
        "the matrix-product reference for power_coefficients",
    "biquad.py:from_3dlv_symbolic":
        "criterion 7's pullback identity onto the lv3 generators",
    "algebra/poly.py:divides":
        "perfbench/tracing.py traces it by name",
    "algebra/gcd.py:_prs_gcd": "fallback when the heuristic gcd gives up",
    "algebra/gcd.py:_pseudo_rem": "the primitive PRS fallback's step",
    "algebra/gcd.py:_divided": "poly_gcd's exit for a zero input",
    "algebra/gcd.py:_canonical": "poly_gcd's exit for a zero input",
    "algebra/resultant.py:sylvester_matrix":
        "the general resultant, for a pivot of degree above 1",
    "algebra/resultant.py:det_bareiss":
        "the general resultant, for a pivot of degree above 1",
    "algebra/poly.py:_arity_error": "error constructor",
    "errors.py:PoleError.__init__": "error constructor",
    "varieties.py:checksum_cases":
        "the transcription check of varieties.json's checksums",
    "catalog.py:_euler_alpha_from_inertia":
        "euler's (I, J, K) parametrisation, which the CLI does not advertise",
    "algebra/poly.py:MPoly.__bool__": "the truth value protocol",
    "algebra/poly.py:MPoly.__hash__": "MPoly is a hashable value",
    "algebra/poly.py:MPoly.__repr__": "debugging repr",
    "catalog.py:IntegrableMap.__repr__":
        "debugging repr without the compiled functions",
}


def _functions(path: Path):
    """(qualified name, first line) of each function in a module, with the
    line of its first decorator, which is where its code object starts;
    nested functions follow their parent."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                yield prefix + child.name, first
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    yield from walk(tree, "")


def test_every_function_is_reached_from_the_command_line():
    """A function that no CLI command enters, and that carries no reason to
    stay, is reachable only from the tests: dead code by another name."""
    commands = _probe_commands()
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, str(PACKAGE.parent)],
        input=json.dumps(commands), capture_output=True, text=True,
        timeout=300)
    assert run.returncode == 0, run.stderr
    entered = {(str(Path(f).resolve()), line)
               for f, line in json.loads(run.stdout)}
    unentered = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        key = str(path.resolve())
        for name, first in _functions(path):
            if (key, first) not in entered:
                unentered.add(f"{path.relative_to(PACKAGE)}:{name}")
    # a nested function counts only where its parent ran
    unentered = {name for name in unentered
                 if name.rsplit(".", 1)[0] not in unentered}
    assert len(commands) >= 60
    dead = sorted(unentered - set(UNENTERED_ALLOWED))
    assert not dead, "functions no command enters:\n" + "\n".join(dead)
    stale = sorted(set(UNENTERED_ALLOWED) - unentered)
    assert not stale, ("allowed as unentered, but entered or gone:\n"
                       + "\n".join(stale))


def test_every_traced_benchmark_name_resolves():
    """perfbench/tracing.py wraps its LAYERS by name; a renamed or deleted
    function would break only the traced benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, attr, _ in tracing.LAYERS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)
