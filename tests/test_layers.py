"""The module graph: two stacks, words and their Whitehead moves, and the
graphs and truncations built from them, joined only by the certifier and
the command line.  Each module imports exactly the hamcirc modules its
layer allows, and the package root imports none and re-exports nothing.
The package holds only what the commands, other package code or the
benchmark reach; test oracles and fixtures live in ``tests/oracles.py``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamcirc

PACKAGE = Path(hamcirc.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

LAYERS = {
    "__init__": set(),
    "words": set(),
    "multigraph": set(),
    "automorphisms": {"words"},
    "minimize": {"automorphisms", "words"},
    "quotients": {"multigraph", "words"},
    "outerplanar": {"multigraph", "quotients", "words"},
    "freeproduct": {"multigraph", "quotients", "words"},
    "finite": {"multigraph"},
    "certifier": {"automorphisms", "minimize", "multigraph", "quotients", "words"},
    "cli": {
        "automorphisms",
        "certifier",
        "finite",
        "freeproduct",
        "multigraph",
        "outerplanar",
        "quotients",
        "words",
    },
}
MODULES = sorted(set(LAYERS) - {"__init__"})


def hamcirc_imports(name: str) -> set[str]:
    """The hamcirc modules a module's source imports, anywhere in it."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module)
            elif node.level == 1 or node.module == "hamcirc":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("hamcirc."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hamcirc."):
                    found.add(alias.name.split(".")[1])
    return found


def closure(name: str) -> set[str]:
    """A module and every hamcirc module it loads, by the layer map."""
    out, todo = set(), [name]
    while todo:
        mod = todo.pop()
        if mod not in out:
            out.add(mod)
            todo.extend(LAYERS[mod])
    return out


def fresh(script: str) -> str:
    """Run ``script`` in a new interpreter that finds this hamcirc first."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_map_names_every_module():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_module_imports_its_layer(name):
    assert hamcirc_imports(name) == LAYERS[name]


def test_root_defines_only_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    body = tree.body
    assert ast.get_docstring(tree)
    assert len(body) == 2
    (target,) = body[1].targets
    assert target.id == "__version__"
    assert fresh("import hamcirc; print(sorted(k for k in vars(hamcirc) if k[0] != '_'))") == "[]\n"


@pytest.mark.parametrize("name", MODULES)
def test_module_loads_only_its_layer(name):
    script = (
        f"import sys, hamcirc.{name}\n"
        "print(' '.join(sorted(k for k in sys.modules if k.partition('.')[0] == 'hamcirc')))"
    )
    loaded = set(fresh(script).split())
    assert loaded == {"hamcirc"} | {f"hamcirc.{m}" for m in closure(name)}


def named(node: ast.AST) -> set[str]:
    """The identifiers that code names, as a variable or as an attribute;
    strings, docstrings among them, name nothing."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def top_level_names(tree: ast.Module) -> set[str]:
    """The names a module's own top-level code defines: its functions,
    classes and assigned names."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            out |= {t.id for x in targets for t in ast.walk(x) if isinstance(t, ast.Name)}
    return out


def bench_names(trees: list[ast.Module]) -> set[str]:
    """The hamcirc names the benchmark reaches: what it imports from
    hamcirc, every attribute it names, and every bare name it names that
    it does not define at top level itself, in any of its files."""
    own = set().union(*map(top_level_names, trees))
    out = set()
    for node in (sub for tree in trees for sub in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "hamcirc":
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Name) and node.id not in own:
            out.add(node.id)
    return out


def test_bench_names_skip_the_benchmarks_own_definitions():
    own = ast.parse("def shared(): pass\nLIMIT = 3\n")
    user = ast.parse(
        "from hamcirc.words import LIMIT\n"
        "import hamcirc.quotients as q\n"
        "shared(LIMIT, other, q.contract_level)\n"
    )
    assert bench_names([own, user]) == {"LIMIT", "other", "q", "contract_level"}


def test_every_public_name_is_reached_outside_the_tests():
    # a definition is reached when the benchmark (``bench_names``), a
    # module's top-level code (a __main__ block) or a reached definition
    # names it; a name used only by a definition that nothing reaches is
    # unreached too.  The public methods of a class with no base are
    # definitions of their own, reached by their name; the rest of the
    # class, and every method of a derived class (which its base may call,
    # as argparse calls _Parser.error), is reached with the class
    defs, reached = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef):
                methods = [
                    x
                    for x in stmt.body
                    if isinstance(x, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and x.name[0] != "_"
                    and not stmt.bases
                ]
                for method in methods:
                    defs.append((f"{path.stem}.{stmt.name}", {method.name}, [method]))
                rest = [x for x in stmt.body if x not in methods]
                parts = stmt.bases + stmt.keywords + stmt.decorator_list + rest
                defs.append((path.stem, {stmt.name}, parts))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.stem, {stmt.name}, [stmt]))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {t.id for x in targets for t in ast.walk(x) if isinstance(t, ast.Name)}
                defs.append((path.stem, names, [stmt]))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                reached |= named(stmt)
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PERFBENCH.glob("*.py"))]
    assert bench
    reached |= bench_names(bench)
    while live := [d for d in defs if d[1] & reached]:
        for d in live:
            defs.remove(d)
            for node in d[2]:
                reached |= named(node)
    unreached = sorted(
        f"{module}.{name}" for module, names, _ in defs for name in names if name[0] != "_"
    )
    assert not unreached, f"reached only from the tests: {', '.join(unreached)}"


def test_oracles_import_only_public_names():
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "hamcirc"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name.startswith("_")] == []
