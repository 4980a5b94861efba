"""The module graph: two stacks, words and their Whitehead moves, and the
graphs and truncations built from them, joined only by the certifier and
the command line.  Each module imports exactly the hamcirc modules its
layer allows, and the package root imports none and re-exports nothing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamcirc

PACKAGE = Path(hamcirc.__file__).resolve().parent

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
