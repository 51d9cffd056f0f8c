"""Every module-level import and private helper in the package source is
used, every error class is raised, every random stream is seeded by the
caller, and importing the command line loads no process pool.

No linter ships with the project, so this reads each module with the
standard library's ast. `__init__.py` is skipped: it imports names only to
re-export them.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "splitlaw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import, with its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation such as "Polynomial" names its type in a string
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name}: unused imports {', '.join(unused)}"


def _referenced_names(node: ast.AST) -> set[str]:
    """Bare names and attribute names appearing anywhere under node."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_are_referenced(path):
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    statements = [
        (stmt, _referenced_names(stmt)) for tree in trees.values() for stmt in tree.body
    ]
    unreferenced = sorted(
        f"{node.name} (line {node.lineno})"
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        # a reference inside the definition itself, such as recursion, does not count
        and not any(node.name in names for stmt, names in statements if stmt is not node)
    )
    assert not unreferenced, f"{path.name}: unreferenced {', '.join(unreferenced)}"


def _module_constants(tree: ast.Module) -> set[str]:
    """Names bound by top-level assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _random_constructions(tree: ast.Module):
    """Calls of random.Random, or of Random imported by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "Random":
                yield node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_random_streams_are_seeded_by_the_caller(path):
    # all randomness derives from the one seed a caller passes (--seed), so no
    # stream may be unseeded or seeded from a literal or a module constant
    tree = ast.parse(path.read_text(encoding="utf-8"))
    constants = _module_constants(tree)
    fixed = []
    for call in _random_constructions(tree):
        seeds = [*call.args, *(k.value for k in call.keywords)]
        if not seeds or any(
            isinstance(s, ast.Constant) or _referenced_names(s) & constants for s in seeds
        ):
            fixed.append(f"line {call.lineno}")
    assert not fixed, f"{path.name}: random.Random not seeded by the caller at {', '.join(fixed)}"


def test_only_reciprocity_sweeps_primes():
    # one per-prime sweep: the process pool lives in reciprocity, and the
    # command line renders records without enumerating primes itself
    refs = {p.name: _referenced_names(ast.parse(p.read_text(encoding="utf-8"))) for p in MODULES}
    pooled = sorted(name for name, names in refs.items() if "ProcessPoolExecutor" in names)
    assert pooled == ["reciprocity.py"]
    enumerated = refs["cli.py"] & {"good_primes", "sieve_primes", "_split_primes"}
    assert not enumerated, f"cli.py enumerates primes through {sorted(enumerated)}"


def test_the_process_pool_is_imported_only_when_a_pool_runs():
    # every serial command would pay for concurrent.futures at start-up
    code = "import sys, splitlaw.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def _raised_names(tree: ast.Module):
    """Name of the exception in each `raise X` or `raise X(...)` statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_class_is_raised():
    # an error class whose last raiser was deleted would linger as public API
    raised = {
        name
        for path in SRC.glob("*.py")
        for name in _raised_names(ast.parse(path.read_text(encoding="utf-8")))
    }
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    unraised = sorted(
        f"{node.name} (line {node.lineno})"
        for node in errors.body
        if isinstance(node, ast.ClassDef) and node.name not in raised
    )
    assert not unraised, f"errors.py: never raised {', '.join(unraised)}"
