"""Every imported name is used, and every private definition is read.

Each module of the package and of the tests is parsed with `ast`.  An
imported name passes when the module reads it, lists it in `__all__`, or
imports it on a line marked `# noqa: F401`; `from __future__` imports
are exempt.  A module-level function or class of the package whose name
starts with `_` passes when some module of the package or the tests
reads it, by name or as an attribute.  No function of the package walks
the power set through `all_measurable_sets`; only the tests do.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "typemonoid").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def _imported(tree):
    """(bound name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, alias.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree):
    """Names the module reads, forward references in annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _read(tree) | _exported(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _imported(tree)
        if name not in used and "# noqa: F401" not in lines[line - 1]
    ]
    assert not unused, f"unused imports in {path.name}: {', '.join(unused)}"


PACKAGE = sorted((ROOT / "src" / "typemonoid").glob("*.py"))


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name, node.lineno


def test_every_private_definition_is_read():
    read = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _read(tree)
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unread = [
        f"{path.name}: {name} (line {line})"
        for path in PACKAGE
        for name, line in _private_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in read
    ]
    assert not unread, f"private definitions nothing reads: {', '.join(unread)}"


def test_no_package_function_walks_the_power_set():
    calls = [
        f"{path.name}: line {node.lineno}"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "all_measurable_sets"
    ]
    assert not calls, f"all_measurable_sets called in {', '.join(calls)}"
