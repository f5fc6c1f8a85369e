"""Import structure of the monodd package, read from the source: every
import sits at module level, and the intra-package imports form no cycle."""
import ast
from pathlib import Path

import monodd

PACKAGE = Path(monodd.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def imported_modules(node):
    """The monodd modules an Import or ImportFrom node names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
        return {name.split(".")[1] for name in names if name.startswith("monodd.")}
    if node.level == 0:
        module = node.module or ""
        return {module.split(".")[1]} if module.startswith("monodd.") else set()
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names if alias.name in MODULES}


def test_no_import_inside_a_function_or_class():
    nested = []
    for name, tree in MODULES.items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for node in ast.walk(scope):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        nested.append(f"{name}.py:{node.lineno} in {scope.name}")
    assert nested == []


def test_intra_package_imports_have_no_cycle():
    graph = {
        name: set().union(
            *(imported_modules(node) for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)))
        )
        for name, tree in MODULES.items()
    }
    assert graph["iteration"] >= {"discretization", "verify", "volterra"}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
