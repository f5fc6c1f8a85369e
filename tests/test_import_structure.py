"""Import structure of the monodd package, read from the source: every
import sits at module level, the intra-package imports form no cycle, and
scipy.linalg is imported only where its LAPACK extension cannot be loaded
directly; and, in fresh interpreters, what `import monodd` loads."""
import ast
import json
import subprocess
import sys
import textwrap
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


def scipy_linalg_imports(tree):
    """(line, in the ImportError fallback) of each import of scipy.linalg,
    of one of its submodules or of `linalg` from scipy in a module tree."""
    fallback = {
        id(node)
        for top in tree.body if isinstance(top, ast.Try)
        for handler in top.handlers
        if isinstance(handler.type, ast.Name) and handler.type.id == "ImportError"
        for node in ast.walk(handler)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
            found.append((node.lineno, id(node) in fallback))
    return found


def test_scipy_linalg_is_imported_only_in_the_loader_fallback():
    stray = [
        f"{name}.py:{line}"
        for name, tree in MODULES.items()
        for line, in_fallback in scipy_linalg_imports(tree)
        if not (name == "discretization" and in_fallback)
    ]
    assert stray == []
    assert [fallback for _, fallback in scipy_linalg_imports(MODULES["discretization"])] == [True]


def test_the_guard_sees_a_stray_import():
    tree = ast.parse("try:\n    import x\nexcept ImportError:\n    pass\nfrom scipy import linalg\n")
    assert scipy_linalg_imports(tree) == [(5, False)]


def fresh(code):
    """Run code in a fresh interpreter with this checkout's monodd first on
    sys.path; returns the JSON it prints last."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
    out = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


HEAVY = ("scipy.linalg", "numpy.f2py", "numpy.testing")


def test_import_monodd_leaves_scipy_linalg_unloaded():
    loaded = fresh(f"""
        import monodd
        import monodd.cli
        print(json.dumps([name for name in {HEAVY!r} if name in sys.modules]))
    """)
    assert loaded == []


IDENTITY = """
    from monodd import discretization
    from scipy.linalg import lapack
    print(json.dumps([discretization.dgttrf is lapack.dgttrf,
                      discretization.dgttrs is lapack.dgttrs]))
"""


def test_one_lapack_extension_whichever_imports_first():
    assert fresh(IDENTITY) == [True, True]
    assert fresh("import scipy.linalg\n" + textwrap.dedent(IDENTITY)) == [True, True]


def test_falls_back_to_scipy_linalg_where_no_extension_is_found(tmp_path):
    # Until scipy.linalg itself is imported, scipy's linalg directory is
    # replaced by an empty one in every lookup of the extension.
    loaded = fresh(f"""
        from importlib.machinery import PathFinder
        find_spec = PathFinder.find_spec

        def without_flapack(name, path=None, target=None):
            if name == "scipy.linalg._flapack" and "scipy.linalg" not in sys.modules:
                path = [{str(tmp_path)!r}]
            return find_spec(name, path, target)

        PathFinder.find_spec = staticmethod(without_flapack)
        from monodd import discretization
        from scipy.linalg import lapack
        print(json.dumps([discretization._flapack is lapack,
                          discretization.dgttrf is lapack.dgttrf]))
    """)
    assert loaded == [True, True]
