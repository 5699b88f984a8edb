"""The package's import graph: every import at module level, no cycle, and
the twirl's algebra at the bottom, below comb, choi and objective.  And its
error contract: no module raises a bare ValueError, every exported error
is a QCombsError, and each one has a raise site."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import qcombs

SRC = Path(qcombs.__file__).parent


def _package_imports():
    """The package modules each module imports, and the line numbers of the
    import statements that are not at module level: inside a function, a
    class or an ``if TYPE_CHECKING:`` block."""
    graph, nested = {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        deps, inner = set(), []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if id(node) not in top:
                inner.append(node.lineno)
            level = getattr(node, "level", 0)
            if isinstance(node, ast.Import) or not node.module:
                names = [a.name for a in node.names]
            else:
                names = [node.module]
            for name in names:
                if level or name.startswith("qcombs."):
                    deps.add(name.removeprefix("qcombs.").split(".")[0])
        graph[path.stem], nested[path.stem] = deps, inner
    return graph, nested


def test_every_import_is_at_module_level():
    _, nested = _package_imports()
    assert {m: lines for m, lines in nested.items() if lines} == {}


def test_the_module_graph_is_acyclic():
    graph, _ = _package_imports()
    assert set().union(*graph.values()) <= set(graph)
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_twirl_imports_only_labeled_and_errors():
    graph, _ = _package_imports()
    assert graph["twirl"] == {"labeled", "errors"}


def _raised_names():
    """The names the package's raise statements raise, as `raise Name(...)`
    or `raise Name`."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_refusal_is_a_qcombs_error():
    # A bare ValueError escapes `except QCombsError`; the package raises
    # InvalidArgumentError, a QCombsError that is also a ValueError.
    bare = [p.name for p in sorted(SRC.glob("*.py")) if "raise ValueError" in p.read_text()]
    assert bare == []
    errors = [getattr(qcombs, name) for name in qcombs.__all__ if name.endswith("Error")]
    assert all(issubclass(e, qcombs.QCombsError) for e in errors)
    # An error type that nothing raises is a promise the package never keeps.
    unraised = {e.__name__ for e in errors} - {"QCombsError"} - _raised_names()
    assert unraised == set()
