"""Every name a module of the package imports is read in that module.

No linter ships with the package's test dependencies, so this is the one
check that an import left behind by a deleted caller goes with it.
`__init__.py` is left out: its imports are the public surface, read by the
package's users.
"""

import ast
from pathlib import Path

import edgering

SOURCES = sorted(p for p in Path(edgering.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names each import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """The names the module reads, string annotations included: a quoted
    annotation such as -> "Graph" is parsed and its names read too."""
    annotations = [node.returns for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [node.annotation for node in ast.walk(tree)
                    if isinstance(node, (ast.arg, ast.AnnAssign))]
    trees = [tree] + [ast.parse(a.value, mode="eval") for ann in annotations if ann is not None
                      for a in ast.walk(ann)
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_every_import_is_read():
    # the check itself: a quoted annotation is a read, an unread import is found
    tree = ast.parse('from .graphs import Graph\ndef of(d) -> "Graph":\n    pass\n')
    assert "Graph" in _read(tree)
    tree = ast.parse("import numpy as np\nfrom .graphs import Graph\nx = np.zeros(1)\n")
    assert _imported(tree) == {"np": 1, "Graph": 2} and "Graph" not in _read(tree)
    assert len(SOURCES) >= 10
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read(tree)
        unused += [f"{path.name}:{line}: {name}" for name, line in _imported(tree).items()
                   if name not in read]
    assert not unused, unused
