"""The names of edgering that the benchmark harness in perfbench/ reads.

The harness imports edgering's modules and rebinds some of their functions,
so a deleted or renamed name would fail only when the benchmark runs. This
parses the harness, without running it, and checks each name here.
"""

import ast
import importlib
import inspect
from pathlib import Path

from edgering import toric

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module(name: str):
    """The module `name`, or None when there is none."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def _dotted(node: ast.AST) -> list[str] | None:
    """['a', 'b', 'c'] for the expression a.b.c, None for anything else."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else [*base, node.attr]
    return None


def _reads(path: Path) -> list[tuple[str, list[str]]]:
    """(module, attribute chain) for every name of edgering the file reads:
    the names of its `from edgering... import` statements, and the
    attributes it reads on a name bound to an edgering module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound: dict[str, str] = {}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "edgering":
                    bound[alias.asname or "edgering"] = alias.name if alias.asname else "edgering"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "edgering":
            for alias in node.names:
                if _module(f"{node.module}.{alias.name}") is not None:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                else:
                    reads.append((node.module, [alias.name]))
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in bound:
            reads.append((bound[chain[0]], chain[1:]))
    return reads


def test_perfbench_reads_only_names_that_exist():
    files = sorted(PERFBENCH.glob("*.py"))
    reads = [(path.name, module, chain) for path in files for module, chain in _reads(path)]
    # the harness reads the layers' entry points through both import forms
    assert {"tracing.py", "workloads.py"} <= {name for name, _, _ in reads}
    assert any(chain == ["window_row_cost"] for _, _, chain in reads)
    missing = []
    for name, module, chain in reads:
        obj = importlib.import_module(module)
        for attr in chain:
            if not hasattr(obj, attr):
                missing.append(f"{name}: {module}.{'.'.join(chain)}")
                break
            obj = getattr(obj, attr)
    assert not missing, missing


def test_toric_entry_point_takes_what_the_tracer_binds():
    # the tracer binds each call of minimal_generator_degrees and reads its
    # g, q_max and budget, the last one defaulted
    params = inspect.signature(toric.minimal_generator_degrees).parameters
    assert list(params)[:3] == ["g", "q_max", "budget"]
    assert params["budget"].default is not inspect.Parameter.empty
