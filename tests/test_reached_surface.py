"""Every library name is reached by the library, a script or the benchmark.

The modules of ``src/junta_walk`` (not ``__init__.py``, whose re-exports
would count every name as used), ``scripts/`` and ``bench/`` are parsed with
``ast`` and read only.  A module-level function or class, or a method,
private or public (only dunder names are exempt), must be referenced by one
of them: as a name, an attribute, an imported name, or a part of a dotted
string such as a benchmark span name.
Names that only tests would call are deleted instead, apart from the exact
references and the test-table factories allowed below.  A reference made
inside an allowed definition does not count: code that only an allowed
reference calls is reached by the tests alone.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "junta_walk"

# Exact references the gates compare estimators against (gate 6 reads the
# paper's walk-concentration length from sample_size_concentration; gate 4
# and the bulk estimator's bit-for-bit checks read the per-set
# estimate_sq_coeff), and the factories that build the tests' tables.
ALLOWED = {
    "sample_size_concentration",
    "subcube_projection_exact",
    "expected_sq_estimate",
    "expected_bounded_influence",
    "estimator_bias_bound",
    "estimate_sq_coeff",
    "parity_table",
    "constant_table",
    "random_table",
}

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _trees() -> dict[Path, ast.Module]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return {p: ast.parse(p.read_text(), str(p)) for p in files}


def _references(trees) -> set[str]:
    refs: set[str] = set()
    for path, tree in trees.items():
        skipped = set()
        if path.parent == PACKAGE:
            skipped = {id(node) for qualified, node in _definitions(tree) if qualified in ALLOWED}
        stack: list[ast.AST] = [tree]
        while stack:
            node = stack.pop()
            if id(node) in skipped:
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    refs.update(node.value.split("."))
    return refs


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, node) of the module's functions, classes and methods,
    private ones included; only dunder names are skipped."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _dunder(node.name):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item


def test_every_public_library_name_is_reached_outside_the_tests():
    trees = _trees()
    refs = _references(trees)
    defined = [
        (f"{path.stem}.{qualified}", qualified, node.name)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for qualified, node in _definitions(tree)
    ]
    unreached = [
        full for full, qualified, name in defined if name not in refs and qualified not in ALLOWED
    ]
    assert not unreached, f"reached only by tests (or nothing): {sorted(unreached)}"
    stale = ALLOWED - {qualified for _, qualified, _ in defined}
    assert not stale, f"allowed names no longer defined: {sorted(stale)}"
