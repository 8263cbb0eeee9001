"""No module imports a name it never reads.

The modules of ``src/junta_walk`` (not ``__init__.py``, whose imports are its
re-exports), ``tests/`` and ``scripts/`` are parsed with ``ast``.  A name an
import binds must be read somewhere in its module, as a name or as the root of
an attribute chain.  An import whose line carries ``# noqa: F401`` is exempt:
the library keeps a few names for the benchmark's tracer to patch.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _files() -> list[Path]:
    files = [p for p in (ROOT / "src" / "junta_walk").glob("*.py") if p.name != "__init__.py"]
    for folder in ("tests", "scripts"):
        files += (ROOT / folder).glob("*.py")
    return sorted(files)


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    # ``import a.b`` binds ``a``
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(f"{path.stem}:{line} {name}" for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    found = [entry for path in _files() for entry in unused_imports(path)]
    assert not found, f"imported and never read: {found}"


def test_the_guard_sees_an_unused_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import json\nimport os.path\nimport numpy as np\n"
        "from math import (\n    pi,\n    tau,  # noqa: F401 - kept for a patcher\n    e,\n)\n"
        "def area(r):\n    return pi * r * r + os.path.sep.count('/')\n"
    )
    assert unused_imports(source) == ["probe:2 json", "probe:4 np", "probe:8 e"]
