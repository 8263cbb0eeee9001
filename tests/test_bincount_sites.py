"""Samples are binned in one place each: no per-support binning copy comes back.

The modules of ``src/junta_walk`` are parsed with ``ast``, and every call of
``np.bincount`` is located by the function (or method) that makes it.  The
ERM sample on a pool of at most 20 coordinates and the lag samples are
binned by ``hypercube.signed_sums`` and the screen's pairs by
``walk.ScreenTally.add``; a wider pool's sums are popcounts, and every
support reads its sums through ``fourier.subcube_sums``.  A bincount
anywhere else is a second binning kernel.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"hypercube.signed_sums", "walk.ScreenTally.add"}


def bincount_sites(path: Path) -> list[str]:
    sites = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            func = child.func if isinstance(child, ast.Call) else None
            # np.bincount, numpy.bincount, or a bare bincount imported by name
            if getattr(func, "attr", getattr(func, "id", None)) == "bincount":
                sites.append(".".join([path.stem] + scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), [])
    return sites


def test_only_the_binning_kernels_call_bincount():
    modules = sorted((ROOT / "src" / "junta_walk").glob("*.py"))
    sites = {site for path in modules for site in bincount_sites(path)}
    assert sites == ALLOWED, f"bincount sites differ from the kernels: {sorted(sites ^ ALLOWED)}"


def test_the_guard_sees_a_bincount_by_its_function(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\nfrom numpy import bincount\n"
        "TOTAL = np.bincount([0])\n"
        "class Tally:\n    def add(self, keys):\n        return np.bincount(keys)\n"
        "def sums(cells):\n    def one(c):\n        return np.bincount(c, minlength=2)\n"
        "    return [one(c) for c in cells] + [bincount(cells[0])]\n"
    )
    assert bincount_sites(source) == ["probe", "probe.Tally.add", "probe.sums.one", "probe.sums"]
