"""No function of the library mutates module-level state or reads the environment.

Each module of ``src/junta_walk`` is parsed with ``ast``.  Inside any
function, a module-level name must not be mutated by a method call such as
``.add`` or ``.append``, by subscript assignment or deletion, or through a
``global`` statement; a function's own parameters and locals may shadow it.
No module may touch the process environment (``os.environ``, ``os.getenv``,
``os.putenv``, or ``environ``/``getenv``/``putenv`` imported from ``os``).
Process-global state would be shared by every trial of a process, so a
run's results and warnings could depend on earlier runs or on the shell
that started them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "junta_walk"

MUTATORS = {
    "add", "append", "update", "setdefault", "pop", "clear",
    "extend", "discard", "remove", "insert",
}


def _module_names(tree: ast.Module) -> set[str]:
    """Names the module assigns at its top level (not imports or defs)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _root(node: ast.AST) -> str | None:
    """The name a chain of attributes and subscripts starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _mutated(func: ast.FunctionDef) -> set[str]:
    """Names a function mutates and does not bind locally, plus its globals."""
    args = func.args
    local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    local.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    declared: set[str] = set()
    mutated: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS:
                mutated.add(_root(node.func.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            mutated.update(_root(t) for t in targets if isinstance(t, ast.Subscript))
    return (mutated - local) | declared


def global_mutations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    names = _module_names(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(f"{path.stem}.{name}" for name in _mutated(node) & names)
    return sorted(found)


ENVIRONMENT = {"environ", "getenv", "putenv"}


def environment_reads(path: Path) -> list[str]:
    """``module:line`` of each place a module touches the process environment."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            found.append(f"{path.stem}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENVIRONMENT for alias in node.names):
                found.append(f"{path.stem}:{node.lineno}")
    return sorted(found)


def test_no_function_mutates_module_level_state():
    found = [name for path in sorted(PACKAGE.glob("*.py")) for name in global_mutations(path)]
    assert not found, f"module-level names mutated by functions: {found}"


def test_the_guard_sees_each_kind_of_mutation(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "_seen = set()\n_cache = {}\n_log = []\n_count = 0\n_kept = []\n"
        "def warn(key):\n    _seen.add(key)\n"
        "def store(key, value):\n    _cache[key] = value\n    del _cache[key]\n"
        "def bump():\n    global _count\n    _count += 1\n"
        "def shadowed(_log):\n    _log.append(1)\n"
        "def local():\n    _kept = []\n    _kept.append(1)\n"
    )
    assert global_mutations(source) == ["probe._cache", "probe._count", "probe._seen"]


def test_no_module_reads_the_environment():
    found = [site for path in sorted(PACKAGE.glob("*.py")) for site in environment_reads(path)]
    assert not found, f"environment reads: {found}"


def test_the_environment_guard_sees_each_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import os\nfrom os import environ\nfrom os import getenv as ge\n"
        "a = os.environ.get('A')\nb = os.getenv('B')\nos.putenv('C', '1')\n"
        "d = os.path.join('x', 'y')\n"
    )
    assert environment_reads(source) == [
        "probe:2", "probe:3", "probe:4", "probe:5", "probe:6",
    ]
