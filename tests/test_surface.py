"""The public surface and the size of qthermo do not grow.

Two AST counts measure the surface: the names that ``__init__`` imports
with ``from ... import`` (the exported API), and the default values of the
functions and methods in ``src/qthermo`` whose names do not start with
``_`` (the defaulted public parameters).  A parameter that no caller
outside the tests sets is a constant, and a public function that only its
own unit tests call is deleted, so either count may fall but never rise.
The size is the source line count of ``src/qthermo/*.py`` as ``wc -l``
gives it.  When a change lowers a count, lower its ceiling here with it.
Two more checks enforce the rules: every export has a caller in the
library, the acceptance tests or the benchmark harness, and every defaulted
public parameter is left out by at least one call there.
"""

import ast
from pathlib import Path

import qthermo

SRC = Path(qthermo.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent

MAX_EXPORTS = 64
MAX_PUBLIC_DEFAULTS = 8
MAX_SOURCE_LINES = 2375


def _exports() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _public_defaults() -> dict[str, int]:
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            n = len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            if n:
                key = f"{path.stem}.{node.name}"
                counts[key] = counts.get(key, 0) + n
    return counts


def _uses(node: ast.AST, inside: frozenset = frozenset()):
    """Names read as ast.Name or ast.Attribute, except inside their own definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and node.id not in inside:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, inside)


def _callers() -> list[Path]:
    """The code an export must be reached from: the library, the acceptance
    tests and the benchmark harness, not the unit tests."""
    library = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    harness = sorted((REPO / "perfbench").glob("*.py"))
    return library + [REPO / "tests" / "test_acceptance.py"] + harness


def test_scan_finds_the_exports():
    # guards the count below against a scan that misreads __init__
    names = _exports()
    assert names and len(set(names)) == len(names)
    assert all(hasattr(qthermo, name) for name in names)


def test_exports_do_not_grow():
    names = _exports()
    assert len(names) <= MAX_EXPORTS, f"{len(names)} exports > {MAX_EXPORTS}: {sorted(names)}"


def test_public_defaults_do_not_grow():
    counts = _public_defaults()
    total = sum(counts.values())
    assert total <= MAX_PUBLIC_DEFAULTS, (
        f"{total} defaulted public parameters > {MAX_PUBLIC_DEFAULTS}: {counts}"
    )


def test_source_lines_do_not_grow():
    # wc -l counts newline characters
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    assert total <= MAX_SOURCE_LINES, f"{total} source lines > {MAX_SOURCE_LINES}: {counts}"


def test_every_export_has_a_caller():
    paths = _callers()
    assert all(path.is_file() for path in paths)
    used = set()
    for path in paths:
        used.update(_uses(ast.parse(path.read_text(encoding="utf-8"))))
    unreached = sorted(set(_exports()) - used)
    assert not unreached, f"exports with no caller outside the unit tests: {unreached}"


def _defaulted_parameters(node: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each defaulted parameter; None for keyword-only.
    A method's position does not count self or cls."""
    args = node.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional]
    offset = 1 if names and names[0] in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
    keyword = zip(args.kwonlyargs, args.kw_defaults)
    return out + [(a.arg, None) for a, d in keyword if d is not None]


def _leaves_out(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether call passes name neither by position nor by keyword; a *args or
    **kwargs may pass anything."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return False
    return position is None or len(call.args) <= position


def test_every_public_default_has_a_caller():
    calls = {}
    for path in _callers():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unrelied = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            for name, position in _defaulted_parameters(node):
                if not any(_leaves_out(c, name, position) for c in calls.get(node.name, [])):
                    unrelied.append(f"{path.stem}.{node.name}({name})")
    assert not unrelied, f"defaults no call outside the unit tests relies on: {unrelied}"
