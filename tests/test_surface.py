"""The public surface and the size of qthermo do not grow.

Two AST counts measure the surface: the names that ``__init__`` imports
with ``from ... import`` (the exported API), and the default values of the
functions and methods in ``src/qthermo`` whose names do not start with
``_`` (the defaulted public parameters).  A parameter that no caller
outside the tests sets is a constant, and a public function that only its
own unit tests call is deleted, so either count may fall but never rise.
The size is the source line count of ``src/qthermo/*.py`` as ``wc -l``
gives it.  When a change lowers a count, lower its ceiling here with it.
"""

import ast
from pathlib import Path

import qthermo

SRC = Path(qthermo.__file__).resolve().parent

MAX_EXPORTS = 71
MAX_PUBLIC_DEFAULTS = 25
MAX_SOURCE_LINES = 2496


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
