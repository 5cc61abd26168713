"""The public surface and the size of qthermo do not grow.

Three AST counts measure the surface: the names that ``__init__`` imports
with ``from ... import`` (the exported API), the default values of the
functions and methods in ``src/qthermo`` whose names do not start with
``_`` (the defaulted public parameters), and the defaulted ``__init__``
fields of its public dataclasses (the defaulted public fields).  A
parameter that no caller outside the tests sets is a constant, and a public
function that only its own unit tests call is deleted, so each count may
fall but never rise.
The size is the source line count of ``src/qthermo/*.py`` as ``wc -l``
gives it.  Each ceiling equals its count, so a change that lowers a count
must lower its ceiling here with it.
Three more checks enforce the rules: every export, and every public
method, property and dataclass field of a class, is read by the library,
the acceptance tests or the benchmark harness, and every defaulted public
parameter or field is left out by at least one call there (a dataclass
field by a call of its class).  The modules import each
other without a cycle, counting the imports made inside functions.
One more rule keeps the Brownian probe's routes in one place: outside
``clm._route``, ``clm`` names a reservoir family only in its two input
checks.  And ``clm._poles`` solves its quartic with no call to numpy's
polynomial helpers, whose overhead on four coefficients was most of its time.
"""

import ast
from pathlib import Path

import qthermo

SRC = Path(qthermo.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent

MAX_EXPORTS = 63
MAX_PUBLIC_DEFAULTS = 8
MAX_PUBLIC_FIELD_DEFAULTS = 2
MAX_SOURCE_LINES = 2215
MAX_CLM_ISINSTANCE = 4
FAMILIES = frozenset({"DiscreteModes", "ExponentialCutoff", "LorentzDrude"})
# (class or function, method) of the input checks that may name a family
INPUT_CHECKS = frozenset({("SteadyStateQuery", "__post_init__"), ("free_probe_qfi_limit",)})
POLYNOMIAL_HELPERS = frozenset({"np.roots", "np.polyval", "np.polymul", "np.polyadd", "np.polyder"})


def _at_ceiling(count: int, ceiling: int, what: str, detail) -> None:
    """count may not rise above its ceiling, and one that falls below it
    fails until the ceiling is lowered to it."""
    assert count <= ceiling, f"{count} {what} > {ceiling}: {detail}"
    assert count == ceiling, f"{count} {what} < {ceiling}: lower the ceiling to {count}"


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether node is decorated with @dataclass or @dataclass(...)."""
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted_fields(node: ast.ClassDef) -> list[tuple[str, int]]:
    """(name, position among the __init__ parameters) of each defaulted
    __init__ field of a dataclass; a field(init=False) is not a parameter,
    and a field(...) has a default only with default or default_factory."""
    out, position = [], 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value, defaulted = item.value, item.value is not None
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        if defaulted:
            out.append((item.target.id, position))
        position += 1
    return out


def _public_dataclasses():
    """(module, class node) of each dataclass in src/qthermo whose name does
    not start with _."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                if not node.name.startswith("_"):
                    yield path.stem, node


def _public_field_defaults() -> list[str]:
    return [
        f"{module}.{node.name}.{name}"
        for module, node in _public_dataclasses()
        for name, _ in _defaulted_fields(node)
    ]


def _uses(node: ast.AST, inside: frozenset = frozenset()):
    """Names read (loaded) as ast.Name or ast.Attribute, except inside their
    own definition; an assignment or a field's annotation is not a read."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    loaded = isinstance(getattr(node, "ctx", None), ast.Load)
    if loaded and isinstance(node, ast.Name) and node.id not in inside:
        yield node.id
    elif loaded and isinstance(node, ast.Attribute) and node.attr not in inside:
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
    _at_ceiling(len(names), MAX_EXPORTS, "exports", sorted(names))


def test_public_defaults_do_not_grow():
    counts = _public_defaults()
    total = sum(counts.values())
    _at_ceiling(total, MAX_PUBLIC_DEFAULTS, "defaulted public parameters", counts)


def test_public_field_defaults_do_not_grow():
    fields = _public_field_defaults()
    # guards the count against a scan that reads field(init=False) as a default
    assert "spectral.StarSpec.warnings" in fields
    assert not [f for f in fields if f.endswith(("omega_R_sq", "_memo"))]
    _at_ceiling(len(fields), MAX_PUBLIC_FIELD_DEFAULTS, "defaulted public fields", fields)


def test_source_lines_do_not_grow():
    # wc -l counts newline characters
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    _at_ceiling(total, MAX_SOURCE_LINES, "source lines", counts)


def _used() -> set[str]:
    paths = _callers()
    assert all(path.is_file() for path in paths)
    used = set()
    for path in paths:
        used.update(_uses(ast.parse(path.read_text(encoding="utf-8"))))
    return used


def test_every_export_has_a_caller():
    unreached = sorted(set(_exports()) - _used())
    assert not unreached, f"exports with no caller outside the unit tests: {unreached}"


def _members() -> list[tuple[str, str]]:
    """(class, member) for each public method, property and dataclass field
    (a name annotated in the class body) of the classes in src/qthermo."""
    members = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members.append((node.name, name))
    return members


# The CLI writes each fit whole into the run summary with dataclasses.asdict,
# which reads every field without naming it.
WRITTEN_WHOLE = frozenset({"ScalingFit"})


def test_every_public_member_has_a_caller():
    used = _used()
    members = _members()
    assert ("EffectiveStar", "coupled_modes") in members and "asdict" in used
    unread = [
        f"{cls}.{name}"
        for cls, name in members
        if name not in used and cls not in WRITTEN_WHOLE
    ]
    assert not unread, f"class members with no reader outside the unit tests: {unread}"


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
    for module, node in _public_dataclasses():
        for name, position in _defaulted_fields(node):
            if not any(_leaves_out(c, name, position) for c in calls.get(node.name, [])):
                unrelied.append(f"{module}.{node.name}.{name}")
    assert not unrelied, f"defaults no call outside the unit tests relies on: {unrelied}"


def _import_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """module -> the modules it imports by a relative import at any depth,
    a lazy import inside a function included; `from . import x` is __init__."""
    return {
        module: {
            node.module or "__init__"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
        for module, text in sources.items()
    }


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of graph as a path that ends where it starts, or None."""
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str] | None:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done or module not in graph:
            return None
        for dep in sorted(graph[module]):
            found = visit(dep, path + [module])
            if found:
                return found
        done.add(module)
        return None

    return next(filter(None, (visit(m, []) for m in sorted(graph))), None)


def test_scan_finds_a_lazy_import_cycle():
    # guards the check below against a scan that misses an import in a function
    sources = {
        "a": "from .b import f\n",
        "b": "def f():\n    from .a import g\n    return g\n",
        "c": "from . import a\n",
    }
    assert _import_graph(sources) == {"a": {"b"}, "b": {"a"}, "c": {"__init__"}}
    assert _cycle(_import_graph(sources)) == ["a", "b", "a"]


def test_modules_import_without_a_cycle():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    graph = _import_graph(sources)
    assert "spectral" in graph["clm"] and "chain" in graph["__init__"]
    assert _cycle(graph) is None, f"import cycle: {' -> '.join(_cycle(graph))}"


def _scoped(node: ast.AST, scope: tuple = ()):
    """(scope, node) for every node below node, scope the names of the
    classes and functions that enclose it, outermost first."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _scoped(child, scope + (child.name,) if named else scope)


def _named(node: ast.AST) -> str | None:
    """The name an ast.Name or ast.Attribute reads or binds, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_clm_picks_the_route_in_one_place():
    scoped = list(_scoped(ast.parse((SRC / "clm.py").read_text(encoding="utf-8"))))
    family = {scope for scope, node in scoped if _named(node) in FAMILIES}
    # guards the check against a scan that misses the route's own reads
    assert ("_route",) in family
    outside = {scope for scope in family if "_route" not in scope} - INPUT_CHECKS
    assert not outside, f"clm names a reservoir family outside _route: {sorted(outside)}"
    assert not [node for _, node in scoped if _named(node) == "_EXACT"]
    tests = [node for _, node in scoped if isinstance(node, ast.Call) and _named(node.func) == "isinstance"]
    _at_ceiling(len(tests), MAX_CLM_ISINSTANCE, "isinstance tests in clm", "")


def _dotted(node: ast.AST) -> str | None:
    """The dotted name of an ast.Name or a chain of ast.Attribute, else None."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def test_poles_call_no_polynomial_helper():
    tree = ast.parse((SRC / "clm.py").read_text(encoding="utf-8"))
    poles = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_poles")
    called = {_dotted(node.func) for node in ast.walk(poles) if isinstance(node, ast.Call)}
    # guards the check against a scan that misreads numpy's dotted calls
    assert "np.linalg.eigvals" in called or "np.polyval" in called
    assert not called & POLYNOMIAL_HELPERS, f"_poles calls {sorted(called & POLYNOMIAL_HELPERS)}"
