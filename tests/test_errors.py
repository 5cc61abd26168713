"""Every exception class in qthermo.errors is raised by the library and by a test.

A class that no source line raises is dead surface; one that no test
expects is an untested failure path.  Either way the class is orphaned and
should be deleted or exercised, so this lint fails on it.
"""

import ast
import re
from pathlib import Path

import pytest

import qthermo.errors

SRC = Path(qthermo.errors.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _error_classes() -> list[str]:
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    names = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    return [name for name in names if name != "QThermoError"]


def _raised_in_source() -> set[str]:
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return raised


def _expected_by_tests() -> set[str]:
    pattern = re.compile(r"pytest\.raises\(\s*\(?\s*([\w.,\s]+)")
    expected = set()
    for path in TESTS.glob("*.py"):
        for match in pattern.finditer(path.read_text(encoding="utf-8")):
            expected.update(tok.strip().split(".")[-1] for tok in match.group(1).split(","))
    return expected


ERROR_CLASSES = _error_classes()


def test_scan_finds_every_error_class():
    # guards the parametrization below against an empty or partial scan
    defined = {
        name
        for name, value in vars(qthermo.errors).items()
        if isinstance(value, type) and issubclass(value, qthermo.errors.QThermoError)
    }
    assert set(ERROR_CLASSES) == defined - {"QThermoError"}


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_error_class_is_raised_by_source_and_tests(name):
    assert name in _raised_in_source(), f"{name} is never raised in src/qthermo"
    assert name in _expected_by_tests(), f"no test expects {name} via pytest.raises"
