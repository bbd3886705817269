"""Source hygiene: library code signals failures with matsig errors, never assertions.

``python -O`` strips ``assert`` statements, and a bare ``AssertionError`` escapes
the CLI's error handling as a traceback.
"""

import ast
from pathlib import Path

import matsig

SOURCES = sorted(Path(matsig.__file__).resolve().parent.glob("*.py"))


def test_sources_are_found():
    assert any(path.name == "linalg.py" for path in SOURCES)


def test_no_assertions_in_library_code():
    offences = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            named = (isinstance(node, ast.Name) and node.id == "AssertionError") or (
                isinstance(node, ast.Attribute) and node.attr == "AssertionError"
            )
            if isinstance(node, ast.Assert) or named:
                offences.append(f"{path.name}:{node.lineno}")
    assert not offences, f"assertions in library code: {offences}"
