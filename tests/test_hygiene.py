"""Source hygiene: library code signals failures with matsig errors, never assertions.

``python -O`` strips ``assert`` statements, and a bare ``AssertionError`` escapes
the CLI's error handling as a traceback.  The ``matsig`` namespace re-exports
only names its modules list in ``__all__``, so a removal cannot leave a stale
export behind.  Every eigen-solve goes through ``linalg``, whose Hermitian gate
turns an overflowed Gram into NotHermitianError instead of a numpy LinAlgError.
"""

import ast
import importlib
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


def test_eigen_solves_only_in_linalg():
    # linalg gates every eigen-solve with the NaN-safe Hermitian test; a direct call skips it
    offences = []
    for path in SOURCES:
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh"):
                offences.append(f"{path.name}:{node.lineno}")
    assert not offences, f"eigen-solves outside linalg.py: {offences}"


def test_namespace_exports_match_module_all():
    init = next(path for path in SOURCES if path.name == "__init__.py")
    imported = {}
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, []).extend(alias.name for alias in node.names)
    assert imported, "no relative imports found in matsig/__init__.py"
    stale, missing = [], []
    for module_name, names in imported.items():
        module = importlib.import_module(f"matsig.{module_name}")
        # a module without __all__ (errors) exports every public name it binds
        exported = getattr(module, "__all__", [name for name in vars(module) if not name.startswith("_")])
        stale += [f"{module_name}.{name}" for name in names if name not in exported]
        missing += [f"{module_name}.{name}" for name in exported if not hasattr(module, name)]
    assert not stale, f"matsig imports names missing from their module's __all__: {stale}"
    assert not missing, f"__all__ entries that do not resolve: {missing}"
