"""Source hygiene: library code signals failures with matsig errors, never assertions.

``python -O`` strips ``assert`` statements, and a bare ``AssertionError`` escapes
the CLI's error handling as a traceback.  The ``matsig`` namespace re-exports
only names its modules list in ``__all__``, so a removal cannot leave a stale
export behind.  Every eigen-solve goes through ``linalg``, whose Hermitian gate
turns an overflowed Gram into NonFiniteError instead of a numpy LinAlgError,
and that gate is the only Hermitian test.
No QR or SVD is handed a conjugate copy: QR commutes with conjugation, so the
transpose serves, and the copy would cost a pass over the whole row matrix.
The CLI takes every family verdict from ``analyze_family``, so it names none of
the single-signal functions a second verdict path would call, and importing it
loads no module that only sampled-file ingestion needs.  ``analyze_family``
itself has no loop over members: its member verdicts come from one stacked pass.
"""

import ast
import importlib
import os
import subprocess
import sys
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


def test_hermitian_tolerance_only_in_linalg():
    # the gate before every eigen-solve is the one Hermitian test; a second formula would drift from it
    offences = []
    for path in SOURCES:
        if path.name in ("core.py", "linalg.py"):  # core defines HERMITIAN_TOL, linalg's gate reads it
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Name) and node.id == "HERMITIAN_TOL") or (
                isinstance(node, ast.alias) and node.name == "HERMITIAN_TOL"
            ):
                offences.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not offences, f"Hermitian tolerance read outside linalg.py: {offences}"


def test_factorisations_take_no_conjugate_copy():
    # QR commutes with conjugation, so factor R^T rather than pay for a copy R^H
    offences = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in ("qr", "svd"):
                continue
            arguments = node.args + [keyword.value for keyword in node.keywords]
            offences += [
                f"{path.name}:{inner.lineno}"
                for argument in arguments
                for inner in ast.walk(argument)
                if isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in ("conj", "conjugate")
            ]
    assert not offences, f"conjugate copies passed to a QR or SVD: {offences}"


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


VERDICT_FUNCTIONS = {
    "block_gram",
    "inner_product",
    "is_degenerate",
    "rows_linearly_dependent",
    "is_linearly_independent",
    "is_orthonormal_set",
    "norm_m",
    "norm_l2",
    "_eigvalsh",
}


def test_cli_takes_verdicts_from_one_analysis():
    cli = next(path for path in SOURCES if path.name == "cli.py")
    offences = []
    for node in ast.walk(ast.parse(cli.read_text(), filename=str(cli))):
        names = [node.id] if isinstance(node, ast.Name) else []
        if isinstance(node, ast.alias):
            names = [node.name, node.asname]
        offences += [f"cli.py:{getattr(node, 'lineno', '?')} {name}" for name in names if name in VERDICT_FUNCTIONS]
    assert not offences, f"cli.py computes verdicts outside analyze_family: {offences}"


def test_analyze_family_has_no_member_loop():
    independence = next(path for path in SOURCES if path.name == "independence.py")
    tree = ast.parse(independence.read_text(), filename=str(independence))
    analyze = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "analyze_family")
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    offences = [f"independence.py:{node.lineno}" for node in ast.walk(analyze) if isinstance(node, loops)]
    assert not offences, f"loops in analyze_family: {offences}"


def test_cli_import_skips_numpy_polynomial():
    src = str(Path(matsig.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, matsig, matsig.cli; print('numpy.polynomial' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
