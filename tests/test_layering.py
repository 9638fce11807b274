"""Layering rules of the package source, checked on its syntax trees.

Modules use only each other's public names, and the runtime imports
nothing outside the standard library, nor the standard library's
introspection modules.
"""

import ast
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:         # Python 3.10: the backport, from the test extra
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "superforms").glob("*.py"))


def imports():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.name, node


def test_sources_found():
    assert len(SOURCES) > 10


def test_no_private_names_from_sibling_modules():
    offenders = [
        f"{name}:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}"
        for name, node in imports()
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "superforms")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert offenders == []


def test_runtime_imports_only_the_standard_library():
    offenders = []
    for name, node in imports():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.level == 0:
            modules = [node.module]
        else:
            continue
        offenders += [f"{name}:{node.lineno} imports {module}" for module in modules
                      if module.split(".")[0] not in sys.stdlib_module_names]
    assert offenders == []


def test_single_version_source():
    import superforms
    from superforms.report import TOOL_VERSION

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "superforms.report.TOOL_VERSION"}
    assert superforms.__version__ == TOOL_VERSION


def test_the_exports_are_the_imported_names():
    import superforms
    tree = ast.parse((ROOT / "src" / "superforms" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    imported.remove("TOOL_VERSION")      # exported as __version__
    assert sorted(superforms.__all__) == sorted(imported)


def test_starting_the_cli_imports_no_introspection_modules():
    # ``dataclasses`` pulls these in and execs generated methods at every
    # start; the package's records are NamedTuples, which need none of them
    banned = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import superforms.cli; "
             f"print(' '.join(m for m in {banned!r} if m in sys.modules))")
    run = subprocess.run([sys.executable, "-S", "-c", probe, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []
