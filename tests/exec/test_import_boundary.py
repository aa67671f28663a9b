"""The execution layer is generic: it never imports the DSE modules."""

import ast
from pathlib import Path

import repro.exec

FORBIDDEN = ("repro.core.dse", "repro.dse")


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _forbidden(module):
    return any(module == name or module.startswith(name + ".")
               for name in FORBIDDEN)


def test_exec_does_not_import_dse():
    package = Path(repro.exec.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}: {module}"
        for path in sources
        for module in _imported_modules(ast.parse(path.read_text()))
        if _forbidden(module)
    ]
    assert offenders == []
