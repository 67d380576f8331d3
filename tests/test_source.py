"""Properties of the package source itself."""

import ast
from pathlib import Path

import qlstab

SOURCES = sorted(Path(qlstab.__file__).parent.glob("*.py"))


def test_no_module_imports_warnings():
    # Every diagnostic is a returned note, so no module may reach for the
    # process-global warnings machinery.
    assert SOURCES
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "warnings" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
