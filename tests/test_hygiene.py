"""Source hygiene: every name a library module imports is used there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "germradius"


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_library_modules_use_every_import():
    # __init__.py is exempt: its imports are the package's re-exports
    unused = {path.name: _unused_imports(path)
              for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}
