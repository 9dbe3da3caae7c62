"""Source hygiene: every name a library module imports is used there, every
function, method and class the library defines is referenced by code the
system runs (not only by tests), and floating point stays in radius.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "germradius"


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


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            # both: `validate` is imported as `validate_index`
            yield node.name
            if node.asname:
                yield node.asname


def test_library_definitions_are_referenced():
    # by name only, so a variable or another class's method of the same
    # name hides a dead definition.  Only code the system runs counts: the
    # library modules, the demos and the benchmark.  A definition that only
    # tests or the package re-exports name is dead library code.
    sources = [path for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        sources.extend(sorted((ROOT / folder).rglob("*.py")))
    referenced = set()
    for path in sources:
        referenced.update(_referenced_names(ast.parse(path.read_text())))
    unreferenced = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and node.name not in referenced):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == []


_FLOAT_MATH = {"log", "exp", "sqrt", "pow"}


def _floating_point_uses(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float()"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "math"
              and node.attr in _FLOAT_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"math.{alias.name}")
                         for alias in node.names if alias.name in _FLOAT_MATH)
    return found


def test_floating_point_stays_in_radius():
    # math.inf, the order sentinel of order_at_center, stays allowed
    uses = {path.name: _floating_point_uses(path)
            for path in sorted(SRC.glob("*.py"))
            if path.name != "radius.py"}
    assert {name: found for name, found in uses.items() if found} == {}
    assert _floating_point_uses(SRC / "radius.py")
