"""Source hygiene: every name a library module imports is used there, every
function, method and class the library defines is referenced by code the
system runs (not only by tests), every default of a private function is
overridden by some call there, and floating point stays in radius.py."""

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


def _private_defaults(path):
    """(name, parameter, position) for each defaulted parameter of a private
    module-level function or method; position counts the positional
    arguments a call passes (self or cls not included), None for a
    keyword-only parameter."""
    tree = ast.parse(path.read_text())
    funcs = [(node, False) for node in tree.body
             if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        funcs.extend((node, True) for node in cls.body
                     if isinstance(node, ast.FunctionDef))
    for func, method in funcs:
        if not func.name.startswith("_") or func.name.endswith("__"):
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        bound = method and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in func.decorator_list)
        first = len(positional) - len(args.defaults)
        for i in range(first, len(positional)):
            yield func.name, positional[i].arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield func.name, arg.arg, None


def _calls(tree):
    """(callee name, positional count, keyword names) for each call; a
    starred argument counts as every position, ** as every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {kw.arg for kw in node.keywords}
        yield (name, float("inf") if starred else len(node.args),
               keywords)


def test_private_defaults_are_passed():
    # a default no call in the library, the demos or the benchmark ever
    # overrides is a dead option: the parameter and its branches can go
    sources = sorted(SRC.glob("*.py"))
    for folder in ("demos", "perfbench"):
        sources.extend(sorted((ROOT / folder).rglob("*.py")))
    calls = {}
    for path in sources:
        for name, count, keywords in _calls(ast.parse(path.read_text())):
            calls.setdefault(name, []).append((count, keywords))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for name, param, position in _private_defaults(path):
            if not any(param in keywords or None in keywords
                       or (position is not None and count > position)
                       for count, keywords in calls.get(name, ())):
                dead.append(f"{path.name} {name}({param}=...)")
    assert dead == []


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
