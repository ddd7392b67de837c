"""Every definition in the package is used somewhere.

A module-level function or class, or a non-dunder method, in
``src/gvcheck`` must be referenced in ``src/``, ``tests/`` or ``bench/``
as a name, an attribute or an import alias.  A definition does not count
as a reference to itself, so code that nothing calls shows up here.
Likewise every module-level import in a module of ``src/gvcheck`` other
than ``__init__.py``, whose imports are the package's exports, must be
used by that module.
"""
import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gvcheck")


def _python_files(*dirs):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for f in sorted(files):
                if f.endswith(".py"):
                    yield os.path.join(base, f)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _definitions():
    """(module.qualified name, bare name) of each definition that must be used."""
    for f in sorted(os.listdir(PACKAGE)):
        if not f.endswith(".py"):
            continue
        module = f[: -len(".py")]
        for node in _parse(os.path.join(PACKAGE, f)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield "%s.%s" % (module, node.name), node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield "%s.%s.%s" % (module, node.name, item.name), item.name


def _references():
    names = set()
    for path in _python_files("src", "tests", "bench"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    names.add(node.asname)
    return names


def test_every_definition_is_referenced():
    used = _references()
    assert [qualified for qualified, name in _definitions() if name not in used] == []


def _unused_imports(path):
    """Names a module binds by a module-level import and never uses."""
    tree = _parse(path)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".", 1)[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_every_import_is_used():
    unused = []
    for f in sorted(os.listdir(PACKAGE)):
        if f.endswith(".py") and f != "__init__.py":
            unused += ["%s: %s" % (f, name) for name in _unused_imports(os.path.join(PACKAGE, f))]
    assert unused == []
