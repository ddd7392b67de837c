"""Every definition in the package is used somewhere.

A module-level function or class, or a non-dunder method, in
``src/gvcheck`` must be referenced in ``src/``, ``tests/`` or ``bench/``
as a name, an attribute or an import alias.  A definition does not count
as a reference to itself, so code that nothing calls shows up here.
Likewise every module-level import in a module of ``src/gvcheck`` other
than ``__init__.py``, whose imports are the package's exports, must be
used by that module, and none imports an underscore name from a
sibling module.  Each row of the README's "Library layout" table
names only what its module defines, and the README's list of document
functions is the grammar's.
"""
import ast
import os
import re

from gvcheck.syntax import FUNCTIONS

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


def test_no_module_imports_a_private_name_of_a_sibling():
    # an underscore name is its module's own: a sibling that needs it
    # needs it public, under a name without the underscore
    private = []
    for f in sorted(os.listdir(PACKAGE)):
        if f.endswith(".py"):
            for node in ast.walk(_parse(os.path.join(PACKAGE, f))):
                if isinstance(node, ast.ImportFrom) and node.level:
                    names = [a.name for a in node.names if a.name.startswith("_")]
                    private += ["%s: %s.%s" % (f, node.module, n) for n in names]
    assert private == []


def _defined_names(path):
    """A module's top-level definitions and assignments, and ``Class.method``
    for the methods of its classes."""
    names = set()
    for node in _parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        if isinstance(node, ast.ClassDef):
            names.update(
                "%s.%s" % (node.name, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return names


def _layout_rows():
    """(module, backticked identifiers) for each row of README's "Library layout" table."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        table = fh.read().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    for line in table.splitlines():
        row = re.fullmatch(r"\| `gvcheck\.(\w+)` \| (.*) \|", line)
        if row:
            yield row.group(1), re.findall(r"`([A-Za-z_][\w.]*)`", row.group(2))


def test_library_layout_names_only_what_each_module_defines():
    rows = dict(_layout_rows())
    modules = {f[: -len(".py")] for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py"}
    assert set(rows) == modules
    missing = []
    for module, names in rows.items():
        defined = _defined_names(os.path.join(PACKAGE, module + ".py"))
        missing += ["gvcheck.%s: %s" % (module, n) for n in names if n not in defined]
    assert missing == []


def test_readme_lists_the_document_functions():
    # the clause runs from "the functions are" to the end of its sentence;
    # a code span such as `psi0(u)` is an example, not a name
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    clause = re.search(r"the functions are (.*?)\.(?: |$)", text).group(1)
    assert sorted(re.findall(r"`([A-Za-z_]\w*)`", clause)) == sorted(FUNCTIONS)
