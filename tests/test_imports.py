"""No module of the package imports a name it never uses, and no private
module-level name is left that nothing in the package reads."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "ksblowup")

#: (module, name) pairs imported on purpose without a use
ALLOWED = {
    # benchmarks/test_bench.py asserts that the span patcher replaces this
    # name in every module that imported it
    ("heatmass", "integrate_panels"),
}


def unused_imports(source):
    """Names bound by the imports of ``source`` that nothing reads; names
    listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == ["os"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


@pytest.mark.parametrize("module", sorted(
    f[:-3] for f in os.listdir(SRC) if f.endswith(".py")))
def test_no_module_imports_an_unused_name(module):
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as f:
        unused = unused_imports(f.read())
    assert [n for n in unused if (module, n) not in ALLOWED] == []


def private_definitions(tree):
    """The private names, ``_x`` but not ``__x``, that a module's top-level
    statements define: functions, classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(tree):
    """Every name a module reads: loaded names, attributes and the names
    it imports from other modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def unread_private_names(sources):
    """(module, name) of each private module-level name of ``sources``, a
    map of module to source, that no module reads."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted((m, n) for m, tree in trees.items()
                  for n in private_definitions(tree) - read)


def test_the_check_sees_an_unread_private_name():
    sources = {"a": "_TOL = 1e-8\n_USED, _LEFT = 1, 2\ndef _f():\n    return _USED\n",
               "b": "from .a import _f\n"}
    assert unread_private_names(sources) == [("a", "_LEFT"), ("a", "_TOL")]


def test_every_private_module_level_name_is_read_in_the_package():
    sources = {}
    for f in sorted(os.listdir(SRC)):
        if f.endswith(".py"):
            with open(os.path.join(SRC, f), encoding="utf-8") as fh:
                sources[f[:-3]] = fh.read()
    assert unread_private_names(sources) == []
