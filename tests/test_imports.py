"""No module of the package imports a name it never uses."""

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
