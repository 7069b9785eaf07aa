import ast
import math
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _library_block():
    """The fenced python block under the README's ``## Library``."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## Library\n", 1)[1]
    match = re.match(r"\s*```python\n(.*?)\n```", section, re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def _run(source):
    """Execute ``source`` statement by statement; return each expression
    statement's value, keyed by its source text."""
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        text = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[text] = eval(compile(ast.Expression(node.value), README,
                                        "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), README, "exec"), namespace)
    return values


def test_readme_library_block_runs_as_written():
    values = _run(_library_block())
    assert repr(values["tc_bound(disk)"]).startswith("0.538546")
    assert values["math.pi * disk.laplace(1.0 / (4.0 * s)) == curve(s)"] \
        is True
    assert values['report.row("tc4").value'] == 1.0 / (8.0 * math.log(1.25))
