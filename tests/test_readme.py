import ast
import json
import math
import os
import re

import numpy as np

from ksblowup import cli, datum

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


def _spec_block():
    """Every JSON object of the fenced block after the datum-spec line."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text.split("A datum spec is a single JSON object:", 1)[1]
    block = re.match(r"\s*```json\n(.*?)\n```", section, re.S).group(1)
    decoder, specs, at = json.JSONDecoder(), [], 0
    while at < len(block):
        spec, at = decoder.raw_decode(block, at)
        specs.append(spec)
        at = re.compile(r"\s*").match(block, at).end()
    return specs


def test_readme_spec_block_loads(tmp_path):
    specs = _spec_block()
    assert len(specs) == len(datum.FAMILIES)
    for spec in specs:
        if spec["family"] == "grid":
            ref = spec["grid"]
            np.savetxt(tmp_path / ref["path"],
                       np.ones((ref["rows"], ref["cols"])), delimiter=",")
        d = cli.datum_from_dict(spec, base_dir=str(tmp_path))
        assert d.family == spec["family"]
        if spec["family"] == "gaussian":
            assert d.total_mass == spec["mass"]
