"""Every script under demos/ and the README quick start run through the public API."""

import ast
import contextlib
import io
import pathlib
import runpy
import tempfile
from fractions import Fraction

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # demo files land here
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()


def test_readme_quick_start_states_its_values():
    # run the first python block of README.md; its bare expression lines
    # are the values its comments state
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert values == [[[5]], [[36]], 24, 120]
    assert all(type(v) is Fraction for v in (values[0][0][0], values[1][0][0], *values[2:]))
