"""The README's Python examples run as written and give the values their comments state."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def _expression(text: str):
    """text compiled as a Python expression, or None when it is prose."""
    try:
        return compile(text, "<README comment>", "eval")
    except SyntaxError:
        return None


def _comments(source: str) -> list[tuple[int, bool, str]]:
    """(line, whether code precedes it on the line, text) of each comment."""
    found = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            found.append((row, bool(token.line[:col].strip()), token.string.lstrip("#").strip()))
    return found


def _run(source: str) -> list[str]:
    """Run a block statement by statement in a fresh namespace; check the
    values its comments state and return the clauses checked.

    A comment on an expression line opens with that line's value, up to a
    comma.  A comment line states claims, one per comma-separated clause:
    ``a == b``, or ``a ~ b`` for a equal to b to the digits b is written
    with.  A clause that is not a Python expression is prose.
    """
    namespace: dict = {}
    values = {}
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "<README>", "eval")
            values[statement.lineno] = eval(code, namespace)
        else:
            exec(compile(ast.Module([statement], []), "<README>", "exec"), namespace)
    checked = []
    for line, on_code, text in _comments(source):
        if on_code:
            clause = text.split(",")[0].strip()
            if line in values and (code := _expression(clause)):
                assert values[line] == eval(code, namespace), clause
                checked.append(clause)
            continue
        for clause in (part.strip() for part in text.split(",")):
            left, approx, right = clause.partition(" ~ ")
            if approx and _expression(left) and _expression(right):
                digits = len(re.sub(r"[^0-9]", "", right.split("e")[0]).lstrip("0"))
                assert float(f"{eval(left, namespace):.{digits}g}") == float(right), clause
            elif not approx and (code := _expression(clause)):
                assert eval(code, namespace), clause
            else:
                continue
            checked.append(clause)
    return checked


def test_readme_has_the_two_python_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("index,stated", [
    (0, ["InsertOutcome.STORED", "True", "True"]),
    (1, ["result.fingerprint_bits == 16", "result.num_subtables == 1", "result.fp_bound ~ 4.7e-5"]),
], ids=["library", "planner"])
def test_readme_python_block_gives_the_stated_values(index, stated):
    assert _run(BLOCKS[index]) == stated
