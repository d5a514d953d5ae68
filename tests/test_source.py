"""Source checks: library invariants must survive `python -O`."""
import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "quantum_maxcut").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement at line(s) {lines}; raise instead"
