import ast
from pathlib import Path

import tlsynth

PACKAGE = Path(tlsynth.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so checks in the package raise explicitly
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
