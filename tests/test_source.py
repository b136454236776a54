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


def test_no_unused_imports_in_package():
    # an import that is never read is a leftover; __init__ re-exports are exempt
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
    assert found == []
