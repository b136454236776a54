import ast
import sys
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


def test_package_imports_only_stdlib():
    # the runtime stays stdlib-only: every import is relative or a stdlib module
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] not in sys.stdlib_module_names:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {module}")
    assert found == []


def test_no_unreferenced_private_definitions():
    # a private function, class or method that nothing in the package reads
    # (as a name or an attribute) is a leftover; dunder methods are exempt
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for path, tree in trees.items():
        defined = [node for node in tree.body if isinstance(node, definitions)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defined += [node for node in cls.body if isinstance(node, definitions)]
        for node in defined:
            private = node.name.startswith("_") and not node.name.endswith("__")
            if private and node.name not in read:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}")
    assert found == []


def test_only_ratiocycle_calls_the_arc_stack_constructor():
    # every other module takes a stack from `ArcStack.over` (a skeleton's
    # own arcs and adjacency) or `ArcStack.holding` (hand-built arcs), so
    # no caller keeps its own copy of the arcs or of their adjacency
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "ratiocycle.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ArcStack":
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_only_debruijn_calls_dual_edges():
    # a witness report sums the skeleton's ints, so the `Cost` view of a
    # skeleton's edges is built only for dumps and the oracle, through
    # `Skeleton.graph`
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "debruijn.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dual_edges":
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_only_exact_uses_lcm():
    # `exact.over_common_denominator` is the one rule that turns rationals
    # into ints; any other module reaching for `lcm` holds a second copy
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "exact.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if "lcm" in names:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_size_guards_raise_only_through_the_one_check():
    # `SizeGuardExceeded.check` compares a capped power with its guard, so
    # no size guard builds the size it refuses; any other raise of its
    # subclasses is an ad-hoc size check
    guarded = {"SizeGuardExceeded", "SearchSpaceTooLarge", "TableTooLarge"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                made = node.func
            elif isinstance(node, ast.Raise):
                made = node.exc
            else:
                continue
            if isinstance(made, ast.Name) and made.id in guarded:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {made.id}")
    assert found == []
