"""Every public function and class of heatfvp has a user, and every name a
test module imports is used there.

The users are the library itself, the CLI, the acceptance criteria and the
benchmark harness.  A name that only the unit tests call is API nobody
needs: delete it, or move it into the tests that use it.  A reference is a
Name, an Attribute or an import alias in the parsed source, so a mention in
a docstring or a comment does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heatfvp"

# analyze is the inverse of the default-grid synthesize and the one way from
# samples on the basis grid to a state: the analyze-synthesize round trip,
# which must keep holding as N grows, is checked through it
ALLOWED_UNUSED = {"spectral.analyze"}


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _referenced_names():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    names = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                if node.asname:
                    names.add(node.asname)
    return names


def test_every_public_name_has_a_user():
    used = _referenced_names()
    unused = sorted(q for q, name in _definitions() if name not in used and q not in ALLOWED_UNUSED)
    assert unused == []


def test_the_allowlist_names_only_unused_definitions():
    used = _referenced_names()
    defined = dict(_definitions())
    for qual in ALLOWED_UNUSED:
        assert qual in defined
        assert defined[qual] not in used


def _unused_imports(path):
    """Names a module binds by import but never reads as a Name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in read)


def test_test_modules_import_only_what_they_use():
    unused = [hit for path in sorted((ROOT / "tests").glob("*.py")) for hit in _unused_imports(path)]
    assert unused == []
