"""Every public function and class of heatfvp has a user, every parameter
with a default of a public function or method is passed by some user, and
every name a test module imports is used there.

The users are the library itself, the CLI, the acceptance criteria and the
benchmark harness.  A name or an option that only the unit tests call is
API nobody needs: delete it, or move it into the tests that use it.  A
reference is a Name, an Attribute or an import alias in the parsed source,
so a mention in a docstring or a comment does not count; a call passes a
parameter when it names it as a keyword or fills its position.
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


def _user_trees():
    users = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    return [ast.parse(path.read_text(), filename=str(path)) for path in users]


def _referenced_names():
    names = set()
    for tree in _user_trees():
        for node in ast.walk(tree):
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


def _optional_parameters():
    """(qualified name, function name, parameter, position or None) for each
    parameter with a default of a public function or method; the position
    counts from the first argument a call passes, and keyword-only
    parameters have none."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [(f"{path.stem}.{node.name}", node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                        funcs.append((f"{path.stem}.{cls.name}.{node.name}", node, 0 if static else 1))
        for qual, node, bound in funcs:
            if node.name.startswith("_"):
                continue
            positional = node.args.posonlyargs + node.args.args
            for i in range(len(positional) - len(node.args.defaults), len(positional)):
                yield qual, node.name, positional[i].arg, i - bound
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield qual, node.name, arg.arg, None


def _passed_parameters():
    """Per called name: the largest count of positional arguments of a call
    (inf with a starred one) and the keywords its calls name (None with **)."""
    positions, keywords = {}, {}
    for tree in _user_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            n = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            positions[name] = max(positions.get(name, 0), n)
            for kw in node.keywords:
                keywords.setdefault(name, set()).add(kw.arg)
    return positions, keywords


def test_every_public_parameter_has_a_user():
    positions, keywords = _passed_parameters()
    unused = sorted(
        f"{qual}: {param}"
        for qual, name, param, pos in _optional_parameters()
        if not (pos is not None and positions.get(name, 0) > pos)
        and not ({param, None} & keywords.get(name, set()))
    )
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
