"""Every public function and class of heatfvp has a user, and so has every
public method, property, classmethod and staticmethod of a public class;
every parameter with a default of a public function or method is passed by
some user, and every name a test module imports is used there.

The users are the library itself, the CLI, the acceptance criteria and the
benchmark harness.  A name, a member or an option that only the unit tests
call is API nobody needs: delete it, or move it into the tests that use it.
A reference is a Name, an Attribute or an import alias in the parsed
source, so a mention in a docstring or a comment does not count.  A module
name needs any of the three; a method or a property needs an Attribute of
its name, on any object; a classmethod or a staticmethod needs one on its
class, `Class.member`.  A call passes a parameter when it names it as a
keyword or fills its position.
"""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heatfvp"

ALLOWED_UNUSED = {
    # analyze is the inverse of uniform_samples(vec, 8N) and the one way from
    # samples on the basis grid to a state: the round trip through them,
    # which must keep holding as N grows, is checked through it
    "spectral.analyze",
    # the data-space norm itself: ROADMAP items 4 and 5 compare the certified
    # initial state and the solution norm against `ynorm.total`
    "boundary.YNormReport.total",
}


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    for module, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name


def _members():
    """(qualified name, member name, owner) of each public method, property,
    classmethod and staticmethod of a public class; the owner is the class
    name for a classmethod or a staticmethod, which is called on its class,
    and None for the others, which are read off instances."""
    for module, tree in _package_trees():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
                    owner = cls.name if decorators & {"classmethod", "staticmethod"} else None
                    yield f"{module}.{cls.name}.{node.name}", node.name, owner


def _user_trees():
    users = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    return [ast.parse(path.read_text(), filename=str(path)) for path in users]


@cache
def _references():
    """The names the users read (Names, Attributes and import aliases), the
    attribute names alone, and the (owner, attribute) pairs of every
    Attribute on a Name or an Attribute, such as `SpectralVec.zero` or
    `sp.SpectralVec.zero`."""
    names, attrs, owned = set(), set(), set()
    for tree in _user_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if owner is not None:
                    owned.add((owner, node.attr))
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                if node.asname:
                    names.add(node.asname)
    return names | attrs, attrs, owned


def _unused_definitions():
    used = _references()[0]
    return {q for q, name in _definitions() if name not in used}


def _unused_members():
    _, attrs, owned = _references()
    return {q for q, name, owner in _members() if (name not in attrs if owner is None else (owner, name) not in owned)}


def test_every_public_name_has_a_user():
    assert sorted(_unused_definitions() - ALLOWED_UNUSED) == []


def test_every_public_member_has_a_user():
    assert sorted(_unused_members() - ALLOWED_UNUSED) == []


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
    assert ALLOWED_UNUSED <= _unused_definitions() | _unused_members()


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
