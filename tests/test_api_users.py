"""Every public function and class of heatfvp has a user, and so has every
public method, property, classmethod and staticmethod of a public class;
every name `heatfvp/__init__.py` binds is read off the package by a user;
every parameter with a default of a public function or method is passed by
some user and left out by another, so the default is both needed and
taken; the member names two public classes share are the ones declared in
SHARED_MEMBERS; every name a test module imports is used there; and every
name read off a heatfvp module, by an import or as an attribute, is read
off the module that defines it, except the re-exports in REEXPORTED.

The users are the library itself, the CLI, the acceptance criteria and the
benchmark harness.  A name, a member, an option or a default that only the
unit tests call or take is API nobody needs: delete it, make the parameter
required, or move it into the tests that use it.  A reference is a Name, an
Attribute or an import alias in the parsed source, so a mention in a
docstring or a comment does not count.  A module name needs any of the
three; a method or a property needs an Attribute of its name, on any
object; a classmethod or a staticmethod needs one on its class,
`Class.member`; a name of the package needs `heatfvp.name` or
`from heatfvp import name`.  A call passes a parameter when it names it as
a keyword or fills its position (a starred argument or ** fills them all),
and leaves it out otherwise.
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


# The member names that two public classes define, each with the classes
# whose member of that name a user calls.  The member rule sees one
# Attribute for all of them, so a new sharer could hide an unused member
# behind a used one: `sample` is read off a SourceTerm in the march,
# off a BoundaryData by LiftPath and the CLI, and off a LiftPath by the
# march; `t_final` off both data by the march and the coverage check.
SHARED_MEMBERS = {
    "sample": {"SourceTerm", "BoundaryData", "LiftPath"},
    "t_final": {"SourceTerm", "BoundaryData"},
}

# Names read off a module that does not define them, each with its reason.
# Every other heatfvp name has one import path: its defining module.
REEXPORTED = {
    # the refusal of a backward solve: the CLI and perfbench call
    # fvp.solve_final_value and catch it beside the solver, as
    # fvp.IncompatibleDataError
    "fvp.IncompatibleDataError",
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


def test_member_names_two_classes_share_are_declared():
    classes = {}
    for qual, name, owner in _members():
        if owner is None:
            classes.setdefault(name, set()).add(qual.split(".")[1])
    assert {name: owners for name, owners in classes.items() if len(owners) > 1} == SHARED_MEMBERS


def _package_bindings():
    """The names `heatfvp/__init__.py` binds: its imports and assignments."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return bound


def _read_off_the_package():
    """The names users read as `heatfvp.name` or `from heatfvp import name`."""
    read = set()
    for tree in _user_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "heatfvp":
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "heatfvp" and not node.level:
                read.update(alias.name for alias in node.names)
    return read


def test_the_package_binds_only_what_users_read_off_it():
    assert sorted(_package_bindings() - _read_off_the_package()) == []


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


@cache
def _calls():
    """Per called name, one (positional count, keywords) pair per user call:
    the count is inf with a starred argument, and the keywords None with **."""
    calls = {}
    for tree in _user_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            n = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append((n, None if None in keywords else keywords))
    return calls


def _passes(call, param, pos) -> bool:
    n, keywords = call
    return (pos is not None and n > pos) or keywords is None or param in keywords


def test_every_public_parameter_has_a_user():
    unused = sorted(
        f"{qual}: {param}"
        for qual, name, param, pos in _optional_parameters()
        if not any(_passes(call, param, pos) for call in _calls().get(name, []))
    )
    assert unused == []


def test_every_default_is_left_out_by_a_user():
    # a default every user overrides is taken only by the unit tests:
    # the parameter is required
    untaken = sorted(
        f"{qual}: {param}"
        for qual, name, param, pos in _optional_parameters()
        if all(_passes(call, param, pos) for call in _calls().get(name, []))
    )
    assert untaken == []


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


@cache
def _module_definitions():
    """Per package module, the names its top level defines: functions,
    classes and assignment targets, not imports."""
    defined = {}
    for module, tree in _package_trees():
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        defined[module] = names
    return defined


def _module_reads(path):
    """(module, name, line) of each name a file reads off a heatfvp module:
    `from heatfvp.module import name` (`from .module import name` inside
    the package), and `alias.name` where alias is bound to the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = _module_definitions()
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and path.parent == PACKAGE:
                module = node.module or ""
            elif node.level == 0 and (node.module or "").partition(".")[0] == "heatfvp":
                module = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                if not module and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif module:  # a name of the package itself is the package rule's
                    yield module, alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == "heatfvp" and module and alias.asname:
                    aliases[alias.asname] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield aliases[node.value.id], node.attr, node.lineno


def test_every_name_is_read_off_its_defining_module():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    defined = _module_definitions()
    elsewhere = sorted(
        f"{path.relative_to(ROOT)}:{line}: {module}.{name}"
        for path in files
        for module, name, line in _module_reads(path)
        if name not in defined.get(module, ()) and f"{module}.{name}" not in REEXPORTED
    )
    assert elsewhere == []


def test_the_reexports_are_read():
    read = {f"{module}.{name}" for path in sorted((ROOT / "perfbench").glob("*.py")) + [PACKAGE / "cli.py"]
            for module, name, _ in _module_reads(path)}
    assert REEXPORTED <= read
