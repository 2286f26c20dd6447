"""The names the benchmark harness looks up in heatfvp all resolve.

perfbench reads the package through module aliases (`sp.`, `dh.`, ...) and
names the functions its tracer wraps as strings; a deletion or a rename in
the package that breaks either fails here, from the parsed source of
perfbench/*.py, without running a workload.  The names `layer_metrics`
passes to `cs()` are left out: some of them name functions that no longer
exist, on purpose, and read 0.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED = ("_HOOKS", "SOLVES", "PER_SOLVE", "METHODS")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _aliases(tree):
    """Local name -> heatfvp module for every import of the package in the
    file, and the (module, name) pairs it imports from the package."""
    aliases, imported = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "heatfvp":
                    importlib.import_module(alias.name)
                    aliases[alias.asname or "heatfvp"] = alias.name if alias.asname else "heatfvp"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "heatfvp":
            for alias in node.names:
                imported.append((node.module, alias.name))
                if inspect.ismodule(getattr(importlib.import_module(node.module), alias.name, None)):
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases, imported


def _chain(node):
    """The dotted names of an Attribute chain on a Name, root first, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _reads():
    """(file, module, attribute path) of every attribute perfbench reads
    off a heatfvp module alias and of every name it imports from the
    package."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _tree(path)
        aliases, imported = _aliases(tree)
        for module, name in imported:
            yield path.name, module, [name]
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in aliases:
                yield path.name, aliases[chain[0]], chain[1:]


def test_every_attribute_perfbench_reads_off_heatfvp_resolves():
    missing = []
    reads = list(_reads())
    for where, module, attrs in reads:
        obj = importlib.import_module(module)
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(f"{where}: {module}.{'.'.join(attrs)}")
                break
            obj = getattr(obj, attr)
    assert reads
    assert missing == []


def _traced_names():
    """Every name in the tracer's tables of perfbench/spans.py, as
    "module.function" or "module.Class.method", and its LAYERS."""
    tables = {}
    for node in _tree(PERFBENCH / "spans.py").body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in TRACED + ("LAYERS",):
                keys = node.value.keys if isinstance(node.value, ast.Dict) else node.value.elts
                tables[name] = [".".join(ast.literal_eval(k)) if isinstance(k, ast.Tuple) else ast.literal_eval(k)
                                for k in keys]
    assert set(tables) == set(TRACED) | {"LAYERS"}
    return sorted({name for table in TRACED for name in tables[table]}), tables["LAYERS"]


NAMES, LAYERS = _traced_names()


@pytest.mark.parametrize("name", NAMES)
def test_every_traced_name_is_a_function_of_its_module(name):
    # the tracer wraps the public functions defined in each layer module,
    # and the METHODS entries on their classes, under "module.name"
    module, *path = name.split(".")
    assert module in LAYERS
    mod = importlib.import_module(f"heatfvp.{module}")
    owner = mod if len(path) == 1 else getattr(mod, path[0])
    fn = getattr(owner, path[-1])
    assert inspect.isfunction(fn) and not path[-1].startswith("_")
    assert (fn if len(path) == 1 else owner).__module__ == mod.__name__
