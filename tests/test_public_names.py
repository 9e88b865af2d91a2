"""Every public function or class of the package is part of its surface.

A public name defined at the top of a package module is either exported
by torsionlab/__init__.py or used by package code: named in an
expression (a call inside its own module counts, a mention in a
docstring does not).  A helper that only tests use belongs in
tests/oracles.py.  Every name a module other than __init__.py imports
is used in that module.  Standard library only.
"""

import ast
import glob
import os

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src", "torsionlab"))


def parsed_modules():
    out = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, "r", encoding="utf-8") as handle:
            out[os.path.basename(path)] = ast.parse(handle.read(), filename=path)
    return out


def exported_names(init):
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def used_names(trees):
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_exported_or_used():
    modules = parsed_modules()
    assert "__init__.py" in modules
    exported = exported_names(modules["__init__.py"])
    assert exported
    used = used_names(modules.values())
    dead = [
        "%s: %s" % (name, node.name)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported
        and node.name not in used
    ]
    assert dead == []


def imported_names(tree):
    """The names a module binds by import, __future__ features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def test_every_import_is_used():
    unused = []
    for name, tree in parsed_modules().items():
        if name == "__init__.py":
            continue
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s: %s" % (name, bound) for bound in imported_names(tree) if bound not in named]
    assert unused == []
