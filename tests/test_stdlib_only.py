"""The package imports nothing outside the standard library."""

import ast
import glob
import os
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src", "torsionlab"))


def imported_roots(path):
    """(line, top-level module name or None for a relative import) per import."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield node.lineno, None
            else:
                yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_relative_or_stdlib():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert modules
    outside = []
    for path in modules:
        for line, root in imported_roots(path):
            if root is not None and root not in sys.stdlib_module_names:
                outside.append("%s:%d imports %s" % (os.path.basename(path), line, root))
    assert outside == []
