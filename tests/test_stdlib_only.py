"""The runtime is stdlib-only: every module of the package imports only
the standard library and the package itself."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "rkdual")


def imported_modules(path):
    """The top-level module of each absolute import in the file at
    ``path``; a relative import is the package's own."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library():
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "checks.py" in files
    outside = {(f, name) for f in files
               for name in imported_modules(os.path.join(SRC, f))
               if name != "rkdual" and name not in sys.stdlib_module_names}
    assert not outside
