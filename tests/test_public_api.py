"""Every public name has a caller in the library itself."""

import ast
from pathlib import Path

import hmmvi

SRC = Path(hmmvi.__file__).parent


def _names_read_by_the_library() -> set:
    """Names loaded and attributes read anywhere in the package but ``__init__``.

    A definition (``def f``, ``class C``, ``X = ...``) stores its name and
    does not count as a read.
    """
    read = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_exported_name_is_used_inside_the_library():
    exported = {name for name in hmmvi.__all__ if not name.startswith("__")}
    assert sorted(exported - _names_read_by_the_library()) == []
