"""Every public name has a caller in the library itself, and holds the scheme once."""

import ast
import inspect
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


def test_no_public_function_takes_the_discretisation_twice():
    # Assembled forms hold their gd, and a problem holds its forms.
    twice = []
    for name in hmmvi.__all__:
        obj = getattr(hmmvi, name)
        if inspect.isfunction(obj):
            params = set(inspect.signature(obj).parameters)
            if "gd" in params and params & {"forms", "problem"}:
                twice.append(name)
    assert twice == []


def _printing(source: str) -> list:
    """Lines that call ``print`` or use ``sys.stdout`` or ``sys.stderr``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
                alias.name in ("stdout", "stderr") for alias in node.names):
            found.append(node.lineno)
    return sorted(found)


def test_the_library_reports_through_logging_and_never_prints():
    assert _printing("print(1)\nimport sys\nsys.stdout.write('')\nf(sys.stderr)\n"
                     "from sys import stderr\nx = 'print(2)'\n") == [1, 3, 4, 5]
    printing = {path.name: _printing(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in printing.items() if lines} == {}


def test_readme_library_quick_start_runs():
    # The first python block under the heading, run as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Quick start (library)\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
