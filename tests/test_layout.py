"""The package holds no dead code: every function, class and method that
``src/onoffpir`` defines has a reader in the package, the benchmark or the
demos.  A name only the tests read belongs in ``tests/``, next to the
reference forms or in ``helpers.py``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "onoffpir"
READERS = [PACKAGE, ROOT / "bench", ROOT / "demos"]
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _defined(tree):
    """The (qualified, bare) names of the module's functions and classes
    and of the methods in its classes, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{member.name}", member.name


def _read(tree):
    """The names the code reads: loaded names, attributes, and each part of
    a string constant that is a dotted name (``bench/tracer.py`` binds its
    targets by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from node.value.split(".")


def test_every_package_name_has_a_reader_outside_tests():
    read = {name for folder in READERS for path in folder.glob("*.py")
            for name in _read(ast.parse(path.read_text(), str(path)))}
    unread = [f"{path.name}:{qualified}" for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in _defined(ast.parse(path.read_text()))
              if not (name.startswith("__") and name.endswith("__")) and name not in read]
    assert not unread, f"defined in src/ but read only by tests or nowhere: {unread}"
