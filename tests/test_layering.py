"""Only ``condexp`` tells the self-map families apart.

Every other module of the package reaches the map families through
``condexp``'s public calls and the map types' own attributes: it imports
neither ``Monomial`` nor ``BlaschkeProduct`` and tests no object against a
self-map class with ``isinstance``.
"""

import ast
from pathlib import Path

import pytest

import bergmanlab

PACKAGE = Path(bergmanlab.__file__).resolve().parent
# condexp defines the families; __init__ only re-exports them.
EXEMPT = {"condexp.py", "__init__.py"}
FAMILIES = {"Monomial", "BlaschkeProduct"}
MAP_CLASSES = FAMILIES | {"AnalyticSelfMap", "Identity"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def map_class_uses(source):
    """(line, description) of each family import or reference and each isinstance test
    against a self-map class in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"imports {alias.name}") for alias in node.names
                      if alias.name in FAMILIES]
        elif isinstance(node, ast.Attribute) and node.attr in FAMILIES:
            found.append((node.lineno, f"reads .{node.attr}"))
        elif isinstance(node, ast.Call) and _name(node.func) == "isinstance" \
                and len(node.args) == 2:
            classes = {_name(n) for n in ast.walk(node.args[1])} & MAP_CLASSES
            if classes:
                found.append((node.lineno, f"isinstance against {sorted(classes)}"))
    return found


MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name not in EXEMPT)


def test_modules_found():
    assert {"carleson.py", "operators.py", "suite.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_map_class_outside_condexp(path):
    assert map_class_uses(path.read_text()) == []


def test_detector_sees_each_form():
    source = (
        "from .condexp import AnalyticSelfMap, Monomial\n"
        "from . import condexp\n"
        "def f(phi):\n"
        "    if isinstance(phi, Monomial):\n"
        "        return 1\n"
        "    if isinstance(phi, (condexp.Identity, int)):\n"
        "        return condexp.BlaschkeProduct\n"
        "    return isinstance(phi, int)\n"
    )
    assert [line for line, _ in map_class_uses(source)] == [1, 4, 6, 7]
