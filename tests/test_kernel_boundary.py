"""The packed kernel format stays in ``groebner``.

Every module under ``src/monograde`` other than ``groebner`` is parsed,
not imported, and searched for the names of the packed kernel: packed
exponents and basis elements are read and written only inside
``groebner``, and the other modules hand it rows (dicts from exponent
tuple to coefficient) through its private entries.
"""

import ast
import os

import monograde

PACKAGE = os.path.dirname(os.path.abspath(monograde.__file__))

KERNEL_NAMES = {"_Packing", "_Overflow", "_widening", "_integer_terms", "_element",
                "_reduce", "_s_pair", "_interreduce", "_buchberger"}


def kernel_uses(filename, source):
    """``(line, name)`` for each packed-kernel name the source of one
    module imports from ``groebner``, or reads as an attribute of a name
    bound to the ``groebner`` module."""
    found = []
    module_names = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("groebner", "monograde.groebner"):
                found.extend((node.lineno, a.name) for a in node.names if a.name in KERNEL_NAMES)
            elif node.module in (None, "monograde"):
                module_names.update(a.asname or a.name for a in node.names if a.name == "groebner")
        elif isinstance(node, ast.Import):
            module_names.update(a.asname for a in node.names
                                if a.name == "monograde.groebner" and a.asname)
    for node in ast.walk(ast.parse(source, filename)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_names and node.attr in KERNEL_NAMES):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_only_groebner_knows_the_packed_kernel():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "groebner.py" in modules and "multigraded.py" in modules
    for filename in modules:
        if filename != "groebner.py":
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
                assert kernel_uses(filename, fh.read()) == [], filename


def test_guard_sees_each_kind_of_kernel_use():
    source = (
        "from .groebner import _reduce, _reduced_rows\n"
        "from monograde.groebner import _Packing as P\n"
        "from . import groebner as g\n"
        "import monograde.groebner as kernel\n"
        "x = g._element(t, pk) + kernel._widening + g._splits_a_product\n"
    )
    assert kernel_uses("multigraded.py", source) == [
        (1, "_reduce"), (2, "_Packing"), (5, "_element"), (5, "_widening"),
    ]
