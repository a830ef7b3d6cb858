"""No floating point in the package's math.

Every module under ``src/monograde`` is parsed, not imported, and
searched for float literals, for the name ``float`` and for ``math``
functions that are not exact on integers and fractions.  The one
allowed ``float`` is in ``cli._integer_errors``, which accepts the
integral floats JSON may carry for integers (``2.0``).
"""

import ast
import os

import monograde

PACKAGE = os.path.dirname(os.path.abspath(monograde.__file__))

# math functions that return ints, exactly, for ints and Fractions
EXACT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod"}
ALLOWED_FLOAT = {("cli.py", "_integer_errors")}


def float_uses(filename, source):
    """``(line, what)`` for each float literal, ``float`` name and
    inexact ``math`` name in the source of one module."""
    found = []
    math_names = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "literal %r" % node.value))
        elif isinstance(node, ast.Name) and node.id == "float":
            if (filename, function) not in ALLOWED_FLOAT:
                found.append((node.lineno, "float"))
        elif isinstance(node, ast.Import):
            math_names.update(a.asname or a.name for a in node.names if a.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, "math." + a.name) for a in node.names
                         if a.name not in EXACT_MATH)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in EXACT_MATH):
            found.append((node.lineno, "math." + node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, filename), None)
    return found


def test_package_math_has_no_floating_point():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "exact_linalg.py" in modules and "cli.py" in modules
    for filename in modules:
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
            assert float_uses(filename, fh.read()) == [], filename


def test_guard_sees_each_kind_of_float():
    source = (
        "import math\n"
        "import math as m\n"
        "from math import gcd, sqrt\n"
        "x = 0.5\n"
        "y = float(3)\n"
        "z = math.log(2) + m.gcd(4, 6) + m.pi\n"
        "def _integer_errors(v):\n"
        "    return float\n"
    )
    assert float_uses("cone.py", source) == [
        (3, "math.sqrt"), (4, "literal 0.5"), (5, "float"), (6, "math.log"),
        (6, "math.pi"), (8, "float"),
    ]
    assert (8, "float") not in float_uses("cli.py", source)
