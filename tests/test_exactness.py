"""No floating point in the package's math.

Every module under ``src/monograde`` is parsed, not imported, and
searched for float literals, for the name ``float`` and for ``math``
functions that are not exact on integers and fractions.  The one
allowed ``float`` is in ``cli._integer_errors``, which accepts the
integral floats JSON may carry for integers (``2.0``).
"""

import ast
import os
from fractions import Fraction

import pytest

import monograde
from monograde.cone import facets_of_rays
from monograde.exact_linalg import (
    IntMatrix,
    as_tuple,
    lattice_coordinates,
    primitive,
    rank,
)
from monograde.groebner import IdealPresentation, Polynomial, grevlex
from monograde.monoid import normalize_presentation
from monograde.multigraded import GradedRingSpec, graded_hull

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


def test_non_integer_input_is_refused_not_truncated():
    """Vectors, matrix rows, exponents and weights are read with ``int``,
    which truncates 2.7 to 2; a value that is not integral raises
    ValueError instead, and an integral one such as 2.0, which JSON may
    carry, is taken as the integer."""
    ideal = IdealPresentation((Polynomial(2, {(1, 0): 1, (0, 1): 1}),), grevlex(2))
    for bad in (1.5, Fraction(1, 2), 2.7):
        with pytest.raises(ValueError):
            as_tuple((bad, 1))
        with pytest.raises(ValueError):
            IntMatrix([(bad, 1), (0, 1)])
        with pytest.raises(ValueError):
            Polynomial(2, {(bad, 1): 1})
        with pytest.raises(ValueError):
            normalize_presentation([(bad, 1), (0, 1)])
        with pytest.raises(ValueError):
            facets_of_rays([(bad, 0), (0, 1)])
        for call in (lambda: primitive((bad, 3)), lambda: rank([(bad, 1)]),
                     lambda: lattice_coordinates(IntMatrix([(1, 0), (0, 1)]), (bad, 1)),
                     lambda: graded_hull(ideal, GradedRingSpec(((bad,), (1,))))):
            with pytest.raises(ValueError):
                call()
    v = as_tuple((2.0, Fraction(4, 2), 1))
    assert v == (2, 2, 1) and all(type(x) is int for x in v)
    assert IntMatrix([(2.0, 1), (0, 1)]) == IntMatrix([(2, 1), (0, 1)])
    assert Polynomial(2, {(2.0, 1): 1}) == Polynomial(2, {(2, 1): 1})
    assert normalize_presentation([(2.0, 1), (0, 1)]).generators == ((2, 1), (0, 1))
    assert facets_of_rays([(2.0, 0), (0, 1)]) == facets_of_rays([(2, 0), (0, 1)])
