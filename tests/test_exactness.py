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
from monograde.cone import facets_of_rays, rays_of_facets
from monograde.divisorial import class_group, divisorial_ideal, members
from monograde.exact_linalg import (
    IntMatrix,
    as_tuple,
    rank,
)
from monograde.groebner import (
    IdealPresentation,
    Polynomial,
    buchberger,
    elimination_order,
    grevlex,
    lex,
)
from monograde.monoid import monoid_from_cone_rays, normalize_presentation
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
    """Vectors, matrix rows, exponents, weights, a stated ambient rank
    and a member box are read with ``int``, which truncates 2.7 to 2; a
    value that is not integral raises ValueError instead, and an
    integral one such as 2.0, which JSON may carry, is taken as the
    integer.  An ambient rank or a term order's variable count is also
    refused below 0, a Groebner budget below 1, and a bool is stored as
    the int it equals."""
    ideal = IdealPresentation((Polynomial(2, {(1, 0): 1, (0, 1): 1}),), grevlex(2))
    plane = divisorial_ideal(monoid_from_cone_rays([(1, 0), (0, 1)]), (1, 1))
    parabola = [Polynomial(2, {(2, 0): 1, (0, 1): -1})]
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
        for call in (lambda: rank([(bad, 1)]),
                     lambda: IntMatrix([(1, 0), (0, 1)]) @ (bad, 1),
                     lambda: (bad, 1) @ IntMatrix([(1, 0), (0, 1)]),
                     lambda: graded_hull(ideal, GradedRingSpec(((bad,), (1,)))),
                     lambda: facets_of_rays([], bad + 1), lambda: rays_of_facets([], bad + 1),
                     lambda: members(plane, bad + 1),
                     lambda: buchberger(parabola, grevlex(2), bad + 1),
                     lambda: grevlex(bad + 1), lambda: lex(bad + 1),
                     lambda: elimination_order((bad,), 3)):
            with pytest.raises(ValueError):
                call()
    for call in (lambda: facets_of_rays([], -1), lambda: rays_of_facets([], -1),
                 lambda: facets_of_rays([(1, 0)], -1),
                 lambda: buchberger(parabola, grevlex(2), -3),
                 lambda: buchberger(parabola, grevlex(2), 0), lambda: grevlex(-1)):
        with pytest.raises(ValueError):
            call()
    assert buchberger(parabola, grevlex(2), 2.0) == buchberger(parabola, grevlex(2), 2)
    assert grevlex(2.0) == grevlex(2) and type(grevlex(2.0).nvars) is int
    assert elimination_order((1.0, 0), 3.0) == elimination_order((0, 1), 3)
    m = normalize_presentation([(1.0, 0), (0, 1)])
    assert m.generators == ((1, 0), (0, 1)) and type(m.generators[0][0]) is int
    assert facets_of_rays([], 2.0) == facets_of_rays([], 2)
    assert rays_of_facets([], 2.0) == rays_of_facets([], 2)
    for cone in (facets_of_rays([], True), rays_of_facets([], True), rays_of_facets([], 1.0)):
        assert cone.ambient_rank == 1 and type(cone.ambient_rank) is int
    assert members(plane, 2.0) == members(plane, 2) == ((1, 1), (1, 2), (2, 1), (2, 2))
    v = as_tuple((2.0, Fraction(4, 2), 1))
    assert v == (2, 2, 1) and all(type(x) is int for x in v)
    assert IntMatrix([(2.0, 1), (0, 1)]) == IntMatrix([(2, 1), (0, 1)])
    for w in (IntMatrix([(1, 0), (0, 1)]) @ (2.0, 1), (2.0, 1) @ IntMatrix([(1, 0), (0, 1)])):
        assert w == (2, 1) and all(type(x) is int for x in w)
    assert Polynomial(2, {(2.0, 1): 1}) == Polynomial(2, {(2, 1): 1})
    assert normalize_presentation([(2.0, 1), (0, 1)]).generators == ((2, 1), (0, 1))
    assert facets_of_rays([(2.0, 0), (0, 1)]) == facets_of_rays([(2, 0), (0, 1)])


def test_public_coordinate_maps_refuse_non_integral_input():
    """Points the package builds itself skip the checks inside it; what a
    caller passes to a coordinate map is still read with ``as_tuple`` and
    measured, on L = Z^r and on a sublattice of lower rank alike."""
    full = monoid_from_cone_rays([(1, 0), (1, 2)])
    sub = normalize_presentation([(1, 1, 0), (1, -1, 0)])  # L: a + b even, c = 0
    assert sub.rank == 2 and sub.lattice_basis != ((1, 0, 0), (0, 1, 0))
    for m in (full, sub):
        d, r, s = m.rank, m.ambient_rank, len(m.facet_forms)
        cg = class_group(m)
        calls = {
            "to_ambient": (m.to_ambient, d),
            "to_local": (m.to_local, r),
            "facet_values": (m.facet_values, r),
            "contains": (m.contains, r),
            "divisorial_ideal": (lambda h: divisorial_ideal(m, h), s),
            "is_principal": (cg.is_principal, s),
        }
        for name, (call, n) in calls.items():
            for bad in (1.5, Fraction(1, 2), 2.7):
                with pytest.raises(ValueError):
                    call((bad,) + (0,) * (n - 1))
            for length in (n - 1, n + 1):
                with pytest.raises(ValueError):
                    call((0,) * length)
            assert call((2.0,) + (0,) * (n - 1)) == call((2,) + (0,) * (n - 1)), name
