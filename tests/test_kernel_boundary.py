"""Seven boundaries, checked on parsed source, nothing imported.

The packed kernel format stays in ``groebner``: every module under
``src/monograde`` other than ``groebner`` is searched for the names of
the packed kernel.  Packed exponents and basis elements are read and
written only inside ``groebner``, and the other modules hand it rows
(dicts from exponent tuple to coefficient) through its private entries.

The capped sweep stays in ``monoid``: no other module under
``src/monograde`` imports or reads the sweep's caps, echelon frame,
guard or row sweep.  They ask for a height region through
``_PointedView._sweep`` and ``AffineMonoid._members``.

Integer vectors are read by the readers of ``exact_linalg``: no module
under ``src/monograde`` other than ``exact_linalg`` and ``groebner``
names ``as_tuple``.  The others read a vector or a list of vectors with
``_as_vector`` or ``_as_vectors``, which check the length as they read.

The job's limits have one home: no module under ``src/monograde`` but
``exact_linalg`` defines a class on ``RuntimeError``,
``BudgetExceededError`` or ``EnumerationLimitError``, so every limit
error is a ``BudgetExceededError`` and the command line maps that one
class to its exit code.

The benchmark compiles only the oracles it calls: ``tests/oracles.py``,
which ``perfbench/check.py`` and ``perfbench/workloads.py`` import,
defines exactly the functions they read from it and the ones those
call, and imports nothing from the package.

The reference forms share no step with the kernels they check:
``tests/references.py`` keeps its own copies of the row and column
operations of its xgcd route and imports none of those of
``exact_linalg`` (``_sub_row``, ``_swap_cols``, ``_clear_column``, ...).

Every import is read: no module under ``src/monograde``, ``tests/`` or
``demos/`` imports a name it never reads.  ``from __future__`` imports,
the re-exports of ``__init__.py`` and imports marked ``# noqa: F401``,
which are made for their side effect, are exempt.
"""

import ast
import os

import monograde

PACKAGE = os.path.dirname(os.path.abspath(monograde.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KERNEL_NAMES = {"_Packing", "_Overflow", "_widening", "_integer_terms", "_element",
                "_reduce", "_s_pair", "_interreduce", "_buchberger"}


def module_uses(filename, source, module, names):
    """``(line, name)`` for each of ``names`` that the source of one
    module imports from the package module ``module``, or reads as an
    attribute of a name bound to that module."""
    found = []
    module_names = set()
    tree = ast.parse(source, filename)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in (module, "monograde." + module):
                found.extend((node.lineno, a.name) for a in node.names if a.name in names)
            elif node.module in (None, "monograde"):
                module_names.update(a.asname or a.name for a in node.names if a.name == module)
        elif isinstance(node, ast.Import):
            module_names.update(a.asname for a in node.names
                                if a.name == "monograde." + module and a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_names and node.attr in names):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_only_groebner_knows_the_packed_kernel():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "groebner.py" in modules and "multigraded.py" in modules
    for filename in modules:
        if filename != "groebner.py":
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
                assert module_uses(filename, fh.read(), "groebner", KERNEL_NAMES) == [], filename


def test_guard_sees_each_kind_of_kernel_use():
    source = (
        "from .groebner import _reduce, _reduced_rows\n"
        "from monograde.groebner import _Packing as P\n"
        "from . import groebner as g\n"
        "import monograde.groebner as kernel\n"
        "x = g._element(t, pk) + kernel._widening + g._splits_a_product\n"
    )
    assert module_uses("multigraded.py", source, "groebner", KERNEL_NAMES) == [
        (1, "_reduce"), (2, "_Packing"), (5, "_element"), (5, "_widening"),
    ]


SWEEP_NAMES = {"_region_points", "_echelon_box", "_guard_box", "_caps", "_exit", "_rays"}


def sweep_uses(filename, source):
    """``(line, name)`` for each sweep-internal name the source of one
    module imports from ``monoid``, or reads as an attribute of anything
    (a view, a monoid, the ``monoid`` module)."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom) and node.module in ("monoid", "monograde.monoid"):
            found.extend((node.lineno, a.name) for a in node.names if a.name in SWEEP_NAMES)
        elif isinstance(node, ast.Attribute) and node.attr in SWEEP_NAMES:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_only_monoid_knows_the_capped_sweep():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "monoid.py" in modules and "divisorial.py" in modules
    for filename in modules:
        if filename != "monoid.py":
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
                assert sweep_uses(filename, fh.read()) == [], filename


def test_guard_sees_each_kind_of_sweep_use():
    source = (
        "from .monoid import AffineMonoid, _region_points\n"
        "from monograde.monoid import _guard_box as guard\n"
        "from . import monoid\n"
        "x = monoid._echelon_box(h, a, b) + view._rays + m._pointed_view._caps(v)\n"
        "y = view._sweep(h) + view._ambient(p) + m._members(h, 2) + view._preimage(v)\n"
    )
    assert sweep_uses("divisorial.py", source) == [
        (1, "_region_points"), (2, "_guard_box"), (4, "_caps"), (4, "_echelon_box"),
        (4, "_rays"),
    ]


def as_tuple_uses(filename, source):
    """The lines on which the source of one module names ``as_tuple``:
    an import, a name or an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.alias) and "as_tuple" in (node.name, node.asname):
            found.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "as_tuple":
            found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "as_tuple":
            found.add(node.lineno)
    return sorted(found)


def test_only_exact_linalg_and_groebner_name_as_tuple():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "exact_linalg.py" in modules and "divisorial.py" in modules
    for filename in modules:
        if filename not in ("exact_linalg.py", "groebner.py"):
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
                assert as_tuple_uses(filename, fh.read()) == [], filename


def test_guard_sees_each_kind_of_as_tuple_use():
    source = (
        "from .exact_linalg import _as_vector, as_tuple\n"
        "from monograde.exact_linalg import as_tuple as read\n"
        "from . import exact_linalg\n"
        "v = exact_linalg.as_tuple(w) + _as_vector(w, 2, 'no')\n"
        "u = tuple(map(as_tuple, rows))\n"
    )
    assert as_tuple_uses("cone.py", source) == [1, 2, 4, 5]


LIMIT_BASES = {"RuntimeError", "BudgetExceededError", "EnumerationLimitError"}


def limit_classes(filename, source):
    """``(line, name)`` for each class the source of one module defines
    on a limit base, named bare or as an attribute, or on a class it
    defines so."""
    bases = set(LIMIT_BASES)
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ClassDef) and any(
                getattr(b, "id", getattr(b, "attr", None)) in bases for b in node.bases):
            bases.add(node.name)
            found.append((node.lineno, node.name))
    return sorted(found)


def test_only_exact_linalg_defines_a_limit_error():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "exact_linalg.py" in modules and "monoid.py" in modules
    for filename in modules:
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
            names = [name for _, name in limit_classes(filename, fh.read())]
        want = ["BudgetExceededError", "EnumerationLimitError"] if filename == "exact_linalg.py" else []
        assert names == want, filename


def test_guard_sees_each_kind_of_limit_class():
    source = (
        "class Stop(RuntimeError):\n    pass\n"
        "class Frame(exact_linalg.BudgetExceededError):\n    pass\n"
        "class Box(Frame):\n    pass\n"
        "class Input(ValueError):\n    pass\n"
        "class Both(Mixin, EnumerationLimitError):\n    pass\n"
    )
    assert limit_classes("monoid.py", source) == [
        (1, "Stop"), (3, "Frame"), (5, "Box"), (9, "Both"),
    ]


def parsed(*parts):
    path = os.path.join(ROOT, *parts)
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def test_oracles_hold_what_the_benchmark_calls_and_no_package_code():
    """No import of ``monograde`` or of a relative module, and the
    top-level names are the ``oracles.X`` names that the two benchmark
    files read, closed under the top-level names each definition reads."""
    tree = parsed("tests", "oracles.py")
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names]
    imported += [node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in imported if m.split(".")[0] in ("monograde", "")] == []
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    reached = set()
    frontier = {node.attr for name in ("check.py", "workloads.py")
                for node in ast.walk(parsed("perfbench", name))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "oracles"}
    assert frontier, "the benchmark calls no oracle"
    while frontier:
        reached |= frontier
        frontier = {node.id for name in frontier & defined.keys()
                    for node in ast.walk(defined[name])
                    if isinstance(node, ast.Name) and node.id in defined} - reached
    assert set(defined) == reached


ROW_OPERATIONS = {"xgcd", "_combine_rows", "_combine_cols", "_sub_row", "_sub_col",
                  "_swap_cols", "_clear_column"}


def test_references_share_no_row_operation_with_the_kernels():
    path = os.path.join(ROOT, "tests", "references.py")
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    assert "def reference_hnf" in source and "def reference_snf" in source
    assert module_uses(path, source, "exact_linalg", ROW_OPERATIONS) == []


def test_guard_sees_each_kind_of_row_operation_use():
    source = (
        "from monograde.exact_linalg import IntMatrix, _sub_row, _swap_cols as swap\n"
        "from monograde import exact_linalg as el\n"
        "import monograde.exact_linalg as kernels\n"
        "el._clear_column(h, 0, 0); kernels._dot(a, b); kernels._sub_row(h, 1, 2, 0)\n"
    )
    assert module_uses("references.py", source, "exact_linalg", ROW_OPERATIONS) == [
        (1, "_sub_row"), (1, "_swap_cols"), (4, "_clear_column"), (4, "_sub_row"),
    ]


def unused_imports(filename, source):
    """``(line, name)`` for each name an import in the source binds and
    no expression reads: ``import a.b`` binds ``a``, ``as`` binds the
    alias.  A ``__future__`` import and one whose line carries
    ``# noqa: F401`` bind nothing here."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for a in node.names:
            if "# noqa: F401" not in lines[node.lineno - 1] + lines[a.lineno - 1]:
                bound.setdefault(a.asname or a.name.split(".")[0], a.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    paths = [os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE)
             if f.endswith(".py") and f != "__init__.py"]
    for folder in ("tests", "demos"):
        paths += [os.path.join(ROOT, folder, f) for f in os.listdir(os.path.join(ROOT, folder))
                  if f.endswith(".py")]
    assert len(paths) > 30
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            assert unused_imports(path, fh.read()) == [], path


def test_guard_sees_each_kind_of_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "import digests  # noqa: F401  (a side effect)\n"
        "from fractions import Fraction as F, Fraction\n"
        "from monograde.groebner import (\n"
        "    grevlex,\n"
        "    normal_form,  # noqa: F401\n"
        "    lex,\n"
        ")\n"
        "def f(x: F) -> int:\n"
        "    sys = os.getcwd()\n"
        "    return grevlex(x)\n"
    )
    assert unused_imports("test_x.py", source) == [(2, "sys"), (4, "Fraction"), (8, "lex")]
