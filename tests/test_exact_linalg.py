"""Exact integer linear algebra: frozen values plus randomized checks
against determinantal-divisor and permutation-expansion oracles."""

import itertools
import random

import pytest

from monograde.exact_linalg import (
    IntMatrix,
    _as_budget,
    _divmod,
    _eliminate,
    _quotient,
    as_tuple,
    elementary_divisors,
    hnf,
    kernel_basis,
    primitive,
    rank,
    row_lattice_basis,
    unimodular_inverse,
)
from monograde.cone import (
    _clean_vectors,
    facets_of_rays,
    membership,
    rays_of_facets,
)
from monograde.divisorial import DivisorialIdeal, class_group, divisorial_ideal, members
from monograde.groebner import Polynomial, TermOrder
from monograde.monoid import AffineMonoid, monoid_from_cone_rays, normalize_presentation
from monograde.multigraded import GradedRingSpec
from corpora import benchmark_rank_cones, cone_corpus, degenerate_cone_corpus
from oracles import det_int, frac_rref, minor_gcd_factors
from references import (
    eager_eliminate,
    reference_hnf,
    reference_snf,
    smith_quotient_transform,
    smith_solve,
)


def rand_matrix(rng, m, n, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


# -- the matrix type ---------------------------------------------------


def test_int_matrix_shape_transpose_and_products():
    a = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert a.shape == (2, 3) and a[0] == (1, 2, 3)
    assert a.T == ((1, 4), (2, 5), (3, 6)) and a.T.shape == (3, 2)
    assert a @ a.T == ((14, 32), (32, 77)) and isinstance(a @ a.T, IntMatrix)
    assert a @ (1, 0, -1) == (-2, -2)
    assert (1, -1) @ a == (-3, -3, -3)
    assert [list(row) for row in a] == [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(ValueError):
        a @ a
    with pytest.raises(ValueError, match="^matrix shapes do not match$"):
        a @ (1, 0)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    # random shapes, 0-5 rows and columns, each matrix multiplied by
    # several vectors so that the kept columns are read again; the
    # kernels' matrices equal the same rows built through the constructor
    rng = random.Random(23)
    for _ in range(120):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], n)
        for _ in range(4):
            v = [rng.randint(-9, 9) for _ in range(m)]
            w = [rng.randint(-9, 9) for _ in range(n)]
            assert v @ a == tuple(sum(c * a[i][j] for i, c in enumerate(v)) for j in range(n))
            assert a @ w == tuple(sum(c * x for c, x in zip(w, row)) for row in a)
        for built in (*hnf(a), a.T, a.T.T):
            again = IntMatrix([list(row) for row in built], built.shape[1])
            assert built == again and built.shape == again.shape


def test_int_matrix_without_rows_keeps_its_width():
    e = IntMatrix([], width=3)
    assert e.shape == (0, 3) and e.T.shape == (3, 0) and e.T.T.shape == (0, 3)
    assert IntMatrix([[1, 2], [3, 4]]) @ IntMatrix([[], []], width=0) == ((), ())
    assert (IntMatrix([[], []], width=0) @ e).shape == (2, 3)
    assert () @ e == (0, 0, 0)
    with pytest.raises(ValueError):
        IntMatrix([])
    # a stated width is checked against the rows
    assert IntMatrix([[1, 2]], width=2).shape == (1, 2)
    with pytest.raises(ValueError, match="^rows have inconsistent lengths$"):
        IntMatrix([[1, 2]], width=3)


# -- counts ------------------------------------------------------------

QUAD_IDEAL = divisorial_ideal(monoid_from_cone_rays([(1, 0), (0, 1)]), (1, 1))

# every integer count the package reads: (reader, its floor, the message
# below the floor)
COUNT_READERS = [
    (lambda x: _clean_vectors((), x)[1], 0, "ambient rank must be nonnegative"),
    (lambda x: members(QUAD_IDEAL, x), 0, "box bound must be nonnegative"),
    (lambda x: _as_budget(x).remaining, 1, "budget must be positive"),
    (lambda x: TermOrder("grevlex", x).nvars, 0, "number of variables must be nonnegative"),
    (lambda x: Polynomial(x).nvars, 0, "number of variables must be nonnegative"),
    (lambda x: AffineMonoid(x, (), (), (), True).ambient_rank, 0,
     "ambient rank must be nonnegative"),
    (lambda x: IntMatrix([], width=x).shape, 0, "width must be nonnegative"),
]


@pytest.mark.parametrize("reader, floor, message", COUNT_READERS,
                         ids=["cone-width", "members-box", "budget", "order-nvars",
                              "polynomial-nvars", "monoid-rank", "matrix-width"])
def test_counts_are_read_alike(reader, floor, message):
    # repr tells 2.0 from 2, also inside the members' tuples
    assert repr(reader(2.0)) == repr(reader(2))
    assert repr(reader(float(floor))) == repr(reader(floor))
    for bad in (2.5, "2", float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            reader(bad)
    for low in (floor - 1, float(floor - 1)):
        with pytest.raises(ValueError) as err:
            reader(low)
        assert str(err.value) == message


# -- vectors -------------------------------------------------------------

EYE = IntMatrix([(1, 0), (0, 1)])
QUAD = QUAD_IDEAL.monoid


def _monoid_vectors(gens, local):
    m = AffineMonoid(2, gens, EYE, local, True)
    return m.generators, m.local_generators


# every integer vector and vector list the package reads: (reader of a
# vector or list holding the entry x, a call with a vector of the wrong
# length or a ragged list, the message of that call)
VECTOR_READERS = [
    (lambda x: EYE @ (x, 1), lambda: EYE @ (1,), "matrix shapes do not match"),
    (lambda x: (x, 1) @ EYE, lambda: (1, 0, 0) @ EYE, "matrix shapes do not match"),
    (lambda x: QUAD.to_local((x, 1)), lambda: QUAD.to_local((1, 0, 0)),
     "point does not match the ambient rank"),
    (lambda x: membership(QUAD.cone, (x, -1)), lambda: membership(QUAD.cone, (1,)),
     "point does not match the ambient rank"),
    (lambda x: DivisorialIdeal(QUAD, (x, 1)).heights, lambda: DivisorialIdeal(QUAD, (1,)),
     "need one height per facet form"),
    (lambda x: class_group(QUAD)._heights((x, 1)), lambda: class_group(QUAD)._heights((1,)),
     "need one height per facet form"),
    (lambda x: IntMatrix([(x, 1), (0, 1)]), lambda: IntMatrix([(1, 0), (1,)]),
     "rows have inconsistent lengths"),
    (lambda x: rank([(x, 1), (4, 2)]), lambda: rank([(1, 0), (1,)]),
     "rows have inconsistent lengths"),
    (lambda x: _clean_vectors([(x, 1)], None), lambda: _clean_vectors([(1, 0), (1,)], None),
     "vectors have inconsistent lengths"),
    (lambda x: normalize_presentation([(x, 1), (0, 1)]).generators,
     lambda: normalize_presentation([(1, 0), (1,)]), "generators have inconsistent lengths"),
    (lambda x: monoid_from_cone_rays([(x, 1), (0, 1)]).generators,
     lambda: monoid_from_cone_rays([(1, 0), (1,)]), "rays have inconsistent lengths"),
    (lambda x: GradedRingSpec(((x, 1), (0, 1))).degrees,
     lambda: GradedRingSpec(((1, 0), (1,))), "degrees have inconsistent lengths"),
    (lambda x: _monoid_vectors([(x, 1)], [(1, 0)]),
     lambda: _monoid_vectors([(1, 0), (1,)], [(1, 0)]), "generators have inconsistent lengths"),
    (lambda x: _monoid_vectors([(1, 0)], [(x, 1)]),
     lambda: _monoid_vectors([(1, 0)], [(1, 0), (1,)]),
     "local generators have inconsistent lengths"),
]


@pytest.mark.parametrize("reader, misshapen, message", VECTOR_READERS,
                         ids=["matmul", "rmatmul", "to-local",
                              "membership", "ideal-heights", "class-heights", "matrix-rows",
                              "rank-rows", "cone-vectors", "presentation", "cone-rays",
                              "grading", "monoid-generators", "monoid-local-generators"])
def test_vectors_are_read_alike(reader, misshapen, message):
    # repr tells 2.0 from 2, also inside tuples
    assert repr(reader(2.0)) == repr(reader(2))
    for bad in (2.5, "2", float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            reader(bad)
    with pytest.raises(ValueError) as err:
        misshapen()
    assert str(err.value) == message


def test_monoid_vectors_must_match_the_ranks_they_live_in():
    # generators live in the ambient lattice and local generators in the
    # coordinates of the lattice basis; a mismatch is refused when the
    # monoid is built, not later in a membership test
    with pytest.raises(ValueError) as err:
        AffineMonoid(3, [(1, 0)], EYE, [(1, 0)], True)
    assert str(err.value) == "generators do not match the ambient rank"
    with pytest.raises(ValueError) as err:
        AffineMonoid(2, [(1, 0)], EYE, [(1, 0, 5)], True)
    assert str(err.value) == "local generators do not match the lattice basis"
    with pytest.raises(ValueError) as err:
        AffineMonoid(3, [(1, 0)], EYE, [(1, 0, 5)], True)
    assert str(err.value) == "generators do not match the ambient rank"
    m = AffineMonoid(3, [(1, 0, 0)], IntMatrix([(1, 0, 0), (0, 1, 0)]), [(1, 0)], True)
    assert (m.ambient_rank, m.rank, m.generators, m.local_generators) \
        == (3, 2, ((1, 0, 0),), ((1, 0),))


def test_vectors_with_infinite_or_nan_entries_raise_value_error():
    for bad in (float("inf"), float("-inf"), float("nan")):
        for reader in (as_tuple, lambda v: monoid_from_cone_rays([v]),
                       lambda v: facets_of_rays([v]), lambda v: GradedRingSpec((v,))):
            with pytest.raises(ValueError):
                reader([bad, 1])


# -- Hermite form ------------------------------------------------------


def test_hnf_known_values():
    h, u = hnf(IntMatrix([[2, 0], [1, 1], [0, 2]]))
    assert h == ((1, 1), (0, 2), (0, 0))
    assert u @ IntMatrix([[2, 0], [1, 1], [0, 2]]) == h
    assert row_lattice_basis(IntMatrix([[2], [3]])) == ((1,),)
    assert row_lattice_basis(IntMatrix([[2, 0], [1, 1], [0, 2]])) == ((1, 1), (0, 2))


def test_hnf_structure_random():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, u = hnf(a)
        assert abs(det_int(u)) == 1
        assert u @ a == h
        pivots = []
        for r in h:
            nz = next((j for j, x in enumerate(r) if x), None)
            if nz is None:
                continue
            assert not pivots or nz > pivots[-1][1], "pivots strictly right"
            assert r[nz] > 0
            pivots.append((r, nz))
        # zero rows only at the bottom
        seen_zero = False
        for r in h:
            if not any(r):
                seen_zero = True
            else:
                assert not seen_zero
        # entries above each pivot reduced into [0, pivot)
        for i, (r, nz) in enumerate(pivots):
            for above, _ in pivots[:i]:
                assert 0 <= above[nz] < r[nz]


def test_hnf_canonical_under_row_shuffle():
    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(4)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert hnf(IntMatrix(rows))[0] == hnf(IntMatrix(shuffled))[0]


def test_row_lattice_membership_random():
    rng = random.Random(23)
    for _ in range(20):
        a = rand_matrix(rng, 3, 3, 4)
        basis = row_lattice_basis(a)
        # every small integer combination of the original rows lies in the basis lattice
        for _ in range(10):
            coeffs = [rng.randint(-2, 2) for _ in range(3)]
            v = [sum(c * int(a[i][j]) for i, c in enumerate(coeffs)) for j in range(3)]
            assert not any(_divmod(basis, tuple(v))[1])


# -- Smith form --------------------------------------------------------


def smith_diagonal(s):
    return [s[i][i] for i in range(min(s.shape))]


def nonzero(diag):
    return tuple(x for x in diag if x)


def test_snf_known_values():
    assert elementary_divisors(IntMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert elementary_divisors(IntMatrix([[0, 1], [3, -1]])) == (1, 3)
    assert elementary_divisors(IntMatrix([[0, 0], [0, 0]])) == ()
    assert elementary_divisors(IntMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 10]])) == (2, 2, 60)
    s, u, v = reference_snf(IntMatrix([[2, 0], [0, 3]]))
    assert s == ((1, 0), (0, 6))
    assert smith_diagonal(reference_snf(IntMatrix([[0, 1], [3, -1]]))[0]) == [1, 3]


def test_snf_against_minor_gcd_oracle():
    """The reference Smith diagonal divides down, its transforms are
    unimodular and it is an exact two-sided factorisation; the kernel's
    elementary divisors are the determinantal divisors and that
    diagonal's nonzero entries."""
    rng = random.Random(31)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = rand_matrix(rng, m, n, 7)
        s, u, v = reference_snf(a)
        diag = smith_diagonal(s)
        assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            # once a zero appears the tail stays zero
            if diag[i] == 0:
                assert diag[i + 1] == 0
        assert elementary_divisors(a) == minor_gcd_factors([list(map(int, row)) for row in a])
        assert elementary_divisors(a) == nonzero(diag)
        assert u @ a @ v == s


def test_elementary_divisors_match_minor_gcds_on_every_shape():
    """Wide, tall, square and rank-deficient matrices; tall ones are
    reduced as their transposes.  In ``[[-3, 2, 3], [-2, 0, 0]]`` and
    its transpose, whose divisors are (1, 2), the first pivot leaves a
    nonzero remainder in its row, which becomes the next pivot of the
    same column.  The random products through a smaller inner dimension
    fall short of full rank."""
    rng = random.Random(109)
    mats = [[[-3, 2, 3], [-2, 0, 0]], [[-3, -2], [2, 0], [3, 0]]]
    for _ in range(25):
        for m, n in ((rng.randint(3, 5), rng.randint(1, 2)), (rng.randint(1, 2), rng.randint(3, 5)),
                     (rng.randint(1, 4),) * 2):
            mats.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        # a product through an inner dimension k < min(m, n) has rank at most k
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        k = rng.randint(1, min(m, n) - 1)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        mats.append([[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                     for i in range(m)])
    for rows in mats:
        a = IntMatrix(rows)
        factors = minor_gcd_factors(rows)
        assert elementary_divisors(a) == factors
        s, u, _ = reference_snf(a)
        assert nonzero(smith_diagonal(s)) == factors and abs(det_int(u)) == 1
    assert elementary_divisors(IntMatrix(mats[0])) == elementary_divisors(IntMatrix(mats[1])) == (1, 2)


def scrambled(rng, diag, m, n):
    """An m x n matrix with the given diagonal, its rows and columns
    mixed by random elementary operations, so it has the diagonal's
    elementary divisors."""
    rows = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)] for i in range(m)]
    for _ in range(3 * (m + n)):
        q = rng.randint(-3, 3)
        if rng.random() < 0.5 and m > 1:
            i, r = rng.sample(range(m), 2)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[r])]
        elif n > 1:
            j, c = rng.sample(range(n), 2)
            for row in rows:
                row[j] += q * row[c]
    return IntMatrix(rows, n)


def smith_corpus(rng):
    """Tall, wide and square matrices, ones with zero rows and zero
    columns mixed in, and scrambled diagonals whose entries share
    primes (2, 4, 12), are coprime (4, 9, 25) or repeat."""
    out = []
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = [list(row) for row in rand_matrix(rng, m, n)]
        if rng.random() < 0.3:
            a.insert(rng.randint(0, m), [0] * n)
        if rng.random() < 0.3:
            c = rng.randint(0, n)
            a = [row[:c] + [0] + row[c:] for row in a]
        out.append(IntMatrix(a))
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        diag = [rng.choice((1, 2, 3, 4, 6, 9, 12, 25, 0)) for _ in range(min(m, n))]
        out.append(scrambled(rng, diag, m, n))
    return out


def test_elementary_divisors_chain_the_reference_diagonal():
    """The kernel stops at a diagonal and chains it by gcd and lcm; the
    reference form chains it by row and column operations.  Scrambled
    diagonals of repeated and coprime factors need the chain most."""
    for a in smith_corpus(random.Random(139)):
        s, _, _ = reference_snf(a)
        assert elementary_divisors(a) == nonzero(smith_diagonal(s)), a


def test_elementary_divisors_match_sympy():
    """sympy's invariant factors share no code with the package or with
    the minor-gcd oracle; they keep a 0 per missing rank, which
    ``elementary_divisors`` leaves out."""
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(137)
    mats = [rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)) for _ in range(400)]
    for _ in range(40):
        # rank at most k through a thin product
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        k = rng.randint(1, min(m, n) - 1)
        mats.append(rand_matrix(rng, m, k, 3) @ rand_matrix(rng, k, n, 3))
    for a in mats:
        want = tuple(int(x) for x in invariant_factors(Matrix(list(map(list, a))), domain=ZZ) if x)
        assert elementary_divisors(a) == want, a


def transform_corpus(rng):
    """Matrices without rows or columns, square, wide and tall ones,
    facet-like 8-20 x 3-6 ones, and the facet matrices of a cone corpus
    with their transposes."""
    out = [IntMatrix([], width=n) for n in range(4)]
    out += [IntMatrix([()] * m, width=0) for m in range(1, 4)]
    for _ in range(150):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        out.append(rand_matrix(rng, m, n, 4))
    for _ in range(40):
        out.append(rand_matrix(rng, rng.randint(8, 20), rng.randint(3, 6), 4))
    for rays in cone_corpus(431):
        forms = IntMatrix(facets_of_rays(rays).facet_forms, len(rays[0]))
        out += [forms, forms.T]
    return out


def has_integer_inverse(u):
    """[U | I] row reduces over Q to [I | W] with W integral, so U is
    unimodular (``oracles.frac_rref``, no package code)."""
    m = len(u)
    eye = [[int(i == j) for j in range(m)] for i in range(m)]
    _, pivots, rows = frac_rref([list(row) + e for row, e in zip(u, eye)])
    return pivots == list(range(m)) and all(x.denominator == 1 for row in rows for x in row[m:])


def test_hnf_gives_the_reference_form_and_a_hermite_transform():
    """H is canonical and equals the xgcd reference's; U is not unique,
    so it is held to what defines it: U @ A = H and U unimodular."""
    for a in transform_corpus(random.Random(113)):
        (h, u), ref = hnf(a), reference_hnf(a)
        # shapes too, since matrices without rows compare equal as tuples
        assert h == ref[0] and [x.shape for x in (h, u)] == [x.shape for x in ref]
        assert u @ a == h and has_integer_inverse(u), a


def test_smith_kernel_without_column_transform_matches_snf():
    """The bare matrix gives the elementary divisors of the two-sided
    reference form, on every matrix of the corpus, those without rows
    or columns included.  The kernel stops its pivot search at the first
    unit; the reference scans every entry, so matrices whose first unit
    follows larger entries, with more units after it, check that the
    pivot taken there reaches the same factors."""
    units = [IntMatrix([[4, 2, -1], [1, 3, 1]]), IntMatrix([[6, 0], [3, 1], [-1, 1]]),
             IntMatrix([[4, 2, -1], [1, 3, 2]]), IntMatrix([[6, 0], [3, 1], [-1, 2]]),
             IntMatrix([[0, 5, 2, 7], [3, 0, 1, -1], [1, 1, 0, 2]])]
    for a in units + transform_corpus(random.Random(127)):
        s, _, _ = reference_snf(a)
        assert elementary_divisors(a) == nonzero(smith_diagonal(s))


def test_hermite_quotient_on_every_lineality_basis():
    """``_quotient`` reads the quotient by a lineality off one row
    Hermite form: on the orthogonal complement A of a lineality basis,
    whose kernel is the saturated lineality lattice, the Hermite basis
    of K is the lineality basis, W @ A.T = H, [W; K] is unimodular and W
    has one row per quotient coordinate.  The Smith route the references
    quotient by sends the lattice onto the first u coordinates, by a
    unimodular top block, and lifts by the last columns of P^-1."""
    seen = 0
    for vectors, d in degenerate_cone_corpus(433, 300):
        for c in (facets_of_rays(vectors, d), rays_of_facets(vectors, d)):
            if not c.lineality:
                continue
            u = len(c.lineality)
            lin = IntMatrix(c.lineality)
            a = kernel_basis(lin)
            h, w, k = _quotient(a)
            assert row_lattice_basis(k) == lin and k.shape == (u, d)
            assert w @ a.T == h and w.shape == (d - u, d)
            assert has_integer_inverse(IntMatrix(w + k, d))
            p, lift = smith_quotient_transform(lin)
            image = p @ lin.T
            assert not any(map(any, image[u:]))
            unimodular_inverse(IntMatrix(image[:u]))
            assert lift == IntMatrix([row[u:] for row in unimodular_inverse(p)], d - u)
            assert lift.shape == (d, d - u)
            seen += 1
    assert seen > 100


def test_quotient_is_a_hermite_section_and_kernel():
    """On every matrix of the transform corpus, those without rows or
    columns included, ``_quotient`` gives W @ A.T = H with H the nonzero
    rows of the reference Hermite form, [W; K] unimodular (``oracles``'
    rational reduction, no package code), and K spanning the kernel:
    its Hermite basis is the reference kernel, the nonzero rows' Hermite
    form of the zero rows of the reference transform."""
    for a in transform_corpus(random.Random(131)):
        h, w, k = _quotient(a)
        ref_h, ref_u = reference_hnf(a.T)
        nonzero_rows = [i for i, row in enumerate(ref_h) if any(row)]
        assert h == IntMatrix([ref_h[i] for i in nonzero_rows], a.shape[0]), a
        assert w @ a.T == h and h.shape == (len(w), a.shape[0])
        assert len(w) + len(k) == a.shape[1] and has_integer_inverse(IntMatrix(w + k, a.shape[1]))
        zero_rows = [ref_u[i] for i, row in enumerate(ref_h) if not any(row)]
        want = reference_hnf(zero_rows)[0] if zero_rows else IntMatrix([], a.shape[1])
        assert row_lattice_basis(k) == IntMatrix([r for r in want if any(r)], a.shape[1]), a


# -- quotients ---------------------------------------------------------


def cokernel_factors(a):
    """Invariant factors of the quotient of Z^rows(A) by the column span
    of A: the elementary divisors with 1s dropped, and a 0 per missing
    rank."""
    divisors = elementary_divisors(a)
    return tuple(e for e in divisors if e != 1) + (0,) * (a.shape[0] - len(divisors))


def test_cokernel_known_groups():
    assert cokernel_factors(IntMatrix([[0, 1], [3, -1]])) == (3,)
    assert cokernel_factors(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == ()
    assert cokernel_factors(IntMatrix([[2, 0], [0, 2]])) == (2, 2)
    assert cokernel_factors(IntMatrix([[2], [0]])) == (2, 0)


def test_cokernel_column_order_invariant():
    rng = random.Random(53)
    for _ in range(20):
        a = rand_matrix(rng, 3, 3, 6)
        cols = list(range(3))
        rng.shuffle(cols)
        b = IntMatrix([[int(a[i][j]) for j in cols] for i in range(3)])
        assert cokernel_factors(a) == cokernel_factors(b)


# -- kernels and solving ----------------------------------------------


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((-2, -4)) == (-1, -2)
    assert primitive((0, 5, 0)) == (0, 1, 0)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_kernel_basis_is_saturated():
    k = kernel_basis(IntMatrix([[1, 1, 1]]))
    assert len(k) == 2
    for row in k:
        assert sum(row) == 0
    rng = random.Random(61)
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), 5)
        k = kernel_basis(a)
        for row in k:
            assert all(
                sum(int(a[i][j]) * int(row[j]) for j in range(a.shape[1])) == 0
                for i in range(a.shape[0])
            )
        assert len(k) == a.shape[1] - rank(a)
        if len(k):
            # saturation: the kernel lattice has trivial elementary divisors
            assert set(elementary_divisors(IntMatrix(k))) <= {1}


def test_solve_integer():
    """The oracle's Smith solve, the reference for every integer
    preimage the package finds by Hermite back-substitution."""
    assert smith_solve(IntMatrix([[2, 0], [0, 3]]), (4, 9)) == (2, 3)
    assert smith_solve(IntMatrix([[2]]), (3,)) is None
    sol = smith_solve(IntMatrix([[2, 3]]), (1,))
    assert sol is not None and 2 * sol[0] + 3 * sol[1] == 1


def test_solve_integer_matches_box_search():
    rng = random.Random(71)
    for _ in range(30):
        m, n = rng.randint(1, 2), rng.randint(1, 3)
        a = rand_matrix(rng, m, n, 3)
        b = [rng.randint(-4, 4) for _ in range(m)]
        got = smith_solve(a, b)
        if got is not None:
            assert all(
                sum(int(a[i][j]) * got[j] for j in range(n)) == b[i] for i in range(m)
            )
        else:
            # no solution may exist even in a generous box
            for x in itertools.product(range(-8, 9), repeat=n):
                assert any(
                    sum(int(a[i][j]) * x[j] for j in range(n)) != b[i]
                    for i in range(m)
                )


def test_lattice_coordinates_match_smith_solve():
    """``_divmod`` in a Hermite basis leaves nothing over exactly on
    lattice points, and then its quotient is the coefficient vector:
    the Smith solve's answer, and None where that finds none."""
    rng = random.Random(73)
    off_lattice = 0
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        basis = row_lattice_basis(rand_matrix(rng, m, n, 5))
        if not len(basis):
            continue
        # the saturation: every integer point of the rational span of the basis
        saturated = kernel_basis(kernel_basis(basis))
        for _ in range(8):
            coeffs = [rng.randint(-3, 3) for _ in range(len(basis))]
            assert _divmod(basis, coeffs @ basis) == (tuple(coeffs), (0,) * n)
            in_span = [rng.randint(-3, 3) for _ in range(len(saturated))] @ saturated
            anywhere = tuple(rng.randint(-6, 6) for _ in range(n))
            for v in (in_span, anywhere):
                x, rest = _divmod(basis, v)
                got = None if any(rest) else x
                assert got == smith_solve(basis.T, v)
                off_lattice += got is None and v is in_span
    assert off_lattice > 20
    assert any(_divmod(IntMatrix([[2, 0], [0, 3]]), (1, 0))[1])
    assert any(_divmod(IntMatrix([[1, 1, 0]]), (1, 1, 1))[1])


# -- determinants and inverses ----------------------------------------


def last_pivot(rows) -> int:
    """The last pivot of ``_eliminate`` on a square matrix, 0 when it is
    singular: the determinant up to the sign of the row swaps."""
    rows = [list(r) for r in rows]
    _, pivots, d = _eliminate(rows, len(rows))
    return d if len(pivots) == len(rows) else 0


def test_determinant_matches_permutation_expansion():
    assert last_pivot([[1, 2], [3, 4]]) == -2
    assert last_pivot([[0, 1], [1, 0]]) == 1  # det -1, one swap
    rng = random.Random(83)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, 6)
        assert abs(last_pivot(a)) == abs(det_int([list(map(int, row)) for row in a]))


# -- the fraction-free elimination behind rank and determinants --------


def shaped_matrices(rng):
    """Square, wide, tall, rank-deficient and empty matrices, as row lists."""
    out = [[], [[0, 0, 0]], [[0], [0]]]
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        out.append([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        # a product through an inner dimension k < min(m, n) has rank at most k
        k = rng.randint(1, max(1, min(m, n) - 1))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        out.append([[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                    for i in range(m)])
    return out


def test_rank_matches_rational_row_reduction():
    for rows in shaped_matrices(random.Random(101)):
        assert rank(rows) == frac_rref(rows)[0]
        if rows:
            assert rank(IntMatrix(rows)) == frac_rref(rows)[0]
    assert rank(IntMatrix([], width=4)) == 0
    # the elimination reads vectors by their products, so a short row is refused first
    for ragged in ([(1, 2), (3,)], [(1,), (2, 3)], [(1, 0, 0), (0, 1)]):
        with pytest.raises(ValueError):
            rank(ragged)


def test_determinant_matches_laplace_expansion_including_singular():
    rng = random.Random(107)
    for rows in shaped_matrices(rng):
        if rows and len(rows) == len(rows[0]):
            assert abs(last_pivot(rows)) == abs(det_int(rows))
    for n in range(2, 6):
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert abs(last_pivot(a)) == abs(det_int(a))
        singular = a[:-1] + [[x + 2 * y for x, y in zip(a[0], a[-2])]]
        assert last_pivot(singular) == 0 == det_int(singular)
    assert last_pivot([]) == 1


def test_transform_kernel_matches_the_eager_elimination():
    """``_eliminate(A, d)`` carries only the d x d transform of the
    vectors A, in Z^d: on ``[A^T | I]`` the eager elimination takes the
    same pivots and the same last pivot, and its identity block is the
    transform, bit for bit.  Full-rank input is read only up to its d-th
    pivot."""
    cases = [(rows, len(rows[0])) for rows in shaped_matrices(random.Random(101)) if rows]
    for d, rays in benchmark_rank_cones(811):
        cases += [(rays, d), (list(facets_of_rays(rays).facet_forms), d)]
    taken = []

    def reading(vectors):
        for v in vectors:
            taken.append(v)
            yield v

    for vectors, d in cases:
        eager = [list(col) + [int(i == k) for k in range(d)] for i, col in enumerate(zip(*vectors))]
        rows, pivots, e = eager_eliminate(eager, len(vectors))
        taken.clear()
        t, base, last = _eliminate(reading(vectors), d)
        assert base == pivots and last == e and t == [row[len(vectors):] for row in rows]
        assert len(taken) == (base[-1] + 1 if len(base) == d else len(vectors))
    # the later vectors are never read once d pivots are found
    t, base, e = _eliminate(iter([(0, 0), (1, 2), (2, 4), (0, 1), "unread"]), 2)
    assert base == [1, 3] and e == 1 and t == [[1, 0], [-2, 1]]


def test_unimodular_inverse():
    inv = unimodular_inverse(IntMatrix([[2, 1], [1, 1]]))
    assert inv == ((1, -1), (-1, 2))
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="^matrix is not square$"):
        unimodular_inverse(IntMatrix([[1, 0, 0], [0, 1, 0]]))
