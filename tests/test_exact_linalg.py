"""Exact integer linear algebra: frozen values plus randomized checks
against determinantal-divisor and permutation-expansion oracles."""

import itertools
import random

import pytest

from monograde.exact_linalg import (
    IntMatrix,
    _eliminate,
    _smith_left,
    elementary_divisors,
    hnf,
    kernel_basis,
    lattice_coordinates,
    primitive,
    rank,
    row_lattice_basis,
    unimodular_inverse,
)
from monograde.cone import facets_of_rays
from oracles import (
    cone_corpus,
    det_int,
    frac_rref,
    minor_gcd_factors,
    reference_hnf,
    reference_snf,
    smith_solve,
)


def rand_matrix(rng, m, n, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


# -- the matrix type ---------------------------------------------------


def test_int_matrix_shape_transpose_and_products():
    a = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert a.shape == (2, 3) and a[1, 2] == 6 and a[0] == (1, 2, 3)
    assert a.T == ((1, 4), (2, 5), (3, 6)) and a.T.shape == (3, 2)
    assert a @ a.T == ((14, 32), (32, 77)) and isinstance(a @ a.T, IntMatrix)
    assert a @ (1, 0, -1) == (-2, -2)
    assert (1, -1) @ a == (-3, -3, -3)
    assert [list(row) for row in a] == [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(ValueError):
        a @ a
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_int_matrix_without_rows_keeps_its_width():
    e = IntMatrix([], width=3)
    assert e.shape == (0, 3) and e.T.shape == (3, 0) and e.T.T.shape == (0, 3)
    assert IntMatrix([[1, 2], [3, 4]]) @ IntMatrix([[], []], width=0) == ((), ())
    assert (IntMatrix([[], []], width=0) @ e).shape == (2, 3)
    assert () @ e == (0, 0, 0)
    with pytest.raises(ValueError):
        IntMatrix([])


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
            v = [sum(c * int(a[i, j]) for i, c in enumerate(coeffs)) for j in range(3)]
            assert lattice_coordinates(basis, v) is not None


# -- Smith form --------------------------------------------------------


def test_snf_known_values():
    assert _smith_left(IntMatrix([[2, 0], [0, 3]]))[0] == [1, 6]
    assert _smith_left(IntMatrix([[0, 1], [3, -1]]))[0] == [1, 3]
    assert elementary_divisors(IntMatrix([[0, 1], [3, -1]])) == (1, 3)
    assert elementary_divisors(IntMatrix([[0, 0], [0, 0]])) == ()
    s, u, v = reference_snf(IntMatrix([[2, 0], [0, 3]]))
    assert s == ((1, 0), (0, 6))


def test_snf_against_minor_gcd_oracle():
    """The Smith kernel's diagonal divides down, its row transform is
    unimodular, and its elementary divisors are the determinantal
    divisors; the reference form it is compared with in turn is an
    exact two-sided factorisation."""
    rng = random.Random(31)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = rand_matrix(rng, m, n, 7)
        diag, u = _smith_left(a)
        assert abs(det_int(u)) == 1
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            # once a zero appears the tail stays zero
            if diag[i] == 0:
                assert diag[i + 1] == 0
        assert elementary_divisors(a) == minor_gcd_factors([list(map(int, row)) for row in a])
        s, u, v = reference_snf(a)
        assert abs(det_int(v)) == 1
        assert u @ a @ v == s


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


def test_transforms_ride_along_to_the_reference_forms():
    for a in transform_corpus(random.Random(113)):
        got, ref = hnf(a), reference_hnf(a)
        # shapes too, since matrices without rows compare equal as tuples
        assert got == ref and [x.shape for x in got] == [x.shape for x in ref]


def test_smith_kernel_without_column_transform_matches_snf():
    """What rides along never moves the diagonal: ``[A | I]`` alone and
    the bare matrix give the diagonal, U and elementary divisors of the
    two-sided reference form.  The kernel stops its pivot search at the
    first unit; the reference scans every entry, so matrices whose first
    unit follows larger entries, with more units after it, check that
    the same pivot is taken."""
    units = [IntMatrix([[4, 2, -1], [1, 3, 1]]), IntMatrix([[6, 0], [3, 1], [-1, 1]]),
             IntMatrix([[0, 5, 2, 7], [3, 0, 1, -1], [1, 1, 0, 2]])]
    for a in units + transform_corpus(random.Random(127)):
        s, u, _ = reference_snf(a)
        diag = [s[i, i] for i in range(min(a.shape))]
        got = _smith_left(a)
        assert got == (diag, u) and got[1].shape == u.shape
        assert elementary_divisors(a) == tuple(x for x in diag if x)


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
        b = IntMatrix([[int(a[i, j]) for j in cols] for i in range(3)])
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
                sum(int(a[i, j]) * int(row[j]) for j in range(a.shape[1])) == 0
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
                sum(int(a[i, j]) * got[j] for j in range(n)) == b[i] for i in range(m)
            )
        else:
            # no solution may exist even in a generous box
            for x in itertools.product(range(-8, 9), repeat=n):
                assert any(
                    sum(int(a[i, j]) * x[j] for j in range(n)) != b[i]
                    for i in range(m)
                )


def test_lattice_coordinates_match_smith_solve():
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
            assert lattice_coordinates(basis, coeffs @ basis) == tuple(coeffs)
            in_span = [rng.randint(-3, 3) for _ in range(len(saturated))] @ saturated
            anywhere = [rng.randint(-6, 6) for _ in range(n)]
            for v in (in_span, anywhere):
                got = lattice_coordinates(basis, v)
                assert got == smith_solve(basis.T, v)
                off_lattice += got is None and v is in_span
    assert off_lattice > 20
    assert lattice_coordinates(IntMatrix([[2, 0], [0, 3]]), (1, 0)) is None
    assert lattice_coordinates(IntMatrix([[1, 1, 0]]), (1, 1, 1)) is None


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


def test_unimodular_inverse():
    inv = unimodular_inverse(IntMatrix([[2, 1], [1, 1]]))
    assert inv == ((1, -1), (-1, 2))
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))
