import random
from fractions import Fraction

import numpy as np
import pytest

from rotweb.exactmath import ExactMathError, UniPoly
from rotweb.linalg import char_poly, nullspace, rank, rational_eigenvalues, row_echelon, solve_many


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


class TestElimination:
    def test_rank_and_pivots(self):
        m = frac_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert rank(m) == 2
        _, pivots = row_echelon(m)
        assert pivots == [0, 1]

    def test_nullspace_annihilates(self):
        rng = random.Random(3)
        for _ in range(50):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 6)
            m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
                 for _ in range(rows)]
            basis = nullspace(m, cols)
            assert len(basis) == cols - rank(m)
            for vec in basis:
                for row in m:
                    assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_solve_many_consistent_and_inconsistent(self):
        m = frac_matrix([[1, 1], [1, -1]])
        assert solve_many(m, [[Fraction(2), Fraction(0)]]) == [[1, 1]]
        # Free variables are set to zero.
        assert solve_many(frac_matrix([[1, 1], [2, 2]]), [[Fraction(1), Fraction(2)]]) == [[1, 0]]
        bad = frac_matrix([[1, 1], [2, 2]])
        assert solve_many(bad, [[Fraction(1), Fraction(3)]]) is None
        # One inconsistent column makes the whole system inconsistent.
        assert solve_many(bad, [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]]) is None

    def test_solve_many_residual(self):
        rng = random.Random(11)
        for _ in range(50):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
                 for _ in range(rows)]
            # Right-hand sides in the column space are consistent.
            xs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
                  for _ in range(rng.randint(1, 3))]
            rhs = [[sum(a * x for a, x in zip(row, xv)) for row in m] for xv in xs]
            solutions = solve_many(m, rhs)
            assert solutions is not None and len(solutions) == len(rhs)
            for b, x in zip(rhs, solutions):
                assert len(x) == cols
                assert [sum(a * v for a, v in zip(row, x)) for row in m] == b


class TestCharPoly:
    def test_small_known(self):
        assert char_poly(frac_matrix([[2]])) == UniPoly([-2, 1])
        # [[1, 2], [3, 4]]: t^2 - 5t - 2
        assert char_poly(frac_matrix([[1, 2], [3, 4]])) == UniPoly([-2, -5, 1])

    def test_against_numpy(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 6)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            cp = char_poly(m)
            expected = np.poly(np.array(m, dtype=float))  # high-first
            got = [float(c) for c in reversed(cp.coeffs)]
            assert np.allclose(got, expected, atol=1e-6)

    def test_rational_eigen(self):
        m = frac_matrix([[2, 0, 0], [0, 2, 0], [0, 1, 3]])
        eig = rational_eigenvalues(m)
        assert [(h, len(space)) for h, space in eig] == [(2, 2), (3, 1)]
        for h, space in eig:
            for vec in space:
                image = [sum(r * v for r, v in zip(row, vec)) for row in m]
                assert image == [h * v for v in vec]

    def test_irrational_eigenvalue_raises(self):
        with pytest.raises(ExactMathError):
            rational_eigenvalues(frac_matrix([[0, 2], [1, 0]]))


def bareiss_det(m):
    """Determinant by fraction-free elimination with row swaps."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else Fraction(1)


def interpolated_char_poly(m):
    """det(t*I - A) from its values at t = 0..n, by Lagrange interpolation."""
    n = len(m)
    points = list(range(n + 1))
    result = UniPoly([])
    for xk in points:
        shifted = [[(xk if i == j else 0) - Fraction(m[i][j]) for j in range(n)] for i in range(n)]
        term = UniPoly([bareiss_det(shifted)])
        for xj in points:
            if xj != xk:
                term = term * UniPoly([Fraction(-xj, xk - xj), Fraction(1, xk - xj)])
        result = result + term
    return result


def random_entry(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def block_triangular(rng, n):
    """Random lower block-triangular matrix, then conjugated by a random
    permutation so the blocks are scattered."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    m = [[random_entry(rng) if block_of[j] <= block_of[i] and rng.random() < 0.7 else 0
          for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


class TestCharPolyParity:
    def test_random_against_interpolation(self):
        rng = random.Random(2024)
        for trial in range(180):
            n = trial % 9
            kind = (trial // 9) % 3
            if kind == 2:
                m = block_triangular(rng, n)
            else:
                density = 0.25 if kind == 0 else 1.0
                m = [[random_entry(rng) if rng.random() < density else 0 for _ in range(n)]
                     for _ in range(n)]
            assert char_poly(m) == interpolated_char_poly(m), m

    def test_empty_matrix(self):
        assert char_poly([]) == UniPoly([1])

    def test_strictly_upper_triangular(self):
        rng = random.Random(8)
        for n in range(1, 9):
            m = [[random_entry(rng) if j > i else 0 for j in range(n)] for i in range(n)]
            assert char_poly(m) == UniPoly.monomial(n)

    def test_rotation_block(self):
        m = frac_matrix([[0, -1, 5, 0], [1, 0, 2, 0], [0, 0, 3, 0], [7, 0, 1, Fraction(1, 2)]])
        expected = UniPoly([1, 0, 1]) * UniPoly([-3, 1]) * UniPoly([Fraction(-1, 2), 1])
        assert char_poly(m) == expected == interpolated_char_poly(m)
