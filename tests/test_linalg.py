import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from rotweb import ckt_core
from rotweb.exactmath import ExactMathError, Poly, rational_roots, real_root_count
from rotweb.linalg import (char_poly, extended_coordinates, nullspace, rank, rational_eigenvalues,
                           row_echelon, solve_many, vanishing_combinations)

from ref_univariate import UniPoly, ints, product, ref_monic


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def block_product(m):
    """The product of char_poly's block polynomials, each checked to be a
    primitive integer polynomial with a positive leading coefficient."""
    blocks = char_poly(m)
    for block in blocks:
        assert all(type(c) is int for c in block) and block[-1] > 0 and gcd(*block) == 1
    return product(blocks)


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
        assert char_poly(frac_matrix([[2]])) == [[-2, 1]]
        # [[1, 2], [3, 4]]: t^2 - 5t - 2
        assert char_poly(frac_matrix([[1, 2], [3, 4]])) == [[-2, -5, 1]]
        # Two 1x1 blocks: 2 t - 1 and t - 3.
        assert sorted(char_poly(frac_matrix([[Fraction(1, 2), 0], [1, 3]]))) == [[-3, 1], [-1, 2]]

    def test_against_numpy(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 6)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            cp = ref_monic(block_product(m))
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

    def test_eigenvalue_with_large_denominator(self):
        small = Fraction(1, 10**6 + 3)
        eig = rational_eigenvalues(frac_matrix([[small, 0], [0, 2]]))
        assert eig == [(small, [[1, 0]]), (2, [[0, 1]])]


class TestVanishingCombinations:
    def test_dependent_images(self):
        x, y = Poly.variable(0, 2), Poly.variable(1, 2)
        p, q = [x * y, Poly.const(3, 2)], [x - y, y * y]
        assert vanishing_combinations([p, [-c for c in p], q]) == [[1, 1, 0]]

    def test_zero_images_give_identity(self):
        zero = [Poly.zero(3)] * 2
        assert vanishing_combinations([zero] * 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_no_images(self):
        assert vanishing_combinations([]) == []

    def test_matches_nullspace_of_coefficient_matrix(self):
        rng = random.Random(9)
        monomials = [(0, 0), (1, 0), (0, 1), (2, 1)]
        for _ in range(30):
            ncols = rng.randint(1, 6)
            # Rows 4 k .. 4 k + 3 of the matrix are the coefficients of the
            # four monomials in component k, for two components.
            m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.6 else 0
                  for _ in range(ncols)] for _ in range(2 * len(monomials))]
            images = [[Poly.from_terms({e: m[4 * k + i][c] for i, e in enumerate(monomials)}, 2)
                       for k in range(2)] for c in range(ncols)]
            assert vanishing_combinations(images) == nullspace(m, ncols)


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
            assert ref_monic(block_product(m)) == interpolated_char_poly(m), m

    def test_block_product_is_a_positive_multiple(self):
        # Scattered blocks of mixed sizes and denominators: the product of
        # the blocks is c det(t*I - A) with c > 0, one polynomial per block.
        rng = random.Random(2025)
        for trial in range(60):
            m = block_triangular(rng, 1 + trial % 8)
            product, expected = block_product(m), interpolated_char_poly(m)
            c = product.lead
            assert c > 0 and product == expected * c, m
            assert sum(len(block) - 1 for block in char_poly(m)) == len(m)

    def test_empty_matrix(self):
        assert char_poly([]) == []
        assert block_product([]) == UniPoly([1])

    def test_strictly_upper_triangular(self):
        rng = random.Random(8)
        for n in range(1, 9):
            m = [[random_entry(rng) if j > i else 0 for j in range(n)] for i in range(n)]
            assert char_poly(m) == [[0, 1]] * n

    def test_rotation_block(self):
        m = frac_matrix([[0, -1, 5, 0], [1, 0, 2, 0], [0, 0, 3, 0], [7, 0, 1, Fraction(1, 2)]])
        expected = UniPoly([1, 0, 1]) * UniPoly([-3, 1]) * UniPoly([Fraction(-1, 2), 1])
        assert ref_monic(block_product(m)) == expected == interpolated_char_poly(m)
        assert sorted(char_poly(m)) == [[-3, 1], [-1, 2], [1, 0, 1]]


# ---------------------------------------------------------------------------
# Parity of the sparse elimination with dense fraction-free (Bareiss)
# elimination, the former implementation of row_echelon, kept here as an
# independent oracle.


def dense_row_echelon(matrix):
    """Dense Bareiss elimination of the rows cleared to integers; returns
    the nonzero echelon rows and the pivot columns."""
    rows = []
    for r in matrix:
        d = lcm(1, *(Fraction(c).denominator for c in r))
        rows.append([int(Fraction(c) * d) for c in r])
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank_ = 0
    prev_pivot = 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank_, len(rows)) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank_], rows[pivot_row] = rows[pivot_row], rows[rank_]
        p = rows[rank_][col]
        top = rows[rank_]
        for r in range(rank_ + 1, len(rows)):
            f = rows[r][col]
            for c in range(ncols):
                q, rem = divmod(rows[r][c] * p - f * top[c], prev_pivot)
                assert rem == 0
                rows[r][c] = q
        prev_pivot = p
        pivots.append(col)
        rank_ += 1
    return rows[:rank_], pivots


def dense_back_substitute(ech, pivots, x, rhs):
    for r in range(len(ech) - 1, -1, -1):
        pc = pivots[r]
        s = Fraction(rhs[r]) - sum(ech[r][c] * x[c] for c in range(pc + 1, len(x)))
        x[pc] = s / ech[r][pc]
    return x


def dense_nullspace(matrix, ncols):
    ech, pivots = dense_row_echelon(matrix)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            basis.append(dense_back_substitute(ech, pivots, vec, [0] * len(ech)))
    return basis


def dense_solve_many(matrix, rhs_columns):
    ncols = len(matrix[0]) if matrix else 0
    aug = [list(row) + [col[i] for col in rhs_columns] for i, row in enumerate(matrix)]
    ech, pivots = dense_row_echelon(aug)
    if any(p >= ncols for p in pivots):
        return None
    return [dense_back_substitute(ech, pivots, [Fraction(0)] * ncols, [row[ncols + j] for row in ech])
            for j in range(len(rhs_columns))]


def sparse_rational(rng, rows, cols, max_per_row):
    """Rows with 1 to max_per_row nonzero entries each."""
    m = [[Fraction(0)] * cols for _ in range(rows)]
    for row in m:
        for c in rng.sample(range(cols), min(rng.randint(1, max_per_row), cols)):
            row[c] = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 5))
    return m


def images(rng, matrix, count):
    """Right-hand sides in the column space: images of random vectors."""
    xs = [[random_entry(rng) for _ in matrix[0]] for _ in range(count)]
    return [[sum(a * v for a, v in zip(row, x)) for row in matrix] for x in xs]


def assert_parity(m, rhs_sets):
    """Equal pivots, rank, null space basis and solutions; returns the
    solve_many results."""
    ncols = len(m[0]) if m else 0
    ech, pivots = row_echelon(m)
    ref_pivots = dense_row_echelon(m)[1]
    assert pivots == ref_pivots
    assert rank(m) == len(ref_pivots)
    assert len(ech) == len(pivots)
    for row, pc in zip(ech, pivots):
        # Primitive integer rows, each starting at its pivot column.
        assert min(row) == pc and all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1
    basis = nullspace(m, ncols)
    assert basis == dense_nullspace(m, ncols)
    results = [solve_many(m, rhs) for rhs in rhs_sets]
    assert results == [dense_solve_many(m, rhs) for rhs in rhs_sets]
    # The integer back-substitution still hands out Fraction entries.
    vectors = basis + [vec for columns in results if columns for vec in columns]
    assert all(type(x) is Fraction for vec in vectors for x in vec)
    return results


class TestExtendedCoordinates:
    def test_expansions_and_span_test(self):
        rng = random.Random(75)
        seen = set()
        for _ in range(40):
            length, n = rng.randint(2, 8), rng.randint(0, 4)
            basis = [[random_entry(rng) for _ in range(length)] for _ in range(n)]
            if rank(list(zip(*basis))) < n:
                continue
            vectors = sparse_rational(rng, rng.randint(1, 6), length, 3)
            vectors += images(rng, list(zip(*basis)), 2) if n else []
            coords = extended_coordinates(basis, vectors)
            extending = sorted({k - n for c in coords for k in c if k >= n})
            assert rank(list(zip(*basis, *(vectors[p] for p in extending)))) == n + len(extending)
            for vec, c in zip(vectors, coords):
                total = [Fraction(0)] * length
                for k, x in c.items():
                    column = basis[k] if k < n else vectors[k - n]
                    total = [t + x * y for t, y in zip(total, column)]
                assert total == vec
            # A combination lies in span(basis) iff it has no extending key.
            weights = [random_entry(rng) for _ in vectors]
            combo = [sum(w * vec[i] for w, vec in zip(weights, vectors)) for i in range(length)]
            outside = any(sum(w * c.get(n + p, 0) for w, c in zip(weights, coords)) for p in extending)
            assert outside == (rank(list(zip(*basis, combo))) > n)
            seen.add(outside)
        assert seen == {True, False}

    def test_dependent_basis_raises(self):
        with pytest.raises(ExactMathError):
            extended_coordinates([[1, 2], [2, 4]], [[1, 0]])


class TestEliminationParity:
    def test_dense(self):
        rng = random.Random(71)
        for _ in range(120):
            m = [[random_entry(rng) for _ in range(rng.randint(1, 8))]]
            m += [[random_entry(rng) for _ in m[0]] for _ in range(rng.randint(0, 7))]
            random_columns = [[random_entry(rng) for _ in m] for _ in range(2)]
            solved, _ = assert_parity(m, [images(rng, m, rng.randint(1, 3)), random_columns])
            assert solved is not None

    def test_tall_sparse(self):
        rng = random.Random(72)
        for _ in range(3):
            m = sparse_rational(rng, 200, 35, 3)
            # Three columns dependent on others, so the null space is not
            # trivial.
            for c in rng.sample(range(35), 3):
                a, b = rng.sample([j for j in range(35) if j != c], 2)
                for row in m:
                    row[c] = row[a] - 2 * row[b]
            consistent, inconsistent = assert_parity(m, [images(rng, m, 4), [[Fraction(1)] * 200]])
            assert consistent is not None and inconsistent is None

    def test_zero_rows_columns_and_duplicates(self):
        rng = random.Random(73)
        for _ in range(60):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            m = sparse_rational(rng, rows, cols, 3)
            for c in rng.sample(range(cols), rng.randint(0, cols // 2)):
                for row in m:
                    row[c] = Fraction(0)
            m += [[Fraction(0)] * cols for _ in range(rng.randint(0, 2))]
            m += [list(rng.choice(m)) for _ in range(rng.randint(0, 3))]
            m += [[3 * x for x in rng.choice(m)]]
            rng.shuffle(m)
            assert assert_parity(m, [images(rng, m, 2)])[0] is not None

    def test_zero_rows(self):
        assert row_echelon([]) == ([], [])
        assert rank([]) == 0
        assert nullspace([], 3) == dense_nullspace([], 3) == [
            [Fraction(i == j) for i in range(3)] for j in range(3)]
        assert nullspace([]) == []
        assert solve_many([], [[], []]) == dense_solve_many([], [[], []]) == [[], []]
        assert row_echelon([[0, 0], [Fraction(0), 0]]) == ([], [])
        assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]

    def test_large_denominators(self):
        rng = random.Random(74)
        for _ in range(30):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = [[Fraction(rng.randint(-10 ** 25, 10 ** 25), rng.randint(1, 10 ** 30))
                  if rng.random() < 0.6 else Fraction(0) for _ in range(cols)] for _ in range(rows)]
            assert assert_parity(m, [images(rng, m, 2)])[0] is not None

    @pytest.mark.parametrize("name", ["X3", "D", "I3", "R3"])
    def test_assembly_matrix_against_lie_columns(self, name):
        v = ckt_core.ckv_by_name(name)
        columns = []
        for idx in range(ckt_core.DIM_TRACE_FREE):
            unit = [Fraction(0)] * ckt_core.DIM_TRACE_FREE
            unit[idx] = Fraction(1)
            columns.append(ckt_core._vectorize(ckt_core.lie_derivative(v, ckt_core.assemble_free(unit))))
        a = ckt_core._assembly_matrix()
        solutions = solve_many(a, columns)
        assert solutions is not None and solutions == dense_solve_many(a, columns)
        assert rank(a) == ckt_core.DIM_TRACE_FREE


# ---------------------------------------------------------------------------
# rational_eigenvalues against its former implementation, which read the
# roots on the product of the blocks' polynomials and built a dense shifted
# Fraction matrix for every eigenvalue.


def dense_rational_eigenvalues(matrix):
    n = len(matrix)
    p = ints(block_product(matrix))
    roots = rational_roots(p)
    if real_root_count(p) != len(roots):
        raise ExactMathError("matrix has an irrational real eigenvalue; exact eigenspaces unavailable")
    out = []
    for r in sorted(roots):
        shifted = [[Fraction(matrix[i][j]) - (r if i == j else 0) for j in range(n)] for i in range(n)]
        space = nullspace(shifted, n)
        if space:
            out.append((r, space))
    return out


def conjugated(rng, m):
    """m conjugated by random elementary matrices E = I + c e_i e_j^T
    (row i += c row j, then column j -= c column i) and a random
    permutation: same eigenvalues, mixed denominators everywhere."""
    n = len(m)
    m = [list(row) for row in m]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = random_entry(rng)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def triangular(rng, eigenvalues):
    """Upper triangular, with the eigenvalues on the diagonal."""
    n = len(eigenvalues)
    return [[Fraction(eigenvalues[i]) if i == j else random_entry(rng) if j > i and rng.random() < 0.5
             else Fraction(0) for j in range(n)] for i in range(n)]


class TestRationalEigenvaluesParity:
    @pytest.mark.parametrize("name", ["X1", "X2", "X3", "R1", "R2", "R3", "D", "I1", "I2", "I3"])
    def test_lie_operators(self, name):
        operator = ckt_core.lie_operator(ckt_core.ckv_by_name(name))
        assert rational_eigenvalues(operator) == dense_rational_eigenvalues(operator)

    def test_random_mixed_denominators(self):
        rng = random.Random(81)
        pool = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(7, 6), Fraction(-3, 10), 2]
        for _ in range(40):
            eigenvalues = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            m = conjugated(rng, triangular(rng, eigenvalues))
            result = rational_eigenvalues(m)
            assert result == dense_rational_eigenvalues(m)
            assert [h for h, _ in result] == sorted(set(eigenvalues))
            for h, space in result:
                for vec in space:
                    assert [sum(a * x for a, x in zip(row, vec)) for row in m] == [h * x for x in vec]

    def test_blocks_sharing_an_eigenvalue(self):
        # Diagonal blocks [[1, 1], [1, 1]] (eigenvalues 0, 2), [[2]], [[2]]
        # and [[1/2, 3/2], [3/2, 1/2]] (eigenvalues 2, -1), coupled below the
        # diagonal and scattered by a permutation: 2 is an eigenvalue of
        # three blocks, two of whose polynomials are equal, and comes back
        # once, with one eigenspace.
        rng = random.Random(83)
        half, three_halves = Fraction(1, 2), Fraction(3, 2)
        m = frac_matrix([[1, 1, 0, 0, 0, 0],
                         [1, 1, 0, 0, 0, 0],
                         [3, 0, 2, 0, 0, 0],
                         [0, -1, 5, 2, 0, 0],
                         [1, 0, 0, 7, half, three_halves],
                         [0, 2, 0, 0, three_halves, half]])
        perm = list(range(6))
        rng.shuffle(perm)
        m = [[m[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
        assert len(char_poly(m)) == 4
        result = rational_eigenvalues(m)
        assert [h for h, _ in result] == [-1, 0, 2]
        assert result == dense_rational_eigenvalues(m)
        for h, space in result:
            for vec in space:
                assert [sum(a * x for a, x in zip(row, vec)) for row in m] == [h * x for x in vec]

    def test_irrational_block_beside_rational_blocks(self):
        # Blocks [[1/3]], [[0, 2], [1, 0]] (eigenvalues +-sqrt(2)) and [[5]],
        # coupled below the diagonal: the rational blocks' roots do not hide
        # the irrational pair.
        m = frac_matrix([[Fraction(1, 3), 0, 0, 0],
                         [1, 0, 2, 0],
                         [0, 1, 0, 0],
                         [4, 0, -1, 5]])
        assert len(char_poly(m)) == 3
        with pytest.raises(ExactMathError, match="irrational"):
            rational_eigenvalues(m)

    def test_irrational_eigenvalue_still_raises(self):
        # Eigenvalues 1/3, -1/2 and the irrational pair +-sqrt(2).
        rng = random.Random(82)
        block = triangular(rng, [Fraction(1, 3), Fraction(-1, 2)])
        m = [row + [Fraction(0)] * 2 for row in block]
        m += [[Fraction(0)] * 2 + [Fraction(0), Fraction(2)], [Fraction(0)] * 2 + [Fraction(1), Fraction(0)]]
        with pytest.raises(ExactMathError, match="irrational"):
            rational_eigenvalues(conjugated(rng, m))
