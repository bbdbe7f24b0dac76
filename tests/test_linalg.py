import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from rotweb import ckt_core, linalg
from rotweb.exactmath import ExactMathError, Poly, int_cleared, rational_roots, real_root_count
from rotweb.linalg import (char_poly, nullspace, rank, rational_eigenvalues, row_echelon, solve_many,
                           vanishing_combinations)

from conftest import assemble_free
from ref_univariate import UniPoly, ints, product, ref_monic
from test_ckt_core import lie_operator


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def dense(vecs, n):
    """``Numerators`` vectors as lists of n Fractions; None is kept."""
    return None if vecs is None else [vec.dense(n) for vec in vecs]


def dense_spaces(result, n):
    """``rational_eigenvalues`` with its eigenspaces as Fraction lists."""
    return [(h, dense(space, n)) for h, space in result]


def solve_constant(matrix, rhs_columns):
    """``solve_many`` on the dense system A X = B, each row a component:
    column c of A, and each column of B, as an image of constant Polys;
    the solutions as Fraction lists."""
    ncols = len(matrix[0]) if matrix else 0
    columns = [[Poly.const(row[c]) for row in matrix] for c in range(ncols)]
    return dense(solve_many(columns, [[Poly.const(x) for x in col] for col in rhs_columns]), ncols)


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
            basis = dense(nullspace(m, cols), cols)
            assert len(basis) == cols - rank(m)
            for vec in basis:
                for row in m:
                    assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_solve_many_consistent_and_inconsistent(self):
        m = frac_matrix([[1, 1], [1, -1]])
        assert solve_constant(m, [[Fraction(2), Fraction(0)]]) == [[1, 1]]
        # Free variables are set to zero.
        assert solve_constant(frac_matrix([[1, 1], [2, 2]]), [[Fraction(1), Fraction(2)]]) == [[1, 0]]
        bad = frac_matrix([[1, 1], [2, 2]])
        assert solve_constant(bad, [[Fraction(1), Fraction(3)]]) is None
        # One inconsistent column makes the whole system inconsistent.
        assert solve_constant(bad, [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]]) is None

    def test_solve_many_on_polynomial_images(self):
        # a (1 + y) + 2 b y z = 3 + 3 y + 4 y z and 2 b y z = 4 y z hold
        # identically at a = 3, b = 2, and no a, b give z^2.
        y, z = Poly.variable(1), Poly.variable(2)
        one = Poly.const(1)
        columns = [[one + y, Poly.zero()], [y * z * 2, y * z * 2]]
        assert dense(solve_many(columns, [[one * 3 + y * 3 + y * z * 4, y * z * 4]]), 2) == [[3, 2]]
        assert solve_many(columns, [[z * z, Poly.zero()]]) is None
        assert dense(solve_many(columns, [[Poly.zero(), Poly.zero()]]), 2) == [[0, 0]]

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
            solutions = solve_constant(m, rhs)
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
        for h, space in dense_spaces(eig, 3):
            for vec in space:
                image = [sum(r * v for r, v in zip(row, vec)) for row in m]
                assert image == [h * v for v in vec]

    def test_irrational_eigenvalue_raises(self):
        with pytest.raises(ExactMathError):
            rational_eigenvalues(frac_matrix([[0, 2], [1, 0]]))

    def test_eigenvalue_with_large_denominator(self):
        small = Fraction(1, 10**6 + 3)
        eig = rational_eigenvalues(frac_matrix([[small, 0], [0, 2]]))
        assert dense_spaces(eig, 2) == [(small, [[1, 0]]), (2, [[0, 1]])]


class TestVanishingCombinations:
    def test_dependent_images(self):
        x, y = Poly.variable(0, 2), Poly.variable(1, 2)
        p, q = [x * y, Poly.const(3, 2)], [x - y, y * y]
        assert dense(vanishing_combinations([p, [-c for c in p], q]), 3) == [[1, 1, 0]]

    def test_zero_images_give_identity(self):
        zero = [Poly.zero(3)] * 2
        assert dense(vanishing_combinations([zero] * 3), 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

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

    def test_a_unit_vector_in_the_span_is_a_basis_member(self):
        # The basis has 1 at its own free column and 0 at the others, so a
        # unit vector in its span, as rank tells, is one of its vectors.
        rng = random.Random(75)
        x, y = Poly.variable(0, 2), Poly.variable(1, 2)
        monomials = [Poly.const(1, 2), x, y, x * y]
        members = 0
        for _ in range(60):
            images = []
            for _ in range(rng.randint(1, 7)):
                kind = rng.random()
                if kind < 0.2 or not images:
                    weights = [[random_entry(rng) if rng.random() < 0.5 else 0 for _ in monomials]
                               for _ in range(2)]
                    images.append([sum((w * p for w, p in zip(row, monomials)), Poly.zero(2))
                                   for row in weights])
                elif kind < 0.4:
                    images.append([Poly.zero(2)] * 2)
                else:
                    a, b = rng.choice(images), rng.choice(images)
                    u, v = random_entry(rng), random_entry(rng)
                    images.append([p * u + q * v for p, q in zip(a, b)])
            basis = dense(vanishing_combinations(images), len(images))
            for idx in range(len(images)):
                unit = [int(i == idx) for i in range(len(images))]
                in_span = rank(basis + [unit]) == rank(basis)
                assert in_span == (unit in basis)
                members += in_span
        assert members


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


def berkowitz_blocks(m):
    """char_poly's blocks by Berkowitz on every diagonal block, 1x1 blocks
    included: each block scaled to integers by its least common
    denominator d, run through ``_berkowitz`` and cleared."""
    sparse = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in m]
    blocks = []
    for component in linalg._strong_components([list(row) for row in sparse]):
        position = {g: p for p, g in enumerate(component)}
        block = [{position[j]: x for j, x in sparse[g].items() if j in position} for g in component]
        d = lcm(1, *(x.denominator for row in block for x in row.values()))
        coeffs = linalg._berkowitz([{j: int(x * d) for j, x in row.items()} for row in block])
        blocks.append(int_cleared([c * d ** k for k, c in enumerate(reversed(coeffs))]))
    return blocks


def diagonal_entry(rng):
    """Zero, negative, integer and p/q diagonal entries in turn."""
    return rng.choice([Fraction(0), Fraction(-rng.randint(1, 9)), Fraction(rng.randint(1, 9)),
                       Fraction(rng.randint(-9, 9), rng.randint(2, 7))])


class TestSingletonBlocks:
    """A 1x1 diagonal block is read off the diagonal; Berkowitz on the
    block, the route it replaces, is the oracle."""

    def test_triangular_matrices_never_run_berkowitz(self, monkeypatch):
        rng = random.Random(91)
        cases = []
        for n in range(1, 10):
            for _ in range(6):
                m = [[diagonal_entry(rng) if i == j else random_entry(rng) if j > i and rng.random() < 0.5
                      else Fraction(0) for j in range(n)] for i in range(n)]
                cases.append((m, berkowitz_blocks(m)))
        monkeypatch.setattr(linalg, "_berkowitz", lambda rows: pytest.fail("Berkowitz on a 1x1 block"))
        for m, expected in cases:
            assert char_poly(m) == expected
            assert [len(block) for block in expected] == [2] * len(m)

    def test_block_triangular_matrices_match_the_berkowitz_route(self):
        rng = random.Random(92)
        for trial in range(80):
            m = block_triangular(rng, 1 + trial % 9)
            for i in rng.sample(range(len(m)), len(m) // 2):
                m[i][i] = diagonal_entry(rng)
            assert char_poly(m) == berkowitz_blocks(m), m

    def test_lie_operators_match_the_berkowitz_route(self):
        # Every block of X3, D and I3 is 1x1; R3 has larger blocks too.
        for name in ("X3", "D", "I3", "R3"):
            operator = lie_operator(ckt_core.ckv_by_name(name))
            blocks = char_poly(operator)
            assert blocks == berkowitz_blocks(operator)
            assert (all(len(block) == 2 for block in blocks)) == (name != "R3")


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
    assert dense(basis, ncols) == dense_nullspace(m, ncols)
    # Sparse rows {column: value} are read as they are, zero rows included.
    assert nullspace([{j: x for j, x in enumerate(row) if x} for row in m], ncols) == basis
    columns = [[Poly.const(row[c]) for row in m] for c in range(ncols)]
    solved = [solve_many(columns, [[Poly.const(x) for x in col] for col in rhs]) for rhs in rhs_sets]
    results = [dense(vecs, ncols) for vecs in solved]
    assert results == [dense_solve_many(m, rhs) for rhs in rhs_sets]
    # The back-substitution hands out its integer numerators in their unique
    # form: the least common denominator, and the nonzero numerators at
    # increasing coordinates.
    for vec in basis + [vec for vecs in solved if vecs for vec in vecs]:
        coords = [c for c, _ in vec.entries]
        assert type(vec.den) is int and vec.den > 0 and coords == sorted(set(coords))
        assert all(type(n) is int and n for _, n in vec.entries)
        assert gcd(vec.den, *(n for _, n in vec.entries)) == 1
    return results


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
        assert dense(nullspace([], 3), 3) == dense_nullspace([], 3) == [
            [Fraction(i == j) for i in range(3)] for j in range(3)]
        assert nullspace([]) == []
        assert dense(solve_many([], [[], []]), 0) == dense_solve_many([], [[], []]) == [[], []]
        assert row_echelon([[0, 0], [Fraction(0), 0]]) == ([], [])
        assert dense(nullspace([[0, 0]]), 2) == [[1, 0], [0, 1]]

    def test_large_denominators(self):
        rng = random.Random(74)
        for _ in range(30):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = [[Fraction(rng.randint(-10 ** 25, 10 ** 25), rng.randint(1, 10 ** 30))
                  if rng.random() < 0.6 else Fraction(0) for _ in range(cols)] for _ in range(rows)]
            assert assert_parity(m, [images(rng, m, 2)])[0] is not None

    @pytest.mark.parametrize("name", ["X3", "D", "I3", "R3"])
    def test_assembly_matrix_against_lie_columns(self, name):
        # The oracle reads the images as dense vectors over their (component,
        # monomial) pairs.
        v = ckt_core.ckv_by_name(name)
        images = []
        for idx in range(ckt_core.DIM_TRACE_FREE):
            unit = [Fraction(0)] * ckt_core.DIM_TRACE_FREE
            unit[idx] = Fraction(1)
            images.append(ckt_core.lie_derivative(v, assemble_free(unit)).upper)
        a = ckt_core._assembly_matrix()
        solutions = solve_many(a, images)
        keys = sorted({(i, key) for image in (*a, *images) for i, p in enumerate(image) for key in p.terms})

        def dense_image(image):
            return [Fraction(image[i].terms.get(key, 0)) for i, key in keys]

        matrix = [list(row) for row in zip(*map(dense_image, a))]
        expected = dense_solve_many(matrix, [dense_image(im) for im in images])
        assert dense(solutions, ckt_core.DIM_TRACE_FREE) == expected
        assert rank(matrix) == ckt_core.DIM_TRACE_FREE


class TestReachBoundedNullBasis:
    """``_null_basis`` solves only the echelon rows reached from each free
    column; solving every row by descending pivot, and the dense Fraction
    back-substitution, are the oracles."""

    def test_seeded_sparse_matrices(self, monkeypatch):
        real, orders = linalg._back_substitute, []

        def recording(ech, pivots, x, rhs, order):
            orders.append((ech, pivots, dict(x), list(order)))
            return real(ech, pivots, x, rhs, orders[-1][3])

        monkeypatch.setattr(linalg, "_back_substitute", recording)
        rng = random.Random(93)
        solved = every = 0
        for trial in range(40):
            rows, cols = rng.randint(1, 30), rng.randint(1, 35)
            m = sparse_rational(rng, rows, cols, 1 + trial % 3)
            orders.clear()
            basis = nullspace(m, cols)
            assert dense(basis, cols) == dense_nullspace(m, cols)
            for vec, (ech, pivots, x, order) in zip(basis, orders):
                # The rows reached from the free column, by descending pivot.
                assert order == sorted(set(order), reverse=True)
                reached = set(x)
                for r in sorted(range(len(ech)), key=lambda r: -pivots[r]):
                    if any(c in reached for c in ech[r] if c != pivots[r]):
                        reached.add(pivots[r])
                assert reached == set(x) | {pivots[r] for r in order}
                assert vec == real(ech, pivots, x, [0] * len(ech), reversed(range(len(ech))))
                solved, every = solved + len(order), every + len(ech)
        assert solved < every


# ---------------------------------------------------------------------------
# rational_eigenvalues against its former implementation, which read the
# roots on the product of the blocks' polynomials and built a dense shifted
# Fraction matrix for every eigenvalue, here solved by the dense Fraction
# elimination above; the eigenspaces are compared as Fraction lists.


def dense_rational_eigenvalues(matrix):
    n = len(matrix)
    p = ints(block_product(matrix))
    roots = rational_roots(p)
    if real_root_count(p) != len(roots):
        raise ExactMathError("matrix has an irrational real eigenvalue; exact eigenspaces unavailable")
    out = []
    for r in sorted(roots):
        shifted = [[Fraction(matrix[i][j]) - (r if i == j else 0) for j in range(n)] for i in range(n)]
        space = dense_nullspace(shifted, n)
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
        operator = lie_operator(ckt_core.ckv_by_name(name))
        expected = dense_rational_eigenvalues(operator)
        assert dense_spaces(rational_eigenvalues(operator), len(operator)) == expected

    def test_random_mixed_denominators(self):
        rng = random.Random(81)
        pool = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(7, 6), Fraction(-3, 10), 2]
        for _ in range(40):
            eigenvalues = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            m = conjugated(rng, triangular(rng, eigenvalues))
            result = rational_eigenvalues(m)
            assert dense_spaces(result, len(m)) == dense_rational_eigenvalues(m)
            # Sparse rows {column: value} are read as they are.
            rows = [{j: x for j, x in enumerate(row) if x} for row in m]
            assert rational_eigenvalues(rows) == result and char_poly(rows) == char_poly(m)
            assert [h for h, _ in result] == sorted(set(eigenvalues))
            for h, space in dense_spaces(result, len(m)):
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
        assert dense_spaces(result, 6) == dense_rational_eigenvalues(m)
        for h, space in dense_spaces(result, 6):
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


def nonzero_entry(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 5))


def two_by_two(rng, lam, mu):
    """An irreducible 2x2 block with eigenvalues lam and mu: [[lam, b], [0,
    mu]] conjugated by [[1, 0], [k, 1]], both off-diagonal entries
    nonzero."""
    while True:
        b, k = nonzero_entry(rng), nonzero_entry(rng)
        if k * (lam - mu - k * b):
            return [[lam - b * k, b], [k * (lam - mu - k * b), k * b + mu]]


def coupled(rng, blocks, links=(), density=0.3):
    """The square blocks on the diagonal in order, each row coupled at random
    to the columns of earlier blocks, so that the graph i -> j for a_ij != 0
    runs from later blocks to earlier ones; each (later, earlier) pair of
    block indices in links gets at least one coupling.  Scattered by a
    random permutation."""
    starts = [0]
    for block in blocks:
        starts.append(starts[-1] + len(block))
    n = starts[-1]
    m = [[Fraction(0)] * n for _ in range(n)]
    for b, block in enumerate(blocks):
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                m[starts[b] + i][starts[b] + j] = Fraction(x)
            for j in range(starts[b]):
                if rng.random() < density:
                    m[starts[b] + i][j] = nonzero_entry(rng)
    for later, earlier in links:
        m[rng.randrange(starts[later], starts[later + 1])][rng.randrange(starts[earlier], starts[earlier + 1])] = \
            nonzero_entry(rng)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def reaches(m):
    """reach[i][j]: a path i -> ... -> j of nonzero entries, or i == j."""
    n = len(m)
    reach = [[i == j or bool(m[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return reach


def reached_columns(m, h):
    """The vertices that reach a diagonal block with root h: the blocks are
    the strongly connected components of ``reaches``, and the block S has
    root h when det(A_SS - h I) = 0."""
    n, reach = len(m), reaches(m)
    holders = []
    for j in range(n):
        block = [k for k in range(n) if reach[j][k] and reach[k][j]]
        if bareiss_det([[m[a][b] - (h if a == b else 0) for b in block] for a in block]) == 0:
            holders.append(j)
    return [i for i in range(n) if any(reach[i][j] for j in holders)]


class TestRestrictedEigenspaces:
    """``rational_eigenvalues`` solves each eigenvalue on the vertices that
    reach a block with that root; the dense Fraction route, which solves
    every row, is the oracle."""

    @staticmethod
    def recorded(monkeypatch):
        real, calls = linalg._null_basis, []

        def recording(rows, columns):
            calls.append((rows, list(columns)))
            return real(rows, columns)

        monkeypatch.setattr(linalg, "_null_basis", recording)
        return calls

    def assert_restricted(self, m, calls):
        calls.clear()
        result = rational_eigenvalues(m)
        assert dense_spaces(result, len(m)) == dense_rational_eigenvalues(m)
        assert len(calls) == len(result)
        for (h, _), (rows, columns) in zip(result, calls):
            assert columns == reached_columns(m, h)
            assert all(set(row) <= set(columns) for row in rows)
        return result, calls

    def test_seeded_block_triangular_matrices(self, monkeypatch):
        # 1x1 blocks from a small pool, so that one eigenvalue sits in
        # several blocks, upstream and downstream of the others; 2x2 blocks
        # with rational eigenvalues, and irreducible t^2 + c^2 blocks.
        calls = self.recorded(monkeypatch)
        rng = random.Random(351)
        pool = [Fraction(0), Fraction(1, 2), Fraction(-2), Fraction(3)]
        solved = every = 0
        for trial in range(60):
            blocks = []
            while len(blocks) < 2 + trial % 7:
                kind = rng.random()
                if kind < 0.6:
                    blocks.append([[rng.choice(pool)]])
                elif kind < 0.8:
                    blocks.append(two_by_two(rng, rng.choice(pool), rng.choice(pool)))
                else:
                    c = nonzero_entry(rng)
                    blocks.append([[0, -c], [c, 0]])
            m = coupled(rng, blocks)
            result, _ = self.assert_restricted(m, calls)
            solved += sum(len(columns) for _, columns in calls)
            every += len(m) * len(result)
        assert solved < every

    def test_rotation_blocks_feeding_a_zero_block(self, monkeypatch):
        # t^2 + 1 has no real root, yet the eigenvector of 0 is nonzero on
        # the rotation block upstream of the zero block.
        calls = self.recorded(monkeypatch)
        rng = random.Random(352)
        for trial in range(20):
            blocks = [[[0]], [[0, -1], [1, 0]], [[Fraction(1, 2)]], [[0, -2], [2, 0]]]
            m = coupled(rng, blocks, links=[(1, 0), (3, 1), (3, 2)], density=0.1)
            result, _ = self.assert_restricted(m, calls)
            (h, space), = [(h, space) for h, space in dense_spaces(result, len(m)) if h == 0]
            assert len(space) == 1 and sum(1 for x in space[0] if x) >= 2

    def test_jordan_chains(self, monkeypatch):
        # Chains of 1x1 blocks with one eigenvalue, each coupled to the
        # next, beside and between blocks of other eigenvalues.
        calls = self.recorded(monkeypatch)
        rng = random.Random(353)
        for trial in range(30):
            lam, other = rng.sample([Fraction(0), Fraction(-1, 3), Fraction(2), Fraction(5, 2)], 2)
            length = 2 + trial % 4
            blocks = [[[lam]] for _ in range(length)]
            blocks.insert(rng.randrange(length + 1), [[other]])
            chain = [b for b, block in enumerate(blocks) if block == [[lam]]]
            m = coupled(rng, blocks, links=list(zip(chain[1:], chain)), density=0.15)
            result, _ = self.assert_restricted(m, calls)
            assert len(dict(dense_spaces(result, len(m)))[lam]) < length

    def test_diagonal_operator_solves_empty_rows(self, monkeypatch):
        # L_D scales each homogeneous part: its operator is diagonal, so each
        # eigenvalue reaches its own coordinates alone, and every shifted row
        # there is zero.
        calls = self.recorded(monkeypatch)
        operator = lie_operator(ckt_core.ckv_by_name("D"))
        result, _ = self.assert_restricted(operator, calls)
        assert [rows for rows, _ in calls] == [[]] * 5
        assert sorted(c for _, columns in calls for c in columns) == list(range(35))


# The eight scans of the benchmark and of ``rotweb symmetry``.
SCANS = [(name, mode) for name in ("X3", "D", "I3", "R3") for mode in ("h_zero", "h_constant")]


@pytest.mark.parametrize("name,mode", SCANS, ids=[f"{n} {m}" for n, m in SCANS])
def test_scan_vectors_match_the_dense_fraction_oracle(name, mode):
    # Every basis vector of a scan, converted to Fractions, is the
    # nullspace or eigenspace vector that dense Fraction elimination finds
    # on the dense operator, and the scans hand on the integer form alone.
    v = ckt_core.ckv_by_name(name)
    operator = lie_operator(v)
    if mode == "h_zero":
        kernel = dense_nullspace(operator, 35)
        expected = [(0, kernel)] if kernel else []
    else:
        expected = dense_rational_eigenvalues(operator)
    spaces = ckt_core.symmetry_subspace(v, mode)
    assert dense_spaces(spaces, 35) == expected
    assert all(type(vec) is linalg.Numerators for _, space in spaces for vec in space)
