"""Exact linear algebra over the rationals.

Elimination clears each row to integers and then runs fraction-free
(Bareiss) Gaussian elimination, so all intermediate quantities stay
integral; back-substitution reintroduces fractions only at the end.
The characteristic polynomial uses Berkowitz's division-free algorithm.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .exactmath import ExactMathError, UniPoly, rational_roots, real_root_count

Matrix = list[list]


def _clear_row(row: Sequence) -> list[int]:
    l = 1
    for c in row:
        if isinstance(c, Fraction):
            l = lcm(l, c.denominator)
    out = []
    for c in row:
        v = c * l
        out.append(int(v) if not isinstance(v, int) else v)
    return out


def row_echelon(matrix: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Fraction-free row echelon form.  Returns integer rows and the list of
    pivot columns.  Row scaling does not change the row space or null space.
    """
    rows = [_clear_row(r) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    rank = 0
    prev_pivot = 1
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            row = rows[r]
            top = rows[rank]
            for c in range(ncols):
                num = row[c] * p - f * top[c]
                q, rem = divmod(num, prev_pivot)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row[c] = q
        prev_pivot = p
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _back_substitute(ech: Matrix, pivots: list[int], x: list, rhs: Sequence) -> list:
    """Set the pivot entries of x so that each echelon row r satisfies
    ech[r] . x = rhs[r]; the free entries of x are kept as given."""
    for r in range(len(ech) - 1, -1, -1):
        pc = pivots[r]
        s = Fraction(rhs[r])
        for c in range(pc + 1, len(x)):
            if x[c]:
                s -= ech[r][c] * x[c]
        x[pc] = s / ech[r][pc]
    return x


def nullspace(matrix: Sequence[Sequence], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right null space, as Fraction vectors: one per free
    column, with that entry 1 and the other free entries 0."""
    if not matrix:
        if ncols is None:
            return []
        return [[Fraction(i == j) for i in range(ncols)] for j in range(ncols)]
    ncols = len(matrix[0]) if ncols is None else ncols
    ech, pivots = row_echelon(matrix)
    zeros = [0] * len(ech)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            basis.append(_back_substitute(ech, pivots, vec, zeros))
    return basis


def solve_many(matrix: Sequence[Sequence], rhs_columns: Sequence[Sequence]) -> list[list[Fraction]] | None:
    """Solve A X = B column by column over a single elimination of A, with
    free variables set to zero.

    Returns the solution columns, or None if any column is inconsistent.
    """
    ncols = len(matrix[0]) if matrix else 0
    aug = [list(row) + [col[i] for col in rhs_columns] for i, row in enumerate(matrix)]
    ech, pivots = row_echelon(aug)
    if any(p >= ncols for p in pivots):
        return None
    return [_back_substitute(ech, pivots, [Fraction(0)] * ncols, [row[ncols + j] for row in ech])
            for j in range(len(rhs_columns))]


def rank(matrix: Sequence[Sequence]) -> int:
    if not matrix:
        return 0
    return len(row_echelon(matrix)[0])


def char_poly(matrix: Sequence[Sequence]) -> UniPoly:
    """Characteristic polynomial det(t*I - A) by Berkowitz's division-free
    algorithm, exact over the rationals.
    """
    n = len(matrix)
    if n == 0:
        return UniPoly([1])
    a = [[Fraction(x) for x in row] for row in matrix]
    # Vector of polynomial coefficients, highest degree first.
    poly = [Fraction(1), -a[0][0]]
    for k in range(1, n):
        # Principal submatrix A_k is a[:k+1][:k+1]; build the Toeplitz column.
        r = [a[k][j] for j in range(k)]       # row below the principal block
        c = [a[j][k] for j in range(k)]       # column right of the block
        block = [row[:k] for row in a[:k]]
        # entries s_i = R * A_{k-1}^{i} * C
        s = [sum(r[j] * c[j] for j in range(k))]
        vec = c
        for _ in range(k - 1):
            vec = [sum(block[i][j] * vec[j] for j in range(k)) for i in range(k)]
            s.append(sum(r[j] * vec[j] for j in range(k)))
        # Toeplitz multiply: new_poly has length k+2.
        col = [Fraction(1), -a[k][k]] + [-si for si in s]
        new = [Fraction(0)] * (k + 2)
        for i in range(k + 2):
            total = Fraction(0)
            for j in range(min(i, len(poly) - 1) + 1):
                if i - j < len(col):
                    total += col[i - j] * poly[j]
            new[i] = total
        poly = new
    return UniPoly(list(reversed(poly)))


def rational_eigenvalues(matrix: Sequence[Sequence]) -> list[tuple[Fraction, list[list[Fraction]]]]:
    """All real eigenvalues of a rational matrix, with exact eigenspaces.

    Every real eigenvalue must be rational (true for the operators this
    package diagonalizes); an irrational real eigenvalue raises, it is never
    silently dropped.
    """
    n = len(matrix)
    p = char_poly(matrix)
    roots = rational_roots(p)
    # Certify completeness: after deflating the rational roots (with
    # multiplicity), the remaining factor must have no real roots.
    residual = p
    for r in roots:
        lin = UniPoly([-r, 1])
        while True:
            q, rem = divmod(residual, lin)
            if rem.is_zero:
                residual = q
            else:
                break
    if not residual.is_zero and residual.degree > 0 and real_root_count(residual) > 0:
        raise ExactMathError("matrix has an irrational real eigenvalue; exact eigenspaces unavailable")
    out = []
    for r in sorted(roots):
        shifted = [[Fraction(matrix[i][j]) - (r if i == j else 0) for j in range(n)] for i in range(n)]
        space = nullspace(shifted, n)
        if space:
            out.append((r, space))
    return out
