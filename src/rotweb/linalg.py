"""Exact linear algebra over the rationals.

Elimination clears each row to integers and then runs fraction-free
(Bareiss) Gaussian elimination, so all intermediate quantities stay
integral; back-substitution reintroduces fractions only at the end.
The characteristic polynomial splits the matrix into the diagonal blocks of
its block-triangular form (the strongly connected components of its
sparsity graph) and runs Berkowitz's division-free algorithm on each block
in Python ints, after clearing the block's denominators.
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


def _reach(start: int, edges: list[list[int]]) -> set[int]:
    seen = {start}
    todo = [start]
    while todo:
        for w in edges[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _strong_components(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of the graph with edges i -> j for j in
    succ[i]: the component of v is what v reaches and what reaches v."""
    pred: list[list[int]] = [[] for _ in succ]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    assigned: set[int] = set()
    components = []
    for v in range(len(succ)):
        if v not in assigned:
            component = sorted(_reach(v, succ) & _reach(v, pred))
            assigned.update(component)
            components.append(component)
    return components


def _berkowitz(rows: list[list[tuple[int, int]]]) -> list[int]:
    """Coefficients of det(t*I - B), highest degree first, for an integer
    matrix B given as sparse rows of (column, value); division-free, so the
    arithmetic stays in Python ints."""
    poly = [1]
    for k in range(len(rows)):
        # A_k is the leading k x k block, R the row below it, C the column
        # to its right; the Toeplitz column is 1, -b_kk, -R C, -R A_k C, ...
        lead = [[(j, v) for j, v in rows[i] if j < k] for i in range(k)]
        r = [(j, v) for j, v in rows[k] if j < k]
        diag = sum(v for j, v in rows[k] if j == k)
        vec = [sum(v for j, v in rows[i] if j == k) for i in range(k)]
        col = [1, -diag]
        for step in range(k):
            if step:
                vec = [sum(v * vec[j] for j, v in row) for row in lead]
            col.append(-sum(v * vec[j] for j, v in r))
        poly = [sum(col[i - j] * poly[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return poly


def char_poly(matrix: Sequence[Sequence]) -> UniPoly:
    """Characteristic polynomial det(t*I - A), exact over the rationals.

    The indices are split into the strongly connected components of the
    graph i -> j for a[i][j] != 0; ordered along that graph the matrix is
    block triangular, so the polynomial is the product of the diagonal
    blocks'.  Each block is scaled to integers by the least common
    denominator d of its entries and run through Berkowitz's division-free
    algorithm: the coefficient of t^(m-i) of a block of size m is
    c_i(d A) / d^i.  A fully connected matrix is one block.
    """
    sparse = [[(j, Fraction(x)) for j, x in enumerate(row) if x] for row in matrix]
    result = UniPoly([1])
    for component in _strong_components([[j for j, _ in row] for row in sparse]):
        position = {g: p for p, g in enumerate(component)}
        block = [[(position[j], x) for j, x in sparse[g] if j in position] for g in component]
        d = lcm(1, *(x.denominator for row in block for _, x in row))
        coeffs = _berkowitz([[(j, x.numerator * (d // x.denominator)) for j, x in row] for row in block])
        result = result * UniPoly([Fraction(coeffs[i], d ** i) for i in range(len(component), -1, -1)])
    return result


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
