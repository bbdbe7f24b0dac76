"""Exact linear algebra over the rationals.

Elimination works on sparse integer rows, ``{column: value}`` dicts over the
nonzero entries: each row is cleared to integers once, the columns are taken
from the left, the pivot is the row with the fewest nonzeros, and each
combined row is divided by its gcd, so every entry stays an int.
A polynomial identity that is linear in some unknowns becomes one such row
per (component, monomial) in ``vanishing_combinations``.
The characteristic polynomial runs Berkowitz's division-free algorithm on
the same rows, per diagonal block of the matrix's block-triangular form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactmath import ExactMathError, Poly, int_cleared, rational_roots, real_root_count

Row = dict  # sparse row: {column: value} over the nonzero entries


def _sparse(row: Sequence) -> Row:
    return {j: x for j, x in enumerate(row) if x}


def _scaled(row: Row, d: int) -> Row:
    """The rational row times d, a common multiple of its denominators."""
    return {j: x.numerator * (d // x.denominator) for j, x in row.items()}


def _primitive(row: Row) -> Row:
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _echelon(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Echelon form of nonzero sparse rational rows: the pivot rows as
    primitive integer rows, each with its pivot column as its leftmost entry,
    and the pivot columns, which are the leftmost independent columns.

    An unused row has no entry left of the current column, so the rows with
    a nonzero in it are exactly those whose leftmost entry is there.
    """
    by_lead: dict[int, list[Row]] = {}
    for row in rows:
        row = _primitive(_scaled(row, lcm(*(x.denominator for x in row.values()))))
        by_lead.setdefault(min(row), []).append(row)
    ech: list[Row] = []
    pivots: list[int] = []
    while by_lead:
        col = min(by_lead)
        candidates = by_lead.pop(col)
        top = min(candidates, key=len)
        candidates.remove(top)
        p = top[col]
        for row in candidates:
            g = gcd(p, row[col])
            a, b = p // g, row[col] // g
            new = {j: v for j in row.keys() | top.keys() if (v := row.get(j, 0) * a - top.get(j, 0) * b)}
            if new:
                by_lead.setdefault(min(new), []).append(_primitive(new))
        ech.append(top)
        pivots.append(col)
    return ech, pivots


def row_echelon(matrix: Sequence[Sequence]) -> tuple[list[Row], list[int]]:
    """Row echelon form by sparse integer elimination.  Returns the pivot
    rows as sparse integer rows ``{column: value}`` and the list of pivot
    columns.  Row scaling does not change the row space or null space.
    """
    return _echelon([row for row in map(_sparse, matrix) if row])


def _back_substitute(ech: list[Row], pivots: list[int], x: list[int],
                     rhs: Sequence[int]) -> list[Fraction]:
    """Set the pivot entries of x so that each echelon row r satisfies
    ech[r] . x = rhs[r] over the columns of x; the free entries of x, ints,
    are kept as given.

    Fraction-free: the entries are integer numerators over one common
    denominator, which each pivot multiplies by the least factor that keeps
    them integers, and are divided by it once at the end."""
    n = len(x)
    den = 1
    for r in range(len(ech) - 1, -1, -1):
        row, pc = ech[r], pivots[r]
        s = rhs[r] * den - sum(v * x[c] for c, v in row.items() if c != pc and c < n and x[c])
        p = row[pc]
        g = gcd(s, p) if p > 0 else -gcd(s, p)
        if (scale := p // g) != 1:
            den *= scale
            x = [v * scale for v in x]
        x[pc] = s // g
    zero = Fraction(0)
    return [Fraction(v, den) if v else zero for v in x]


def _null_basis(rows: list[Row], ncols: int) -> list[list[Fraction]]:
    ech, pivots = _echelon(rows)
    zeros = [0] * len(ech)
    is_pivot = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc not in is_pivot:
            vec = [0] * ncols
            vec[fc] = 1
            basis.append(_back_substitute(ech, pivots, vec, zeros))
    return basis


def nullspace(matrix: Sequence[Sequence], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right null space, as Fraction vectors: one per free
    column, with that entry 1 and the other free entries 0."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    return _null_basis([row for row in map(_sparse, matrix) if row], ncols)


def vanishing_combinations(images: Sequence[Sequence[Poly]]) -> list[list[Fraction]]:
    """Basis, in the normal form of ``nullspace``, of the vectors x with
    sum_c x_c images[c] = 0 identically, where each image is a sequence of
    polynomial components.  Each (component, monomial) pair is one row of
    the system, keyed by the packed monomial of ``Poly.terms``."""
    rows: dict = {}
    for c, image in enumerate(images):
        for i, poly in enumerate(image):
            for key, coeff in poly.terms.items():
                rows.setdefault((i, key), {})[c] = coeff
    return _null_basis(list(rows.values()), len(images))


def solve_many(matrix: Sequence[Sequence], rhs_columns: Sequence[Sequence]) -> list[list[Fraction]] | None:
    """Solve A X = B column by column over a single elimination of A, with
    free variables set to zero.

    Returns the solution columns, or None if any column is inconsistent.
    """
    ncols = len(matrix[0]) if matrix else 0
    aug = []
    for i, row in enumerate(matrix):
        entries = _sparse(row)
        for j, col in enumerate(rhs_columns):
            if col[i]:
                entries[ncols + j] = col[i]
        if entries:
            aug.append(entries)
    ech, pivots = _echelon(aug)
    if any(p >= ncols for p in pivots):
        return None
    return [_back_substitute(ech, pivots, [0] * ncols, [row.get(ncols + j, 0) for row in ech])
            for j in range(len(rhs_columns))]


def extended_coordinates(basis: Sequence[Sequence], vectors: Sequence[Sequence]) -> list[Row]:
    """Coordinates of each of ``vectors`` in a basis of the span of both
    lists: the independent columns ``basis`` first, then the leftmost of
    ``vectors`` outside the span of those before them.

    Entry j is a sparse dict: key r < n = len(basis) holds the coefficient
    of basis[r], key n + p that of vectors[p].  So sum_j w_j vectors[j] lies
    in span(basis) iff sum_j w_j coords[j] has no nonzero key >= n, and its
    keys < n are then its coordinates in ``basis``.  One elimination of the
    columns [basis | vectors].
    """
    n = len(basis)
    cols = [*basis, *vectors]
    rows = [{c: col[i] for c, col in enumerate(cols) if col[i]} for i in range(len(cols[0]))]
    ech, pivots = _echelon([row for row in rows if row])
    if pivots[:n] != list(range(n)):
        raise ExactMathError("basis columns are linearly dependent")
    is_pivot = set(pivots)
    zeros = [0] * len(ech)
    coords = []
    for c in range(n, len(cols)):
        if c in is_pivot:
            coords.append({c: Fraction(1)})
            continue
        # Free column c: the null vector x with x[c] = 1 expands
        # vectors[c - n] as -sum_p x[p] (column p) over the pivot columns.
        x = [0] * len(cols)
        x[c] = 1
        x = _back_substitute(ech, pivots, x, zeros)
        coords.append({p: -x[p] for p in pivots if x[p]})
    return coords


def rank(matrix: Sequence[Sequence]) -> int:
    return len(row_echelon(matrix)[1])


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


def _berkowitz(rows: list[Row]) -> list[int]:
    """Coefficients of det(t*I - B), highest degree first, for an integer
    matrix B given as sparse integer rows; division-free, so the
    arithmetic stays in Python ints."""
    poly = [1]
    for k in range(len(rows)):
        # A_k is the leading k x k block, R the row below it, C the column
        # to its right; the Toeplitz column is 1, -b_kk, -R C, -R A_k C, ...
        lead = [[(j, v) for j, v in rows[i].items() if j < k] for i in range(k)]
        r = [(j, v) for j, v in rows[k].items() if j < k]
        vec = [rows[i].get(k, 0) for i in range(k)]
        col = [1, -rows[k].get(k, 0)]
        for step in range(k):
            if step:
                vec = [sum(v * vec[j] for j, v in row) for row in lead]
            col.append(-sum(v * vec[j] for j, v in r))
        poly = [sum(col[i - j] * poly[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return poly


def char_poly(matrix: Sequence[Sequence]) -> list[list[int]]:
    """det(t*I - A) as one primitive integer polynomial per diagonal block,
    low degree first with a positive leading coefficient; their product is
    a positive multiple of det(t*I - A).

    The blocks are the strongly connected components of the graph i -> j
    for a[i][j] != 0, along which the matrix is block triangular.  Each is
    scaled to integers by the least common denominator d of its entries and
    run through Berkowitz's division-free algorithm: the block of size m
    times d^m has the coefficient c_i(d A) d^(m-i) at t^(m-i).
    """
    sparse = [_sparse(row) for row in matrix]
    blocks = []
    for component in _strong_components([list(row) for row in sparse]):
        position = {g: p for p, g in enumerate(component)}
        block = [{position[j]: x for j, x in sparse[g].items() if j in position} for g in component]
        d = lcm(1, *(x.denominator for row in block for x in row.values()))
        coeffs = _berkowitz([_scaled(row, d) for row in block])
        blocks.append(int_cleared([c * d ** k for k, c in enumerate(reversed(coeffs))]))
    return blocks


def rational_eigenvalues(matrix: Sequence[Sequence]) -> list[tuple[Fraction, list[list[Fraction]]]]:
    """All real eigenvalues of a rational matrix, with exact eigenspaces.

    Every real eigenvalue must be rational (true for the operators this
    package diagonalizes); an irrational real eigenvalue raises, it is never
    silently dropped.

    The spectrum is the union of the diagonal blocks', so the roots are
    read on each distinct block polynomial of ``char_poly``.  The matrix is
    cleared once to sparse integer rows M = d A; for an eigenvalue p/q the
    rows q M - d p I span the row space of A - (p/q) I, so only the
    diagonal changes from one eigenvalue to the next.
    """
    n = len(matrix)
    roots = set()
    for block in {tuple(block): block for block in char_poly(matrix)}.values():
        found = rational_roots(block)
        # The roots are distinct and real, so a missed real root shows in the count.
        if real_root_count(block) != len(found):
            raise ExactMathError("matrix has an irrational real eigenvalue; exact eigenspaces unavailable")
        roots.update(found)
    sparse = [_sparse(row) for row in matrix]
    d = lcm(1, *(x.denominator for row in sparse for x in row.values()))
    cleared = [_scaled(row, d) for row in sparse]
    out = []
    for r in sorted(roots):
        shift = d * r.numerator
        rows = []
        for i, row in enumerate(cleared):
            shifted = {j: r.denominator * x for j, x in row.items()}
            if diag := shifted.get(i, 0) - shift:
                shifted[i] = diag
            else:
                shifted.pop(i, None)
            if shifted:
                rows.append(shifted)
        space = _null_basis(rows, n)
        if space:
            out.append((r, space))
    return out
