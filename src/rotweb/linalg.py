"""Exact linear algebra over the rationals.

Elimination works on sparse integer rows, ``{column: value}`` dicts over the
nonzero entries: each row is cleared to integers once, the columns are taken
from the left, the pivot is the row with the fewest nonzeros, and each
combined row is divided by its gcd, so every entry stays an int.  Its
solutions stay integers too: each is handed out as ``Numerators``, integer
numerators over one denominator at the nonzero coordinates.
A polynomial identity that is linear in some unknowns becomes one such row
per (component, monomial) (``_identity_rows``), which both
``vanishing_combinations`` and ``solve_many`` eliminate.
The characteristic polynomial runs Berkowitz's division-free algorithm on
the same rows, per diagonal block of the matrix's block-triangular form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .exactmath import ExactMathError, Poly, int_cleared, rational_roots, real_root_count

Row = dict  # sparse row: {column: value} over the nonzero entries


class Numerators(NamedTuple):
    """A rational vector as integer numerators over one denominator: den,
    the least common denominator of its entries, and entries, the
    (coordinate, numerator) pairs at its nonzero coordinates in coordinate
    order; the entry at coordinate c is numerator / den.  The form is
    unique, so two vectors are equal iff their forms are."""

    den: int
    entries: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, values: Sequence) -> Numerators:
        """The form of a dense vector of ints and Fractions."""
        den = lcm(*(x.denominator for x in values if x))
        return cls(den, tuple((c, x.numerator * (den // x.denominator)) for c, x in enumerate(values) if x))

    def dense(self, n: int) -> list[Fraction]:
        """The vector as n Fractions."""
        values = dict(self.entries)
        return [Fraction(values.get(c, 0), self.den) for c in range(n)]


def _sparse(row: Sequence) -> Row:
    return {j: x for j, x in enumerate(row) if x}


def _rows(matrix: Sequence[Sequence | Row]) -> list[Row]:
    """The rows of a matrix as sparse rows: a dense row is made sparse, and
    a ``Row`` is read as it is."""
    return [row if type(row) is dict else _sparse(row) for row in matrix]


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
        if not all(x.__class__ is int for x in row.values()):
            row = _scaled(row, lcm(*(x.denominator for x in row.values())))
        row = _primitive(row)
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


def _back_substitute(ech: list[Row], pivots: list[int], x: dict, rhs: Sequence[int],
                     order: Sequence[int]) -> Numerators:
    """x, given as a dict {column: int} of its nonzero entries, with its
    pivot entries solved so that each echelon row r of order, visited in
    that order (descending), satisfies ech[r] . x = rhs[r] over the columns
    of x; the entries given are kept, and the rows not in order must hold
    already.

    Fraction-free: the entries are integer numerators over one common
    denominator, which each pivot multiplies by the least factor that keeps
    them integers; so it stays the least common denominator of the
    entries."""
    den = 1
    for r in order:
        row, pc = ech[r], pivots[r]
        s = rhs[r] * den - sum(v * x[c] for c, v in row.items() if c in x)
        if s:
            p = row[pc]
            g = gcd(s, p) if p > 0 else -gcd(s, p)
            if (scale := p // g) != 1:
                den *= scale
                x = {c: v * scale for c, v in x.items()}
            x[pc] = s // g
    return Numerators(den, tuple(sorted(x.items())))


def _null_basis(rows: list[Row], columns: Sequence[int]) -> list[Numerators]:
    """The basis of ``nullspace`` over the unknowns at columns, in increasing
    order, which hold every entry of the rows.  For free column fc, x[fc] = 1
    and only the echelon rows reached from fc are solved, by descending
    pivot: those with an entry at fc or at the pivot of a reached row
    (Gilbert and Peierls' sparse triangular solve); the others have a zero
    pivot entry."""
    ech, pivots = _echelon(rows)
    row_of = {pc: r for r, pc in enumerate(pivots)}
    reaches: dict[int, list[int]] = {c: [] for c in columns}
    for row, pc in zip(ech, pivots):
        for c in row:
            if c != pc:
                reaches[c].append(pc)
    zeros = [0] * len(ech)
    return [_back_substitute(ech, pivots, {fc: 1}, zeros,
                             sorted((row_of[c] for c in _reach(fc, reaches) if c != fc), reverse=True))
            for fc in columns if fc not in row_of]


def nullspace(matrix: Sequence[Sequence | Row], ncols: int | None = None) -> list[Numerators]:
    """Basis of the right null space, as ``Numerators``: one per free
    column, with that entry 1 and the other free entries 0.  The rows may
    be dense or sparse (``_rows``); a matrix of sparse rows needs ncols."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    return _null_basis([row for row in _rows(matrix) if row], range(ncols))


def _identity_rows(images: Sequence[Sequence[Poly]]) -> list[Row]:
    """The system sum_c x_c images[c] = 0 identically, where each image is
    a sequence of polynomial components: one sparse row {c: coefficient}
    per (component, monomial) pair, keyed by the packed monomial of
    ``Poly.terms``."""
    rows: dict = {}
    for c, image in enumerate(images):
        for i, poly in enumerate(image):
            for key, coeff in poly.terms.items():
                rows.setdefault((i, key), {})[c] = coeff
    return list(rows.values())


def vanishing_combinations(images: Sequence[Sequence[Poly]]) -> list[Numerators]:
    """Basis, in the normal form of ``nullspace``, of the vectors x with
    sum_c x_c images[c] = 0 identically (``_identity_rows``)."""
    return _null_basis(_identity_rows(images), range(len(images)))


def combination(weights: Numerators, images: Sequence[Sequence[Poly]]) -> list[Poly]:
    """den sum_c weights[c] images[c], component by component, from the
    integer numerators of the weights: zero iff the weights are a vanishing
    combination, which certifies a solution of ``vanishing_combinations``
    exactly."""
    one = Poly.const(1, images[0][0].nvars)
    return [Poly.dot(one.nvars, [(n, one, images[c][r]) for c, n in weights.entries])
            for r in range(len(images[0]))]


def solve_many(columns: Sequence[Sequence[Poly]],
               rhs: Sequence[Sequence[Poly]]) -> list[Numerators] | None:
    """Solve sum_c x_c columns[c] = rhs[j] identically for every j over a
    single elimination, with free variables set to zero; the images are
    read as in ``vanishing_combinations``, rhs[j] in column len(columns) + j.

    Returns the solutions as ``Numerators``, or None if any is inconsistent.
    """
    ncols = len(columns)
    ech, pivots = _echelon(_identity_rows([*columns, *rhs]))
    if any(p >= ncols for p in pivots):
        return None
    return [_back_substitute(ech, pivots, {}, [row.get(ncols + j, 0) for row in ech], reversed(range(len(ech))))
            for j in range(len(rhs))]


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


def _blocks(sparse: list[Row]) -> list[tuple[list[int], list[int]]]:
    """The diagonal blocks of the matrix's block-triangular form, each as its
    vertices and its polynomial in the form of ``char_poly``."""
    blocks = []
    for component in _strong_components([list(row) for row in sparse]):
        if len(component) == 1:
            a = sparse[component[0]].get(component[0], 0)
            blocks.append((component, [-a.numerator, a.denominator]))
            continue
        position = {g: p for p, g in enumerate(component)}
        block = [{position[j]: x for j, x in sparse[g].items() if j in position} for g in component]
        d = lcm(1, *(x.denominator for row in block for x in row.values()))
        coeffs = _berkowitz([_scaled(row, d) for row in block])
        blocks.append((component, int_cleared([c * d ** k for k, c in enumerate(reversed(coeffs))])))
    return blocks


def char_poly(matrix: Sequence[Sequence | Row]) -> list[list[int]]:
    """det(t*I - A) as one primitive integer polynomial per diagonal block,
    low degree first with a positive leading coefficient; their product is
    a positive multiple of det(t*I - A).

    The blocks are the strongly connected components of the graph i -> j
    for a[i][j] != 0, along which the matrix is block triangular.  A 1x1
    block {i} is t - a_ii, read off the diagonal as q t - p for a_ii = p/q.
    A larger one is scaled to integers by the least common denominator d of
    its entries and run through Berkowitz's division-free algorithm: the
    block of size m times d^m has the coefficient c_i(d A) d^(m-i) at
    t^(m-i) (``_blocks``).  The rows may be dense or sparse (``_rows``).
    """
    return [poly for _, poly in _blocks(_rows(matrix))]


def rational_eigenvalues(matrix: Sequence[Sequence | Row]) -> list[tuple[Fraction, list[Numerators]]]:
    """All real eigenvalues of a rational matrix, with exact eigenspaces as ``nullspace`` gives them.

    Every real eigenvalue must be rational (true for the operators this
    package diagonalizes); an irrational real eigenvalue raises, it is never
    silently dropped.

    The spectrum is the union of the diagonal blocks' (``_blocks``): a 1x1
    block [-p, q] has the root p/q, and the roots of a larger one are read
    on each distinct block polynomial.  The matrix is cleared once to
    sparse integer rows M = d A; for an eigenvalue p/q the rows q M - d p I
    span the row space of A - (p/q) I, so only the diagonal changes from one
    eigenvalue to the next.

    Each eigenvalue h is solved on the rows and columns of R alone, the
    vertices that reach a block with root h in the graph i -> j for
    a_ij != 0.  The eigenspace is unchanged: the other vertices U form a
    successor-closed set, so A_UU - h I is block triangular with the
    diagonal blocks of U, none with root h, and is invertible.  The rows of
    U read only the columns of U, so every eigenvector is 0 on U, and the
    rows of R then read only the columns of R.  The eigenvectors are those
    of A_RR extended by 0, and so are their free columns and normal form.
    The rows may be dense or sparse (``_rows``).
    """
    sparse = _rows(matrix)
    pred: list[list[int]] = [[] for _ in sparse]
    for i, row in enumerate(sparse):
        for j in row:
            pred[j].append(i)
    vertices: dict[tuple, list[int]] = {}  # those of the blocks of each polynomial
    for component, block in _blocks(sparse):
        vertices.setdefault(tuple(block), []).extend(component)
    holders: dict[Fraction, list[int]] = {}  # each root's vertices
    for block, held in vertices.items():
        if len(block) == 2:
            found = [Fraction(-block[0], block[1])]
        else:
            found = rational_roots(list(block))
            # The roots are distinct and real, so a missed real root shows in the count.
            if real_root_count(list(block)) != len(found):
                raise ExactMathError("matrix has an irrational real eigenvalue; exact eigenspaces unavailable")
        for r in found:
            holders.setdefault(r, []).extend(held)
    d = lcm(1, *(x.denominator for row in sparse for x in row.values()))
    cleared = [_scaled(row, d) for row in sparse]
    out = []
    for r in sorted(holders):
        reached: set[int] = set()
        for v in holders[r]:
            if v not in reached:
                reached |= _reach(v, pred)
        columns = sorted(reached)
        shift = d * r.numerator
        rows = []
        for i in columns:
            shifted = {j: r.denominator * x for j, x in cleared[i].items() if j in reached}
            if diag := shifted.get(i, 0) - shift:
                shifted[i] = diag
            else:
                shifted.pop(i, None)
            if shifted:
                rows.append(shifted)
        out.append((r, _null_basis(rows, columns)))
    return out
