"""Conformal Killing vector / tensor calculus on flat 3-space.

Vector and symmetric tensor fields carry exact polynomial components in
Cartesian coordinates (x, y, z) = variables 0, 1, 2; ``verify_ckt``,
``tsn_check``, ``lie_derivative`` and ``eigenvector_cross`` also take extra
polynomial variables as inert parameters, to run on linear families at once.

The Levi-Civita sign convention is fixed as eps_{123} = +1; all component
formulas and tests pin that choice.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

from . import linalg
from .exactmath import Poly, RationalFunction, rat

EPS = [[[0] * 3 for _ in range(3)] for _ in range(3)]
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)]:
    EPS[_i][_j][_k] = _s

# The upper triangle of a symmetric 3x3 grid, row by row.
_UPPER = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


class CktError(ValueError):
    """Domain or validation error in the tensor layer."""


# ---------------------------------------------------------------------------
# Field types


@dataclass(frozen=True)
class VectorField:
    """Vector field with polynomial Cartesian components."""

    components: tuple[Poly, Poly, Poly]

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    def __getitem__(self, i: int) -> Poly:
        return self.components[i]

    def __add__(self, other: VectorField) -> VectorField:
        return VectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: VectorField) -> VectorField:
        return VectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> VectorField:
        return VectorField(tuple(-a for a in self.components))

    def scale(self, factor) -> VectorField:
        return VectorField(tuple(a * factor for a in self.components))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return all(a == b for a, b in zip(self.components, other.components))

    __hash__ = None


@dataclass(frozen=True)
class SymTensorField:
    """Symmetric contravariant 2-tensor field; flat metric, so index
    placement is immaterial.  Stored as a 3x3 grid of polynomials whose
    lower triangle holds the upper triangle's objects (``from_upper``)."""

    comps: tuple[tuple[Poly, Poly, Poly], ...]

    @classmethod
    def from_upper(cls, xx, xy, xz, yy, yz, zz) -> SymTensorField:
        return cls(((xx, xy, xz), (xy, yy, yz), (xz, yz, zz)))

    @property
    def nvars(self) -> int:
        return self.comps[0][0].nvars

    def __getitem__(self, i: int):
        return self.comps[i]

    @property
    def upper(self) -> tuple[Poly, ...]:
        """The six components of the upper triangle, row by row."""
        return tuple(self.comps[i][j] for i, j in _UPPER)

    @classmethod
    def combination(cls, terms, nvars: int) -> SymTensorField:
        """The tensor sum c T over the (c, T) pairs of ``terms``, in nvars
        variables: c a rational or a Poly in nvars variables, T a tensor in
        nvars variables or fewer, extended once.  Each upper component is one
        ``Poly.dot``, with a rational c as (c, 1, T_ij) and a polynomial c as
        (1, c, T_ij): no partial sum is built."""
        one = Poly.const(1, nvars)
        products: list = [[] for _ in _UPPER]
        for c, t in terms:
            if c:
                s, c = (1, c) if isinstance(c, Poly) else (c, one)
                for acc, (i, j) in zip(products, _UPPER):
                    acc.append((s, c, t.comps[i][j].extend(nvars)))
        return cls.from_upper(*(Poly.dot(nvars, acc) for acc in products))

    def __add__(self, other: SymTensorField) -> SymTensorField:
        return SymTensorField.combination([(1, self), (1, other)], self.nvars)

    def __sub__(self, other: SymTensorField) -> SymTensorField:
        return SymTensorField.combination([(1, self), (-1, other)], self.nvars)

    def __neg__(self) -> SymTensorField:
        return SymTensorField.combination([(-1, self)], self.nvars)

    def scale(self, factor) -> SymTensorField:
        """Multiply by a rational or polynomial scalar."""
        return SymTensorField.combination([(factor, self)], self.nvars)

    @property
    def is_zero(self) -> bool:
        return all(self.comps[i][j].is_zero for i, j in _UPPER)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensorField):
            return NotImplemented
        return all(self.comps[i][j] == other.comps[i][j] for i, j in _UPPER)

    __hash__ = None

    def dot_vector(self, v: VectorField) -> VectorField:
        nvars = self.nvars
        return VectorField(tuple(Poly.dot(nvars, [(1, a, b) for a, b in zip(row, v.components)])
                                 for row in self.comps))


@dataclass(frozen=True)
class OneForm:
    """One-form with rational-function components."""

    components: tuple[RationalFunction, RationalFunction, RationalFunction]

    def __getitem__(self, i: int) -> RationalFunction:
        return self.components[i]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)


def metric(nvars: int = 3) -> SymTensorField:
    one = Poly.const(1, nvars)
    zero = Poly.zero(nvars)
    return SymTensorField.from_upper(one, zero, zero, one, zero, one)


# ---------------------------------------------------------------------------
# The conformal Killing vector basis


@lru_cache(maxsize=None)
def ckv_basis(nvars: int = 3) -> tuple[VectorField, ...]:
    """The 10 canonical conformal Killing vectors of flat 3-space:
    translations X1..X3, rotations R1..R3, the dilation D, and the
    inversion generators I1..I3, in that order.
    """
    x = [Poly.variable(i, nvars) for i in range(3)]
    zero = Poly.zero(nvars)
    one = Poly.const(1, nvars)
    r2 = Poly.dot(nvars, [(1, xi, xi) for xi in x])

    fields = []
    for i in range(3):
        fields.append(VectorField(tuple(one if k == i else zero for k in range(3))))
    for i in range(3):
        fields.append(VectorField(tuple(Poly.dot(nvars, [(EPS[i][j][k], one, x[j]) for j in range(3)])
                                        for k in range(3))))
    fields.append(VectorField(tuple(x)))
    for i in range(3):  # I_i = 2 x_i x - r^2 e_i
        fields.append(VectorField(tuple(Poly.dot(nvars, [(2, x[i], x[k])] + [(-1, one, r2)] * (k == i))
                                        for k in range(3))))
    return tuple(fields)


_NAMES = ["X1", "X2", "X3", "R1", "R2", "R3", "D", "I1", "I2", "I3"]


def ckv_by_name(name: str, nvars: int = 3) -> VectorField:
    try:
        return ckv_basis(nvars)[_NAMES.index(name)]
    except ValueError:
        raise CktError(f"unknown generator {name!r}; expected one of {_NAMES}") from None


def symmetric_product(v: VectorField, w: VectorField) -> SymTensorField:
    half = Fraction(1, 2)
    return SymTensorField.from_upper(*(Poly.dot(v.nvars, [(half, v[i], w[j]), (half, v[j], w[i])])
                                       for i, j in _UPPER))


def conformal_factor(v: VectorField) -> Poly | None:
    """The factor f with Lie_v(g) = f g for the covariant flat metric,
    or None when v is not conformal."""
    grad = {(i, j): v[j].diff(i) + v[i].diff(j) for i, j in _UPPER}
    if any(grad[i, j] for i, j in _UPPER if i != j) or not grad[0, 0] == grad[1, 1] == grad[2, 2]:
        return None
    return grad[0, 0]


def lie_derivative(v: VectorField, k: SymTensorField) -> SymTensorField:
    dk, dv = _partials(k), [[v[i].diff(m) for m in range(3)] for i in range(3)]
    return SymTensorField.from_upper(*(Poly.dot(k.nvars, [product for m in range(3) for product in (
        (1, v[m], dk[i][j][m]), (-1, k[m][j], dv[i][m]), (-1, k[i][m], dv[j][m]))])
        for i, j in _UPPER))


# ---------------------------------------------------------------------------
# Symmetric-product coefficients


# The ``ckv_basis`` indices of X1..X3, R1..R3, D and I1..I3.
_X, _R, _D, _I = range(0, 3), range(3, 6), range(6, 7), range(7, 10)
# The blocks of ``CktCoefficients`` in field order: each one's field, JSON name,
# size (a 3x3 grid, a vector of 3 or the scalar h), and the generators p in
# left and q in right of the products X_p.X_q that its entries weigh, row by row.
_Block = NamedTuple("_Block", [("field", str), ("name", str), ("size", int), ("left", range), ("right", range)])
_BLOCKS = tuple(_Block(field, name, len(left) * len(right), left, right) for field, name, left, right in [
    ("a", "A", _X, _X), ("b", "B", _X, _R), ("c", "C", _R, _R), ("d", "D", _X, _D), ("e", "E", _X, _I),
    ("f", "F", _R, _D), ("g", "G", _R, _I), ("h", "Hscalar", _D, _D), ("l", "L", _D, _I), ("m", "M", _I, _I)])
_BLOCK_SIZES = tuple(block.size for block in _BLOCKS)
# The 64 entries of the blocks laid out flat, row by row (``_sliced``), which
# ``_free_entries`` indexes, as the (p, q) of the product X_p.X_q of each.
_FLAT_PAIRS = tuple(pair for block in _BLOCKS for pair in itertools.product(block.left, block.right))
_FLAT_SIZE = len(_FLAT_PAIRS)


def _sliced(flat: list, row=tuple) -> list:
    """The ten blocks of the 64 flat entries, cut by slicing: a grid as a
    ``row`` of three ``row``s, a vector as one ``row``, h as its entry."""
    blocks, at = [], 0
    for size in _BLOCK_SIZES:
        if size == 9:
            blocks.append(row((row(flat[at:at + 3]), row(flat[at + 3:at + 6]), row(flat[at + 6:at + 9]))))
        elif size == 3:
            blocks.append(row(flat[at:at + 3]))
        else:
            blocks.append(flat[at])
        at += size
    return blocks


def _entries(block, size: int) -> list:
    """The entries of a block of ``size`` row by row, the inverse of
    ``_sliced``: a grid as three rows of three, a vector as three, h as one."""
    if size == 1:
        return [block]
    rows = block if size == 9 else [block]
    if len(rows) != size // 3 or any(len(row) != 3 for row in rows):
        raise CktError(f"expected a {'3x3' if size == 9 else 'length-3'} block")
    return [x for row in rows for x in row]


@dataclass(frozen=True)
class CktCoefficients:
    """Coefficients of the general linear combination of symmetric products
    of conformal Killing vectors:

        K = A_ij Xi.Xj + B_ij Xi.Rj + C_ij Ri.Rj + D_i Xi.D + E_ij Xi.Ij
          + F_i Ri.D + G_ij Ri.Ij + H D.D + L_i D.Ii + M_ij Ii.Ij

    as ``_BLOCKS`` lays it out; A, C, M are symmetric.  This is the JSON and
    outside-input form of a tensor, which ``assemble_ckt`` expands; the scans
    work on the 35 free coordinates (``FREE_COORDS``) instead, the tensor of
    x being sum_c x_c F_c over the basis tensors F_c of ``_free_basis``.
    The coefficients of free coordinates (``free_json_dict``) satisfy the
    trace relations tr A = tr B = tr G = tr M = 0, H = 0, F = 0, D =
    eps-contraction of B, L = eps-contraction of G, and C_ij = E_ij + E_ji -
    (1/2) tr E delta_ij, which make the assembled tensor trace-free.
    """

    a: tuple
    b: tuple
    c: tuple
    d: tuple
    e: tuple
    f: tuple
    g: tuple
    h: Fraction
    l: tuple
    m: tuple

    @classmethod
    def make(cls, **blocks) -> CktCoefficients:
        """The coefficients with the given blocks, by field, each entry
        anything ``rat`` reads; a block not given, or None, is zero."""
        flat = [rat(x) for block, zero in zip(_BLOCKS, _sliced([0] * _FLAT_SIZE))
                for x in _entries(blocks.pop(block.field, None) or zero, block.size)]
        return cls(*_sliced(flat), **blocks)

    def validate(self) -> None:
        """A grid of products of one family with itself must be symmetric."""
        for field, name, size, left, right in _BLOCKS:
            grid = getattr(self, field)
            if size == 9 and left == right and any(grid[i][j] != grid[j][i] for i, j in _UPPER):
                raise CktError(f"coefficient block {name} must be symmetric")

    @classmethod
    def from_json_dict(cls, data: dict) -> CktCoefficients:
        return cls.make(**{block.field: data[block.name] for block in _BLOCKS if block.name in data})


@lru_cache(maxsize=None)
def basis_product(i: int, j: int) -> SymTensorField:
    """Symmetric product of the basis CKVs i and j (``ckv_basis`` order)."""
    basis = ckv_basis()
    return symmetric_product(basis[i], basis[j])


def assemble_ckt(coeffs: CktCoefficients) -> SymTensorField:
    """Expand the symmetric-product combination into Cartesian components:
    each flat entry times its product (``_FLAT_PAIRS``)."""
    coeffs.validate()
    flat = [x for block in _BLOCKS for x in _entries(getattr(coeffs, block.field), block.size)]
    return SymTensorField.combination([(x, basis_product(*pq)) for x, pq in zip(flat, _FLAT_PAIRS) if x], 3)


# ---------------------------------------------------------------------------
# The conformal Killing tensor equation


def _partials(k: SymTensorField) -> list:
    """dk[a][b][c] = d_c K_ab, each of the 18 distinct derivatives taken
    once: dk[a][b] and dk[b][a] are one list."""
    dk = [[None] * 3 for _ in range(3)]
    for a, b in _UPPER:
        dk[a][b] = dk[b][a] = [k[a][b].diff(c) for c in range(3)]
    return dk


def _contraction_from_partials(dk: list) -> VectorField:
    """Five times the contraction vector k_i = (d_i tr K + 2 d_j K_ji) / 5,
    from ``_partials``: integer for an integer tensor."""
    one = Poly.const(1, dk[0][0][0].nvars)
    return VectorField(tuple(Poly.dot(one.nvars, [(1, one, dk[a][a][i]) for a in range(3)]
                                      + [(2, one, dk[a][i][a]) for a in range(3)])
                             for i in range(3)))


def _equation_terms(i: int, j: int, m: int) -> tuple[Counter, Counter]:
    """The equation 5 (d_i K_jm + d_j K_im + d_m K_ij) = u_i g_jm + u_j g_im
    + u_m g_ij, i <= j <= m, as the multiplicities of its partials d_c K_ab,
    keyed (a, b, c) with a <= b, and of its components u_c: each of the 18
    partials is in one equation, once."""
    terms = ((i, j, m), (j, i, m), (m, i, j))  # (c, a, b) of d_c K_ab
    return Counter((a, b, c) for c, a, b in terms), Counter(c for c, a, b in terms if a == b)


# The seven equations of the conformal Killing equation that verify_ckt tests.
_EQUATIONS = [_equation_terms(i, j, m) for i in range(3) for j in range(i, 3) for m in range(j, 3)
              if not i == j == m]


def _cleared(k: SymTensorField) -> tuple[int, SymTensorField]:
    """The least common denominator q of K's coefficients, and q K."""
    q = math.lcm(*(c.denominator for i, j in _UPPER for c in k.comps[i][j].terms.values()))
    return q, k if q == 1 else k.scale(q)


def verify_ckt(k: SymTensorField) -> tuple[bool, VectorField]:
    """Check d_(i K_jk) = k_(i g_jk) identically; returns the verdict and k.

    The equation is linear in K, so it is tested on the integer tensor
    q K of ``_cleared``.  Both sides carry a factor 1/3, which is dropped,
    and each equation is tested times 5 against the unscaled contraction
    u = 5 q k, as one ``Poly.dot`` of lhs - rhs.  As u is the contraction,
    the residuals obey E_000 + E_011 + E_022 = E_001 + E_111 + E_122 =
    E_002 + E_112 + E_222 = 0 (sum_a E_caa = 0), so only the seven
    equations other than (c, c, c) are tested."""
    q, k = _cleared(k)
    dk = _partials(k)
    u = _contraction_from_partials(dk)
    one = Poly.const(1, k.nvars)
    holds = not any(Poly.dot(k.nvars, [(5 * n, one, dk[a][b][c]) for (a, b, c), n in partials.items()]
                             + [(-n, one, u[c]) for c, n in traces.items()])
                    for partials, traces in _EQUATIONS)
    return holds, u.scale(Fraction(1, 5 * q))


# The (i, j, kk) with eps_ijk != 0 and j < kk, with the sign of eps.
_PLANE_PAIRS = ((0, 1), (0, 2), (1, 2))
_SLOTS = [(i, j, kk, EPS[i][j][kk]) for j, kk in _PLANE_PAIRS for i in range(3) if EPS[i][j][kk]]


def _int_dot(products) -> int:
    return sum(c * a * b for c, a, b in products)


def _tsn_scalars(k, dk):
    """The three scalars of ``tsn_check``, lazily, for A = g, K, K.K in
    turn, from the entries k[a][b] of K and its partials dk[a][b][c] =
    d_c K_ab: polynomials, or their integer values at one point, which give
    the scalars' values there."""
    if isinstance(k[0][0], Poly):
        one = Poly.const(1, k[0][0].nvars)
        dot = partial(Poly.dot, one.nvars)
    else:  # integer values at a point, where the scalars take their values
        one, dot = 1, _int_dot
    # curl[m][(j, kk)] = d_kk K_mj - d_j K_mkk, shared by the three rows ll.
    curl = [{(j, kk): dk[m][j][kk] - dk[m][kk][j] for j, kk in _PLANE_PAIRS} for m in range(3)]

    # The torsion entries, each formed when first read: the g-scalar reads
    # only the three at _SLOTS.
    @lru_cache(maxsize=None)
    def n(ll, j, kk):
        return dot([product for m in range(3) for product in (
            (1, k[ll][m], curl[m][(j, kk)]), (1, k[m][j], dk[ll][kk][m]), (-1, k[m][kk], dk[ll][j][m]))])

    yield dot([(s, one, n(i, j, kk)) for i, j, kk, s in _SLOTS])
    yield dot([(s, k[i][ll], n(ll, j, kk)) for i, j, kk, s in _SLOTS for ll in range(3)])
    # K.K is symmetric since K is: only its upper triangle is multiplied out.
    square = [[None] * 3 for _ in range(3)]
    for i, j in _UPPER:
        square[i][j] = square[j][i] = dot([(1, k[i][m], k[m][j]) for m in range(3)])
    yield dot([(s, square[i][ll], n(ll, j, kk)) for i, j, kk, s in _SLOTS for ll in range(3)])


def tsn_check(k: SymTensorField) -> bool:
    """Normal-eigenvector test: the three antisymmetrized conditions
    N^l_[jk A_i]l = 0 for A = g, K, K.K, each a single polynomial identity
    in 3 dimensions via contraction with the Levi-Civita symbol
    (``_tsn_scalars``).

    N is antisymmetric in its lower pair, so only the three (j < k) slices
    are computed; overall constants are dropped (vanishing is all that
    matters).  The conditions are homogeneous in K (of degrees 2, 3 and 4),
    so K is first multiplied by the least common denominator of its
    coefficients and everything runs on integers.  ``tsn_filter`` reads the
    same scalars on a plane."""
    _, k = _cleared(k)
    return not any(_tsn_scalars(k, _partials(k)))


def ckt_dimension(n: int, p: int) -> int:
    """Dimension of the space of valence-p conformal Killing tensors modulo
    metric multiples on flat n-space."""
    if n < 3 or p < 1:
        raise CktError("dimension formula requires n >= 3 and p >= 1")
    num = (math.factorial(n + p - 3) * math.factorial(n + p - 2)
           * (n + 2 * p - 2) * (n + 2 * p - 1) * (n + 2 * p))
    den = (math.factorial(p) * math.factorial(p + 1)
           * math.factorial(n - 2) * math.factorial(n))
    if num % den:
        raise CktError("dimension formula did not evaluate to an integer")
    return num // den


# ---------------------------------------------------------------------------
# The 35-parameter trace-free coefficient space

FREE_COORDS: list[tuple[str, int, int]] = (
    [("a", 0, 0), ("a", 1, 1), ("a", 0, 1), ("a", 0, 2), ("a", 1, 2)]
    + [("b", 0, 0), ("b", 1, 1), ("b", 0, 1), ("b", 0, 2),
       ("b", 1, 0), ("b", 1, 2), ("b", 2, 0), ("b", 2, 1)]
    + [("e", i, j) for i in range(3) for j in range(3)]
    + [("g", 0, 0), ("g", 1, 1), ("g", 0, 1), ("g", 0, 2),
       ("g", 1, 0), ("g", 1, 2), ("g", 2, 0), ("g", 2, 1)]
    + [("m", 0, 0), ("m", 1, 1), ("m", 0, 1), ("m", 0, 2), ("m", 1, 2)]
)

DIM_TRACE_FREE = len(FREE_COORDS)  # 35


@lru_cache(maxsize=None)
def _free_entries() -> tuple[int, tuple]:
    """The linear map from the free coordinates to the flat blocks, in
    integers over the common denominator 2: per coordinate of
    ``FREE_COORDS``, the nonzero (entry, 2 x) of its unit vector, which are
    its own entry and the entries that the trace relations of
    ``CktCoefficients`` tie to it."""
    at = dict(zip((block.field for block in _BLOCKS), itertools.accumulate(_BLOCK_SIZES, initial=0)))
    rows = []
    for block, i, j in FREE_COORDS:
        entries = Counter({at[block] + 3 * i + j: 2})
        if block in "am" and i != j:  # A and M are symmetric
            entries[at[block] + 3 * j + i] += 2
        if block in "abgm" and i == j:  # tr A = tr B = tr G = tr M = 0
            entries[at[block] + 8] -= 2
        if block in "bg":  # D and L, the eps-contractions of B and G
            for r in range(3):
                entries[at["d" if block == "b" else "l"] + r] += 2 * EPS[j][i][r]
        if block == "e":  # C = E + E^T - (1/2) tr E delta
            entries[at["c"] + 3 * i + j] += 2
            entries[at["c"] + 3 * j + i] += 2
            for r in range(3 if i == j else 0):
                entries[at["c"] + 4 * r] -= 1
        rows.append(tuple(sorted((entry, x) for entry, x in entries.items() if x)))
    return 2, tuple(rows)


def _free_vector(vec) -> linalg.Numerators:
    """A free-coordinate vector as ``linalg.Numerators``, which the scans
    hand on and read at its nonzero coordinates alone: as given when it is
    one, else read once from its 35 entries, each anything ``rat`` reads."""
    if vec.__class__ is linalg.Numerators:
        return vec
    values = [rat(x) for x in vec]
    if len(values) != DIM_TRACE_FREE:
        raise CktError(f"expected {DIM_TRACE_FREE} free parameters")
    return linalg.Numerators.of(values)


def _free_numerators(vec: linalg.Numerators) -> tuple[list[int], int]:
    """The flat blocks of the tensor with free coordinates vec
    (``_free_entries``) as integer numerators over one positive common
    denominator, and that denominator."""
    q, rows = _free_entries()
    flat = [0] * _FLAT_SIZE
    for c, n in vec.entries:
        for entry, x in rows[c]:
            flat[entry] += n * x
    return flat, q * vec.den


class FreeBlocks(dict):
    """The report block of ``free_json_dict``: the ten coefficient blocks
    under their JSON names, which also keeps their ``size`` entries flat, in
    block order, as ``flat``.  Each entry is a ``rat_str`` string, which JSON
    writes between quotes with no escape, so a writer may fill the flat
    entries into the text of a block of the same shape (``cli._write``)."""

    __slots__ = ("flat",)
    size = _FLAT_SIZE
    _names = tuple(block.name for block in _BLOCKS)

    def __init__(self, flat: Sequence[str]):
        super().__init__(zip(self._names, _sliced(flat, list)))
        self.flat = tuple(flat)


def free_json_dict(vec) -> FreeBlocks:
    """The coefficient blocks of the tensor with free coordinates vec
    (``_free_vector``), under their JSON names (``_BLOCKS``) and with
    each entry as ``rat_str`` writes it, from the integer numerators without
    a Fraction: a scan's report block, which keeps its entries flat too
    (``FreeBlocks``)."""
    flat, den = _free_numerators(_free_vector(vec))
    return FreeBlocks([_ratio_str(n, den) if n else "0" for n in flat])


def _ratio_str(n: int, den: int) -> str:
    """``rat_str`` of n / den, for den > 0."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


@lru_cache(maxsize=None)
def _free_basis() -> tuple[SymTensorField, ...]:
    """The tensors F_c of the 35 unit free-coordinate vectors: per row of
    ``_free_entries``, the sum of x / q times the product of each entry
    (``_FLAT_PAIRS``)."""
    q, rows = _free_entries()
    return tuple(SymTensorField.combination([(Fraction(x, q), basis_product(*_FLAT_PAIRS[entry]))
                                             for entry, x in row], 3) for row in rows)


@lru_cache(maxsize=None)
def _assembly_matrix() -> tuple[tuple[Poly, ...], ...]:
    """The upper components of the 35 basis tensors F_c: the columns of the
    solves in ``_basis_lie_columns`` and ``rotational.extract_parameters``."""
    return tuple(k.upper for k in _free_basis())


@lru_cache(maxsize=None)
def _basis_jets() -> tuple:
    """The first jets of the basis tensors F_c, cleared to integers by one
    common denominator: per c, the 24 polynomials K_ab (slot 4 u) and d_x,
    d_y, d_z K_ab (slots 4 u + 1, 2, 3) of the u-th pair (a, b) of
    ``_UPPER``."""
    basis = _free_basis()
    q = math.lcm(*(c.denominator for k in basis for a, b in _UPPER for c in k[a][b].terms.values()))
    return tuple(tuple(part for a, b in _UPPER for p in (k[a][b] * q,) for part in (p, p.diff(0), p.diff(1), p.diff(2)))
                 for k in basis)


@lru_cache(maxsize=None)
def _plane_jets(plane: tuple[int, int], width: int) -> tuple:
    """The jets of ``_basis_jets`` on the plane x_i = c, plane = (i, c),
    differentiated before they are restricted: per c, the nonzero ((slot,
    key), value) of the packed monomials of ``Poly.terms``, keeping the
    first width parts of each pair u at slots width u + m.  Width 4 keeps
    all 24 slots, and width 1 the six slots of K alone."""
    var, value = plane
    return tuple(tuple(((width * (s // 4) + s % 4, key), int(x)) for s, part in enumerate(jet) if s % 4 < width
                       for key, x in part.restrict(var, value).terms.items())
                 for jet in _basis_jets())


# The point of a plane x_i = c at which ``tsn_filter`` first evaluates the
# TSN scalars: this one with its i-th coordinate set to c.
_POINT = (2, 3, 5)


@lru_cache(maxsize=None)
def _plane_point(plane: tuple[int, int]) -> tuple:
    """The 24 slots of ``_basis_jets`` per c as their integer values at the
    point ``_POINT`` of the plane x_i = c, plane = (i, c)."""
    var, value = plane
    point = [value if i == var else x for i, x in enumerate(_POINT)]

    def at(poly: Poly) -> int:
        for i, x in enumerate(point):
            poly = poly.restrict(i, x)
        return int(poly.coeff((0, 0, 0)))

    return tuple(tuple(map(at, jet)) for jet in _basis_jets())


def _jets_on(plane: tuple[int, int], rows: Sequence[dict], width: int) -> list[list[Poly]]:
    """The jets on the plane of the tensors of the vectors, 6 width
    polynomials each: sum_c n_c times the jets of ``_plane_jets``, for the
    integer numerators n = d x {c: n_c} of the vectors x over one d > 0 for
    all of them.  That common factor keeps the zeros of the TSN scalars,
    homogeneous in K, and the vanishing combinations of the eigenvector
    condition, linear in K."""
    jets = _plane_jets(plane, width)
    out = []
    for row in rows:
        slots: list[dict] = [{} for _ in range(6 * width)]
        for c, n in row.items():
            for (s, key), value in jets[c]:
                slots[s][key] = slots[s].get(key, 0) + n * value
        out.append([Poly(3, {key: c for key, c in slot.items() if c}) for slot in slots])
    return out


def _tsn_on(jet: list) -> bool:
    """Whether the three TSN scalars vanish on a jet of ``_jets_on`` (width
    4), or at the point of ``_plane_point`` on its 24 integer values."""
    dk = [[None] * 3 for _ in range(3)]
    for u, (a, b) in enumerate(_UPPER):
        dk[a][b] = dk[b][a] = jet[4 * u + 1:4 * u + 4]
    return not any(_tsn_scalars(SymTensorField.from_upper(*jet[::4]), dk))


@lru_cache(maxsize=None)
def _killing_columns() -> tuple[int, tuple[dict, ...]]:
    """The Killing obstruction of each free basis tensor F_c, the curl of
    its contraction vector, as the integer table {(component, packed
    monomial): n} of its terms over one common denominator q; returns q and
    the 35 tables.  ``verify_ckt`` runs on every F_c here, and a failure
    raises CktError.  The conformal Killing equation is linear in K, so
    every sum_c x_c F_c is then a conformal Killing tensor, with
    contraction vector sum_c x_c k_c: no check is lost."""
    curls = []
    for index, k in enumerate(_free_basis()):
        holds, kv = verify_ckt(k)
        if not holds:
            raise CktError(f"free basis tensor {index} fails the conformal Killing equation")
        curls.append([kv[c].diff(b) - kv[b].diff(c) for b, c in ((1, 2), (2, 0), (0, 1))])
    q = math.lcm(*(x.denominator for curl in curls for p in curl for x in p.terms.values()))
    return q, tuple({(i, key): int(x * q) for i, p in enumerate(curl) for key, x in p.terms.items()}
                    for curl in curls)


def _sparse_sum(weights, tables) -> dict:
    """sum_i w_i T_i over the (i, w_i) of weights, each T_i a sparse dict
    {key: x}, as one sparse dict; a key whose sum is 0 may remain."""
    acc: dict = {}
    for i, w in weights:
        for key, x in tables[i].items():
            acc[key] = acc.get(key, 0) + w * x
    return acc


def killing_obstruction_terms(vec) -> dict:
    """The Killing obstruction of the tensor sum_c x_c F_c of vec
    (``_free_vector``), the curl of its contraction vector k (the Hodge
    dual of the two-form d(k-flat),
    as the components (23, 31, 12)), as its nonzero terms {(component,
    packed monomial): coefficient}.  It is empty iff the equivalence class
    of the tensor modulo metric multiples contains a Killing tensor.  The
    curl is linear in the tensor, so it is sum_c x_c times that of F_c
    (``_killing_columns``, built once), read at the nonzero coordinates of
    vec: no tensor is assembled or differentiated."""
    vec = _free_vector(vec)
    q, columns = _killing_columns()
    terms = _sparse_sum(vec.entries, columns)
    return {slot: Fraction(x, q * vec.den) for slot, x in terms.items() if x}


# ---------------------------------------------------------------------------
# Symmetry subspace scans


_LEFT_SPACE = "Lie derivative left the trace-free space; v is not a CKV"


@lru_cache(maxsize=None)
def _ckv_slots() -> tuple[tuple[int, int, int], ...]:
    """Per basis field X_k of ``ckv_basis``, a slot (component, packed
    monomial) where X_k alone of the ten has a nonzero coefficient, and that
    coefficient."""
    terms = [{(i, key): x for i, p in enumerate(field.components) for key, x in p.terms.items()}
             for field in ckv_basis()]
    return tuple(next((*slot, x) for slot, x in own.items()
                      if not any(slot in other for other in terms if other is not own))
                 for own in terms)


def _ckv_coordinates(v: VectorField) -> dict:
    """{k: c_k} with v = sum c_k X_k over ``ckv_basis``: c_k is read at the
    slot of X_k (``_ckv_slots``), and the sum is then checked against v
    exactly; raises when v is not in their span."""
    coords = {}
    for k, (i, key, x) in enumerate(_ckv_slots()):
        value = v[i].terms.get(key)
        if value:
            coords[k] = Fraction(value, x)
    basis, one = ckv_basis(), Poly.const(1, 3)
    if v != VectorField(tuple(Poly.dot(3, [(c, one, basis[k][i]) for k, c in coords.items()])
                              for i in range(3))):
        raise CktError(_LEFT_SPACE)
    return coords


@lru_cache(maxsize=None)
def _basis_lie_columns(k: int) -> tuple[int, tuple[dict, ...]]:
    """The columns of the matrix of Lie_X on the 35 trace-free coordinates,
    for the basis field X = X_k, as integer sparse dicts {row: n} over one
    positive denominator d; returns d and the columns.  By its definition,
    column c holds the free coordinates of Lie_X F_c, for the basis tensor
    F_c of ``_free_basis``: the 35 images are solved against the F_c
    (``_assembly_matrix``) by one elimination of their (component,
    monomial) rows.  An image outside the span of the F_c, one of degree 5
    among them, has no solution, and this raises CktError."""
    field = ckv_basis()[k]
    images = [lie_derivative(field, f).upper for f in _free_basis()]
    solutions = linalg.solve_many(_assembly_matrix(), images)
    if solutions is None:
        raise CktError(_LEFT_SPACE)
    d = math.lcm(*(col.den for col in solutions))
    return d, tuple({r: n * (d // col.den) for r, n in col.entries} for col in solutions)


def _lie_terms(v: VectorField) -> tuple[int, list[tuple[int, tuple[dict, ...]]]]:
    """Lie_v as (1/den) sum_k n_k N_k, for v = sum_k c_k X_k in ``ckv_basis``
    coordinates and the integer columns N_k over d_k of
    ``_basis_lie_columns``: Lie_v is linear in v, so n_k = den c_k / d_k,
    integers over the least common denominator den of the c_k / d_k.
    Returns den and the pairs (n_k, N_k); v outside that span raises
    CktError."""
    weights = []
    for k, c in _ckv_coordinates(v).items():
        d, columns = _basis_lie_columns(k)
        weights.append((c / d, columns))
    den = math.lcm(*(w.denominator for w, _ in weights))
    return den, [(w.numerator * (den // w.denominator), columns) for w, columns in weights]


def _lie_columns(v: VectorField) -> tuple[int, list[dict]]:
    """The matrix of Lie_v on the 35 trace-free coordinates, as integer
    columns over one positive denominator den (``_lie_terms``): column c, a
    sparse dict {row: n}, holds den times the coordinates of Lie_v applied
    to basis vector c.  Returns den and the columns."""
    den, terms = _lie_terms(v)
    columns: list[dict] = [{} for _ in range(DIM_TRACE_FREE)]
    for n, basis_columns in terms:
        for col, basis_col in zip(columns, basis_columns):
            for r, x in basis_col.items():
                col[r] = col.get(r, 0) + n * x
    return den, [{r: x for r, x in col.items() if x} for col in columns]


def symmetry_subspace(v: VectorField, mode: str) -> list[tuple[Fraction, list[linalg.Numerators]]]:
    """Treat Lie_v as a linear operator on the 35-dimensional trace-free
    coefficient space.  mode "h_zero" returns the kernel; mode "h_constant"
    returns every real eigenvalue with its exact eigenspace.  Each basis
    vector holds 35 free coordinates (``FREE_COORDS``) as the integer
    numerators over one denominator that ``linalg.nullspace`` and
    ``linalg.rational_eigenvalues`` give (``linalg.Numerators``), and every
    reader of a scan takes it as it is; its tensor is
    ``assemble_ckt(CktCoefficients.from_json_dict(free_json_dict(vec)))``.
    """
    if mode not in ("h_zero", "h_constant"):
        raise CktError(f"unknown mode {mode!r}; expected h_zero or h_constant")
    # Both read den Lie_v as its integer sparse rows {column: n}; its
    # eigenvalues are den h, and its eigenspaces those of Lie_v.
    den, columns = _lie_columns(v)
    rows: list[dict] = [{} for _ in range(DIM_TRACE_FREE)]
    for c, column in enumerate(columns):
        for r, x in column.items():
            rows[r][c] = x
    if mode == "h_constant":
        return [(h / den, space) for h, space in linalg.rational_eigenvalues(rows)]
    kernel = linalg.nullspace(rows, DIM_TRACE_FREE)
    return [(Fraction(0), kernel)] if kernel else []


def eigenvector_cross(k: SymTensorField, v: VectorField) -> VectorField:
    """(K.v) x v, identically zero iff v is everywhere an eigenvector of K."""
    kv = k.dot_vector(v)
    return VectorField(tuple(Poly.dot(k.nvars, [(1, kv[i], v[j]), (-1, kv[j], v[i])])
                             for i, j in ((1, 2), (2, 0), (0, 1))))


def _transversal_plane(v: VectorField) -> tuple[int, int]:
    """The first coordinate plane x_i = c, trying c = 0 on every axis before
    c = 1, on which v_i does not vanish identically.  A nonzero conformal
    Killing vector has one: its components have degree <= 2, and no
    component of one is a multiple of x_i (x_i - 1)."""
    for value in (0, 1):
        for var in range(3):
            if not v[var].restrict(var, value).is_zero:
                return var, value
    raise CktError("no coordinate plane x_i = 0 or x_i = 1 is transversal to v")


def _check_one_eigenspace(v: VectorField, basis: list[linalg.Numerators]) -> None:
    """Raise unless every free-coordinate vector lies in one eigenspace of
    Lie_v, with one eigenvalue for all of them.  Lie_v is applied to the
    vectors' integer numerators n as
    sum_k n_k N_k (``_lie_terms``), reading the cached columns at the
    nonzero coordinates of n alone; the image is den Lie_v n, an eigenvector
    image when it is p/q times n, for one ratio p/q (den h) for all."""
    _, terms = _lie_terms(v)
    p = q = None
    for _, nonzero in basis:
        image: dict = {}
        for weight, columns in terms:
            for j, n in nonzero:
                for c, x in columns[j].items():
                    image[c] = image.get(c, 0) + weight * n * x
        if nonzero and q is None:
            j, q = nonzero[0]
            p = image.get(j, 0)
        if {c: q * x for c, x in image.items() if x} != {c: p * n for c, n in nonzero if p}:
            raise CktError("basis does not lie in one eigenspace of Lie_v; "
                           "the TSN certificate on a transversal plane does not apply")


@dataclass(frozen=True)
class TsnFilterResult:
    """Outcome of restricting a symmetry subspace by the TSN conditions.

    ``subspace`` is a basis, as free-coordinate vectors in the form of
    ``symmetry_subspace`` (``linalg.Numerators``), of the members of
    the span that admit v as an eigenvector; it always satisfies TSN
    identically (certified by hypersurface orthogonality of v; see
    ``tsn_filter``).  ``outside_tsn_directions``
    indexes the basis directions outside the subspace that also satisfy TSN
    individually; when there is one, the full TSN solution set inside the
    span is not a linear space, and the offending directions are reported
    rather than silently absorbed."""

    subspace: tuple[linalg.Numerators, ...]
    outside_tsn_directions: tuple[int, ...]

    @property
    def variety_is_linear(self) -> bool:
        return not self.outside_tsn_directions


def _twist(v: VectorField) -> Poly:
    """v . curl v = eps_ijk v_i d_j v_k, a polynomial of degree <= 3 for a
    conformal Killing vector.  It vanishes identically iff v is
    hypersurface-orthogonal: v^perp is integrable (Frobenius)."""
    return Poly.dot(v.nvars, [(EPS[i][j][k], v[i], v[k].diff(j)) for i, j, k in itertools.permutations(range(3))])


def tsn_filter(v: VectorField, basis: Sequence) -> TsnFilterResult:
    """Restrict span(basis), a list of linearly independent free-coordinate
    vectors (``_free_vector``) such as one eigenspace of
    ``symmetry_subspace``, read as they are given, to the members
    satisfying the normal-eigenvector (TSN) conditions identically.

    The basis must lie in one eigenspace of Lie_v, Lie_v K = h K; this is
    checked exactly on each basis vector (``_check_one_eigenspace``), and
    CktError is raised otherwise.  The candidate is the linear eigenvector
    condition (K.v) x v = 0.  When it is nonempty, it is certified by the
    lemma below: v . curl v must vanish identically (``_twist``), and
    CktError naming hypersurface orthogonality is raised otherwise; and
    (K.v) x v is read again on each member of the candidate, which raises
    "filter is unsound" if one is nonzero.  It is linear in K, as are the
    jets, so on a member it is the member's combination of the basis rows
    (``linalg.combination``): the rows of the member's own jets times one
    positive factor.  Basis directions outside the
    candidate, whose unit vectors in basis coordinates are outside the span
    of the ``vanishing_combinations`` vectors, are spot-checked; any that
    satisfy TSN individually are reported in the result.  A spot check
    first reads the scalars at one point of P (``_plane_point``), as
    integers summed from the basis tensors' jet values there: a nonzero
    value proves that the scalar does not vanish identically, which
    refutes the direction.  A direction whose scalars all vanish at the
    point falls through to the polynomial identity test on its jets.

    Every condition is read on one coordinate plane P transversal to v
    (``_transversal_plane``: z = 0 for X3 and I3, x = 0 for R3, x = 1 for
    D), on sums of the cached jets of the basis tensors (``_jets_on``): the
    eigenvector rows are (K.v) x v on P, read on K alone, and the identity
    test runs ``_tsn_scalars`` on the first jets, K and d_m K.  That is exact
    because the conditions are conformally invariant, the invariance on
    which the classification of the webs up to the conformal group rests:

    - The flow phi_t of v is conformal, phi_t^* g = w g with w > 0, and
      Lie_v K = h K + f g integrates to phi_t^* K = e^(ht) K + b g for some
      function b.  So the endomorphism L = K g pulls back to s L + c I,
      with s = e^(ht) w > 0 and c = b w.
    - N_{sL}(X, Y) - s^2 N_L(X, Y) and N_{L + cI} - N_L are sums of terms
      a(X) B Y - a(Y) B X, with a a one-form and B a polynomial in L.  The
      scalars of ``tsn_check`` are the 3-forms C_p = Alt g(N(X, Y), L^p Z),
      p = 0, 1, 2, and g(B Y, L^p Z) is symmetric in (Y, Z), so such terms
      drop out.  Hence C_p(s L + c I; w g) is w s^(2+p) C_p(L; g) plus a
      combination of the C_q with q < p: an invertible map.
    - The flow carries v to itself, phi_t^* v = v, and (s L + c I) v is a
      multiple of v iff L v is.  So v is an eigenvector of K at phi_t(x)
      iff it is one at x.
    - These objects are natural under diffeomorphisms.  So the scalars at
      phi_t(x) vanish iff those at x do.

    If the scalars, or (K.v) x v, vanish on P, they vanish on the flow-out
    of P, which contains an open set wherever v is transversal to P.  Being
    polynomials, they then vanish identically.  The converse is immediate.
    The argument is the same for isometries, the dilation and the special
    conformal I_i.  A plane that v does not cross (z = 0 for R3) gives
    wrong verdicts.

    The lemma: if v . curl v = 0, every K with Lie_v K = h K + f g and
    (K.v) x v = 0 satisfies the TSN conditions identically.  Work where
    v != 0 and the number of distinct eigenvalues of L is locally constant,
    an open dense set.  There the flow pulls L back to s L + c I with
    s > 0, so it preserves each eigenspace of L, and v spans or lies in
    one of them.

    - Three simple eigenvalues: the conditions say that each eigenline has
      an integrable orthogonal complement.  The complement of v's line is
      v^perp, integrable iff v . curl v = 0.  Each other complement is
      spanned by v and a flow-invariant eigenline, which has a section w
      with [v, w] = 0, so it is involutive.
    - Two eigenvalues: the conditions are invariant under L -> s L + c I
      for functions s != 0 and c, so they are those of the projector P
      onto the simple line, and N_P = 0 iff ker P is integrable.  ker P
      is v^perp when v spans the simple line; otherwise it is the
      flow-invariant double eigenspace that contains v, spanned by v and a
      flow-invariant w with [v, w] = 0.
    - One eigenvalue: L = mu I and N = 0.

    The scalars are polynomials, so they vanish identically.  When
    v . curl v != 0, a nonempty candidate is not certified, and CktError
    is raised rather than an uncertified answer given.
    """
    basis = [_free_vector(vec) for vec in basis]
    _check_one_eigenspace(v, basis)
    plane = var, value = _transversal_plane(v)
    on_plane = VectorField(tuple(p.restrict(var, value) for p in v.components))
    # The rows are d x over one common d; a member is their combination / d.
    d = math.lcm(*(vec.den for vec in basis))
    rows = [{c: n * (d // vec.den) for c, n in vec.entries} for vec in basis]
    images = [eigenvector_cross(SymTensorField.from_upper(*k), on_plane).components
              for k in _jets_on(plane, rows, 1)]
    combos = linalg.vanishing_combinations(images)
    sub = []
    for combo in combos:
        acc = _sparse_sum(combo.entries, rows)
        g = math.gcd(combo.den * d, *acc.values())
        sub.append(linalg.Numerators(combo.den * d // g, tuple(sorted((c, n // g) for c, n in acc.items() if n))))
    if sub:
        if not _twist(v).is_zero:
            raise CktError("v is not hypersurface-orthogonal (v . curl v != 0); "
                           "the eigenvector candidate is not certified to satisfy TSN")
        if any(any(linalg.combination(combo, images)) for combo in combos):
            raise CktError("eigenvector subspace fails the TSN conditions; filter is unsound")
    # combos is in the normal form of ``nullspace``: one vector per free
    # column, 1 there and 0 at the other free columns.  A unit vector in
    # their span is read off at the free columns as one of them, so it lies
    # in the span iff it is one of them: one whose only nonzero entry is the
    # 1 at its free column.
    inside = {combo.entries[0][0] for combo in combos if len(combo.entries) == 1}
    # A direction is refuted by a nonzero value of a scalar at the point of
    # _plane_point; one that vanishes there is tested on its jet.
    point = _plane_point(plane)
    outside = [idx for idx, row in enumerate(rows) if idx not in inside
               and _tsn_on([sum(n * point[c][s] for c, n in row.items()) for s in range(24)])
               and _tsn_on(_jets_on(plane, [row], 4)[0])]
    return TsnFilterResult(subspace=tuple(sub), outside_tsn_directions=tuple(outside))
