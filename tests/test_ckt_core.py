import dataclasses
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from rotweb import ckt_core as cc
from rotweb import linalg
from rotweb.ckt_core import (DIM_TRACE_FREE, CktCoefficients, CktError, SymTensorField,
                             assemble_ckt, ckt_dimension, ckv_basis, ckv_by_name, conformal_factor,
                             eigenvector_cross, free_json_dict, killing_obstruction_terms,
                             lie_derivative, metric, symmetric_product, symmetry_subspace, tsn_check,
                             tsn_filter, verify_ckt)
from rotweb.exactmath import ExactMathError, Poly, rat, rat_str
from rotweb.linalg import (Numerators, char_poly, nullspace, rank, rational_eigenvalues, solve_many,
                           vanishing_combinations)

from conftest import (assemble_free, degree_in, evaluate, free_values, oracle_contraction, rand_fraction,
                      symbolic_family, tensor_degree)
from ref_univariate import UniPoly, product, ref_monic

X, Y, Z = (Poly.variable(i, 3) for i in range(3))
ZERO = Poly.zero(3)
ONE = Poly.const(1, 3)


def vector(vx, vy, vz):
    return cc.VectorField((vx, vy, vz))


def lie_operator(v):
    """The dense matrix of Lie_v on the 35 trace-free coordinates, from the
    package's sparse integer columns over one denominator: column c holds
    the coordinates of Lie_v applied to basis vector c."""
    den, columns = cc._lie_columns(v)
    return [[Fraction(col.get(r, 0), den) for col in columns] for r in range(DIM_TRACE_FREE)]


def commutator(v, w):
    """The Lie bracket [v, w] of two vector fields."""
    return cc.VectorField(tuple(Poly.dot(v.nvars, [product for j in range(3) for product in (
        (1, v[j], w[i].diff(j)), (-1, w[j], v[i].diff(j)))]) for i in range(3)))


def coefficients_json(coeffs):
    """The JSON blocks of CktCoefficients, each entry written by rat_str."""
    def grid(block):
        return [[rat_str(x) for x in row] for row in block]

    return {"A": grid(coeffs.a), "B": grid(coeffs.b), "C": grid(coeffs.c),
            "D": [rat_str(x) for x in coeffs.d], "E": grid(coeffs.e),
            "F": [rat_str(x) for x in coeffs.f], "G": grid(coeffs.g),
            "Hscalar": rat_str(coeffs.h), "L": [rat_str(x) for x in coeffs.l], "M": grid(coeffs.m)}


def extend_tensor(k, nvars):
    """The tensor with its components embedded in nvars variables."""
    return SymTensorField.from_upper(*(k[i][j].extend(nvars) for i, j in cc._UPPER))


def free_blocks(vec):
    """The ten coefficient blocks of the tensor with free coordinates vec,
    from the package's integer numerators."""
    flat, den = cc._free_numerators(cc._free_vector(vec))
    zero = Fraction(0)
    return cc._sliced([Fraction(n, den) if n else zero for n in flat])


def coefficients_from_free(vec):
    return CktCoefficients(*free_blocks(vec))


def unit_vector(c):
    return [int(i == c) for i in range(DIM_TRACE_FREE)]


class TestBasis:
    def test_ten_fields(self):
        assert len(ckv_basis(3)) == 10

    def test_rotation_components(self):
        r3 = ckv_by_name("R3")
        assert r3.components == (-Y, X, ZERO)

    def test_dilation_is_euler_field(self):
        d = ckv_by_name("D")
        assert tuple(evaluate(p, (1, 2, 3)) for p in d.components) == (1, 2, 3)

    def test_inversion_generator_components(self):
        i3 = ckv_by_name("I3")
        assert i3.components == (2 * Z * X, 2 * Z * Y, Z * Z - X * X - Y * Y)

    def test_conformal_factors(self):
        basis = ckv_basis(3)
        expected = [ZERO] * 6 + [Poly.const(2, 3), 4 * X, 4 * Y, 4 * Z]
        for field, f in zip(basis, expected):
            assert conformal_factor(field) == f

    def test_unknown_name(self):
        with pytest.raises(CktError):
            ckv_by_name("Q7")


def expected_commutator(i, j):
    """The printed commutation table, spelled out index by index."""
    basis = ckv_basis(3)
    x, r, d, ii = basis[0:3], basis[3:6], basis[6], basis[7:10]
    zero = vector(ZERO, ZERO, ZERO)

    def eps_comb(fields, a, b, sign):
        total = zero
        for c in range(3):
            if cc.EPS[a][b][c]:
                total = total + fields[c].scale(sign * cc.EPS[a][b][c])
        return total

    kind_i, a = ("x", i) if i < 3 else ("r", i - 3) if i < 6 else ("d", 0) if i == 6 else ("i", i - 7)
    kind_j, b = ("x", j) if j < 3 else ("r", j - 3) if j < 6 else ("d", 0) if j == 6 else ("i", j - 7)
    table = {
        ("x", "x"): lambda: zero,
        ("x", "r"): lambda: eps_comb(x, a, b, -1),
        ("r", "x"): lambda: eps_comb(x, b, a, 1),
        ("r", "r"): lambda: eps_comb(r, a, b, -1),
        ("x", "d"): lambda: x[a],
        ("d", "x"): lambda: x[b].scale(-1),
        ("r", "d"): lambda: zero,
        ("d", "r"): lambda: zero,
        ("i", "i"): lambda: zero,
        ("x", "i"): lambda: (d.scale(2) if a == b else zero) + eps_comb(r, a, b, -2),
        ("i", "x"): lambda: (d.scale(-2) if a == b else zero) + eps_comb(r, b, a, 2),
        ("r", "i"): lambda: eps_comb(ii, a, b, -1),
        ("i", "r"): lambda: eps_comb(ii, b, a, 1),
        ("d", "i"): lambda: ii[b],
        ("i", "d"): lambda: ii[a].scale(-1),
        ("d", "d"): lambda: zero,
    }
    return table[(kind_i, kind_j)]()


class TestCommutators:
    def test_full_table(self):
        basis = ckv_basis(3)
        for i in range(10):
            for j in range(10):
                assert commutator(basis[i], basis[j]) == expected_commutator(i, j), (i, j)

    def test_named_examples(self):
        x3, d, i3 = ckv_by_name("X3"), ckv_by_name("D"), ckv_by_name("I3")
        assert commutator(x3, d) == x3
        assert commutator(d, i3) == i3
        assert commutator(ckv_by_name("X1"), ckv_by_name("X2")).is_zero


class TestDependencyRelations:
    def test_x_dot_r_vanishes(self):
        basis = ckv_basis(3)
        total = SymTensorField.combination([], 3)
        for i in range(3):
            total = total + symmetric_product(basis[i], basis[3 + i])
        assert total.is_zero

    def test_i_dot_r_vanishes(self):
        basis = ckv_basis(3)
        total = SymTensorField.combination([], 3)
        for i in range(3):
            total = total + symmetric_product(basis[7 + i], basis[3 + i])
        assert total.is_zero

    def test_dd_decomposition(self):
        basis = ckv_basis(3)
        d = basis[6]
        lhs = symmetric_product(d, d)
        rhs = SymTensorField.combination([], 3)
        for i in range(3):
            rhs = rhs + symmetric_product(basis[i], basis[7 + i])
            rhs = rhs + symmetric_product(basis[3 + i], basis[3 + i])
        assert lhs == rhs

    def test_rd_relation(self):
        basis = ckv_basis(3)
        d = basis[6]
        for i in range(3):
            total = symmetric_product(basis[3 + i], d).scale(2)
            for k in range(3):
                for l in range(3):
                    if cc.EPS[i][k][l]:
                        total = total + symmetric_product(basis[k], basis[7 + l]).scale(cc.EPS[i][k][l])
            assert total.is_zero


class TestSymmetricProduct:
    def test_translation_square(self):
        k = symmetric_product(ckv_by_name("X3"), ckv_by_name("X3"))
        assert k[2][2] == ONE and k[0][0].is_zero and k[0][1].is_zero

    def test_rotation_square(self):
        k = symmetric_product(ckv_by_name("R3"), ckv_by_name("R3"))
        assert k[0][0] == Y * Y and k[0][1] == -X * Y and k[1][1] == X * X
        assert k[2][2].is_zero and k[0][2].is_zero

    def test_symmetrization_factor(self):
        k = symmetric_product(ckv_by_name("X1"), ckv_by_name("X2"))
        assert k[0][1] == Poly.const(Fraction(1, 2), 3)
        assert k[0][0].is_zero


def chained_combination(terms, nvars):
    """The tensor sum c T as the package assembled it before
    ``SymTensorField.combination``: term by term, each of the nine entries of
    a 3x3 grid of Polys extended, scaled and added with Poly * and +."""
    grid = [[Poly.zero(nvars)] * 3 for _ in range(3)]
    for c, t in terms:
        grid = [[grid[i][j] + t[i][j].extend(nvars) * c for j in range(3)] for i in range(3)]
    return SymTensorField(tuple(tuple(row) for row in grid))


def random_poly(rng, nvars, degree=2, count=4):
    return Poly.from_terms({tuple(rng.randint(0, degree) for _ in range(nvars)): rand_fraction(rng)
                            for _ in range(count)}, nvars)


def random_tensor(rng, nvars):
    return SymTensorField.from_upper(*(random_poly(rng, nvars) if rng.random() < 0.8 else Poly.zero(nvars)
                                       for _ in range(6)))


class TestCombination:
    def seeded_terms(self, rng, nvars, count):
        """Terms with rational, integer, polynomial and zero coefficients,
        over tensors in 3 variables and in nvars."""
        terms = []
        for _ in range(count):
            t = random_tensor(rng, rng.choice((3, nvars)))
            kind = rng.randrange(5)
            c = (rand_fraction(rng), rng.randint(-4, 4), random_poly(rng, nvars, 1, 2),
                 Poly.variable(rng.randrange(nvars), nvars), rng.choice((0, Fraction(0), Poly.zero(nvars))))[kind]
            terms.append((c, t))
        return terms

    @pytest.mark.parametrize("nvars", [3, 9])
    def test_matches_the_chained_assembly(self, nvars):
        rng = random.Random(1900 + nvars)
        for trial in range(40):
            terms = self.seeded_terms(rng, nvars, trial % 7)
            combined = SymTensorField.combination(terms, nvars)
            expected = chained_combination(terms, nvars)
            assert combined == expected
            assert combined.nvars == nvars
            assert all(combined[i][j] is combined[j][i] for i in range(3) for j in range(3))

    def test_empty_and_zero_coefficients_give_zero(self):
        t = cc.basis_product(6, 9)
        for nvars in (3, 9):
            for terms in ([], [(0, t)], [(Fraction(0), t), (Poly.zero(nvars), t)]):
                zero = SymTensorField.combination(terms, nvars)
                assert zero.is_zero and zero.nvars == nvars

    def test_operators(self, rng):
        for _ in range(20):
            a, b = random_tensor(rng, 3), random_tensor(rng, 3)
            q, f = rand_fraction(rng), random_poly(rng, 3)
            assert a + b == chained_combination([(1, a), (1, b)], 3)
            assert a - b == chained_combination([(1, a), (-1, b)], 3)
            assert -a == chained_combination([(-1, a)], 3)
            assert a.scale(q) == chained_combination([(q, a)], 3)
            assert a.scale(f) == chained_combination([(f, a)], 3)

    def test_mismatched_variable_sets_raise(self, rng):
        small, large = random_tensor(rng, 3), random_tensor(rng, 9)
        with pytest.raises(ExactMathError):
            SymTensorField.combination([(1, large)], 3)
        with pytest.raises(ExactMathError):
            SymTensorField.combination([(Poly.variable(0, 4), small)], 9)
        with pytest.raises(ExactMathError):
            SymTensorField.combination([(Poly.variable(0, 3), small)], 9)
        with pytest.raises(ExactMathError):
            small + large


class TestAssemble:
    def test_dd_term(self):
        k = assemble_ckt(CktCoefficients.make(h=1))
        coords = [X, Y, Z]
        for i in range(3):
            for j in range(3):
                assert k[i][j] == coords[i] * coords[j]

    def test_zero(self):
        assert assemble_ckt(CktCoefficients.make()).is_zero

    def test_single_c_entry(self):
        coeffs = CktCoefficients.make(c=((0, 0, 0), (0, 0, 0), (0, 0, 1)))
        assert assemble_ckt(coeffs) == symmetric_product(ckv_by_name("R3"), ckv_by_name("R3"))

    def test_asymmetric_block_rejected(self):
        coeffs = CktCoefficients.make(a=((0, 1, 0), (0, 0, 0), (0, 0, 0)))
        with pytest.raises(CktError):
            assemble_ckt(coeffs)

    def test_misshapen_or_unknown_blocks_rejected(self):
        with pytest.raises(CktError, match="expected a 3x3 block"):
            CktCoefficients.make(b=((0, 1, 0), (0, 0, 0)))
        with pytest.raises(CktError, match="expected a 3x3 block"):
            CktCoefficients.make(e=((0, 1), (0, 0), (0, 0)))
        with pytest.raises(CktError, match="expected a length-3 block"):
            CktCoefficients.make(d=(1, 2))
        with pytest.raises(TypeError):
            CktCoefficients.make(k=((0, 0, 0),) * 3)


def docstring_blocks():
    """The blocks of the formula in the CktCoefficients docstring,

        K = A_ij Xi.Xj + B_ij Xi.Rj + C_ij Ri.Rj + D_i Xi.D + E_ij Xi.Ij
          + F_i Ri.D + G_ij Ri.Ij + H D.D + L_i D.Ii + M_ij Ii.Ij,

    written out term by term: per block its field, its JSON name and the
    ckv_basis indices (p, q) of the product X_p.X_q of each entry, row by
    row."""
    x, r, d, i = ["X1", "X2", "X3"], ["R1", "R2", "R3"], "D", ["I1", "I2", "I3"]

    def grid(left, right):
        return [(left[a], right[b]) for a in range(3) for b in range(3)]

    names = [("a", "A", grid(x, x)), ("b", "B", grid(x, r)), ("c", "C", grid(r, r)),
             ("d", "D", [(x[a], d) for a in range(3)]), ("e", "E", grid(x, i)),
             ("f", "F", [(r[a], d) for a in range(3)]), ("g", "G", grid(r, i)),
             ("h", "Hscalar", [(d, d)]), ("l", "L", [(d, i[a]) for a in range(3)]),
             ("m", "M", grid(i, i))]
    order = ["X1", "X2", "X3", "R1", "R2", "R3", "D", "I1", "I2", "I3"]
    return [(field, name, [(order.index(p), order.index(q)) for p, q in products])
            for field, name, products in names]


class TestBlockTable:
    def test_rows_follow_the_docstring_formula(self):
        expected = docstring_blocks()
        assert [f.name for f in dataclasses.fields(CktCoefficients)] == [field for field, _, _ in expected]
        for block, (field, name, products) in zip(cc._BLOCKS, expected, strict=True):
            assert (block.field, block.name, block.size) == (field, name, len(products))
            assert list(itertools.product(block.left, block.right)) == products, field
        assert cc._BLOCK_SIZES == tuple(len(products) for _, _, products in expected)
        assert list(cc._FLAT_PAIRS) == [pair for _, _, products in expected for pair in products]

    def test_each_unit_entry_assembles_its_product(self):
        # A unit entry off the diagonal of the symmetric A, C or M is not a
        # valid block, so it is read together with its transpose there.
        expected = [pair for _, _, products in docstring_blocks() for pair in products]
        at = 0
        for block in cc._BLOCKS:
            for entry in range(at, at + block.size):
                row, col = divmod(entry - at, 3)
                mirror = at + 3 * col + row if block.size == 9 and block.left == block.right else entry
                flat = [int(e in (entry, mirror)) for e in range(cc._FLAT_SIZE)]
                k = assemble_ckt(CktCoefficients(*cc._sliced(flat)))
                assert k == SymTensorField.combination(
                    [(1, cc.basis_product(*expected[e])) for e in {entry, mirror}], 3), (block.field, entry)
            at += block.size
        assert at == 64


class TestFreeBasis:
    @staticmethod
    def coefficient_route(c):
        """F_c by the route through the coefficient blocks: its integer
        numerators as Fractions, cut into a CktCoefficients and assembled."""
        flat, den = cc._free_numerators(Numerators(1, ((c, 1),)))
        return assemble_ckt(CktCoefficients(*cc._sliced([Fraction(n, den) for n in flat])))

    def test_matches_the_coefficient_route(self):
        basis = cc._free_basis()
        assert len(basis) == DIM_TRACE_FREE
        for c in range(DIM_TRACE_FREE):
            assert basis[c] == self.coefficient_route(c), c

    def test_cold_fill_forms_each_product_once(self, monkeypatch):
        # A cold fill of the assembly matrix forms one symmetric product per
        # unordered pair of CKVs its rows weigh: 51, where caching X_p.X_q and
        # X_q.X_p apart formed 60.  The three caches are swapped for empty
        # ones for the test; monkeypatch puts the warm ones back.
        warm = cc._assembly_matrix()
        calls = []
        real = cc.symmetric_product
        monkeypatch.setattr(cc, "symmetric_product", lambda v, w: calls.append((v, w)) or real(v, w))
        for name in ("basis_product", "_free_basis", "_assembly_matrix"):
            monkeypatch.setattr(cc, name, functools.lru_cache(maxsize=None)(getattr(cc, name).__wrapped__))
        assert cc._assembly_matrix() == warm
        _, rows = cc._free_entries()
        pairs = {tuple(sorted(cc._FLAT_PAIRS[entry])) for row in rows for entry, _ in row}
        assert len(calls) == len(pairs) == 51
        basis = cc.ckv_basis()
        for p, q in pairs:
            assert cc.basis_product(q, p) is cc.basis_product(p, q) == real(basis[q], basis[p])
        assert len(calls) == 51


class TestVerifyCkt:
    def test_dd_contraction(self):
        holds, k = verify_ckt(assemble_ckt(CktCoefficients.make(h=1)))
        assert holds
        assert k.components == (2 * X, 2 * Y, 2 * Z)

    def test_metric_is_killing(self):
        holds, k = verify_ckt(metric(3))
        assert holds and k.is_zero

    def test_cubic_component_rejected(self):
        k = SymTensorField.from_upper(X ** 3, ZERO, ZERO, ZERO, ZERO, ZERO)
        assert verify_ckt(k)[0] is False

    def test_contraction_formula_on_full_family(self):
        """The k-vector recipe must reproduce the conformal Killing equation
        identically across all 35 trace-free parameters at once."""
        family = symbolic_family([[int(i == c) for i in range(35)] for c in range(35)])
        assert (family[0][0] + family[1][1] + family[2][2]).is_zero
        holds, _ = verify_ckt(family)
        assert holds


def ck_residual(k, i, j, m):
    """d_i K_jm + d_j K_im + d_m K_ij - (k_i g_jm + k_j g_im + k_m g_ij)."""
    kv = oracle_contraction(k)
    rhs = [kv[a] for a, b, c in ((i, j, m), (j, i, m), (m, i, j)) if b == c]
    return k[j][m].diff(i) + k[i][m].diff(j) + k[i][j].diff(m) - sum(rhs, Poly.zero(k.nvars))


CK_EQUATIONS = [(i, j, m) for i in range(3) for j in range(i, 3) for m in range(j, 3)]
INDEPENDENT = [eq for eq in CK_EQUATIONS if len(set(eq)) > 1]


class TestVerifyCktEquations:
    def test_returns_the_contraction(self, rng):
        tensors = [assemble_free([rand_fraction(rng, -9, 9, 7) for _ in range(35)]) for _ in range(10)]
        tensors += [assemble_free([rng.randint(-9, 9) for _ in range(35)]) for _ in range(5)]
        for k in tensors:
            holds, kv = verify_ckt(k)
            assert holds
            assert list(kv.components) == oracle_contraction(k)

    @pytest.mark.parametrize("i,j,m", CK_EQUATIONS, ids=[f"{i}{j}{m}" for i, j, m in CK_EQUATIONS])
    def test_rejects_a_perturbation_of_each_equation(self, i, j, m):
        # A seeded multiple of a power of x_i added to K_jm: of the 18
        # partials d_c K_ab only d_i K_jm moves, and it is in equation
        # (i, j, m) alone.  Through the contraction and the trace relations
        # sum_a E_caa = 0 other equations may fail too, except for (0, 1, 2).
        rng = random.Random(f"ck-{i}{j}{m}")
        k = assemble_free([rand_fraction(rng, -9, 9, 7) for _ in range(35)])
        assert verify_ckt(k)[0]
        bump = Poly.variable(i, 3) ** rng.randint(1, 4) * rand_fraction(rng, 1, 9, 5)
        perturbed = k + SymTensorField.from_upper(*(bump if (a, b) == (j, m) else ZERO for a, b in cc._UPPER))
        failing = [eq for eq in CK_EQUATIONS if not ck_residual(perturbed, *eq).is_zero]
        assert (i, j, m) in failing
        if len({i, j, m}) == 3:
            assert failing == [(i, j, m)]
        assert verify_ckt(perturbed)[0] is False

    @pytest.mark.parametrize("i,j,m", INDEPENDENT, ids=[f"{i}{j}{m}" for i, j, m in INDEPENDENT])
    def test_each_tested_equation_is_needed(self, i, j, m):
        # verify_ckt tests the seven equations other than (c, c, c).  For
        # each of them a tensor of degree 1 satisfies the six others but not
        # this one, so dropping any of the seven would pass a non-CKT: found
        # as a null combination, under the six other residuals, of the
        # tensors with one monomial of degree <= 2 in one upper component.
        others = [eq for eq in INDEPENDENT if eq != (i, j, m)]
        monomials = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
        basis = [SymTensorField.from_upper(*(Poly.from_terms({e: 1}, 3) if ab == upper else ZERO
                                             for ab in cc._UPPER))
                 for upper in cc._UPPER for e in monomials]
        null = vanishing_combinations([[ck_residual(t, *eq) for eq in others] for t in basis])
        tensors = (SymTensorField.combination([(c, t) for c, t in zip(vec.dense(len(basis)), basis) if c], 3)
                   for vec in null)
        k = next(k for k in tensors if not ck_residual(k, i, j, m).is_zero)
        failing = [eq for eq in CK_EQUATIONS if not ck_residual(k, *eq).is_zero]
        assert (i, j, m) in failing and all(eq == (i, j, m) or len(set(eq)) == 1 for eq in failing)
        assert verify_ckt(k)[0] is False


# The eigenspaces of the eight scans: X3, I3 and R3 have only h = 0, the
# same kernel in both modes; D has h = -2..2, and its h = 0 is its kernel.
SCAN_EIGENSPACES = [("X3", 0), ("I3", 0), ("R3", 0)] + [("D", h) for h in range(-2, 3)]


def scan_eigenspace(name, h):
    v = ckv_by_name(name)
    return v, dict(symmetry_subspace(v, "h_constant"))[h]


def combination(members, weights):
    """sum_i weights[i] members[i] as 35 Fractions; the members and the
    weights may be ``Numerators``."""
    members = [free_values(vec) for vec in members]
    if isinstance(weights, Numerators):
        weights = weights.dense(len(members))
    return [sum(w * vec[j] for w, vec in zip(weights, members)) for j in range(cc.DIM_TRACE_FREE)]


def json_bytes(data):
    return json.dumps(data, indent=2, sort_keys=True)


def assert_trace_relations(vec):
    """The report blocks of vec, read back, hold the free coordinates at
    their entries and obey the trace relations of CktCoefficients, which fix
    the other entries; rat_str writes each entry as ``free_json_dict`` does."""
    def read(value):
        return [read(x) for x in value] if isinstance(value, list) else Fraction(value)

    data = free_json_dict(vec)
    a, b, c, d, e, f, g, h, l, m = (read(data[name]) for name in
                                    ("A", "B", "C", "D", "E", "F", "G", "Hscalar", "L", "M"))
    for (block, i, j), x in zip(cc.FREE_COORDS, free_values(vec)):
        assert {"a": a, "b": b, "e": e, "g": g, "m": m}[block][i][j] == Fraction(x)
    for grid in (a, m):
        assert all(grid[i][j] == grid[j][i] for i in range(3) for j in range(3))
    for grid in (a, b, g, m):
        assert grid[0][0] + grid[1][1] + grid[2][2] == 0
    assert h == 0 and f == [0, 0, 0]
    for vec3, grid in ((d, b), (l, g)):
        assert vec3 == [sum(cc.EPS[kk][j][i] * grid[j][kk] for j in range(3) for kk in range(3))
                        for i in range(3)]
    tr_e = e[0][0] + e[1][1] + e[2][2]
    assert c == [[e[i][j] + e[j][i] - (tr_e / 2 if i == j else 0) for j in range(3)] for i in range(3)]
    assert json_bytes(data) == json_bytes(coefficients_json(coefficients_from_free(vec)))


class TestFreeCoordinates:
    def test_blocks_obey_the_trace_relations(self):
        rng = random.Random(3517)
        vecs = [unit_vector(c) for c in range(DIM_TRACE_FREE)]
        for trial in range(60):
            density = (0.1, 0.3, 1.0)[trial % 3]
            vec = [rand_fraction(rng, -20, 20, 9) if rng.random() < density else 0 for _ in range(35)]
            vecs.append([int(x) if x == int(x) else str(x) for x in vec] if trial % 7 == 0 else vec)
        for vec in vecs:
            assert_trace_relations(vec)
        for bad in ([0] * 34, [0] * 36):
            for build in (coefficients_from_free, free_json_dict):
                with pytest.raises(CktError, match="35 free parameters"):
                    build(bad)

    @pytest.mark.parametrize("name,h", SCAN_EIGENSPACES, ids=[f"{n} h={h}" for n, h in SCAN_EIGENSPACES])
    def test_scan_blocks_obey_the_trace_relations(self, name, h):
        # The report blocks of every basis vector of the eight scans.
        for vec in scan_eigenspace(name, h)[1]:
            assert_trace_relations(vec)

    def test_outside_coefficients_round_trip_through_json(self, rng):
        # Blocks with every entry free, as outside input gives them.
        for _ in range(20):
            grids = [[[rand_fraction(rng) for _ in range(3)] for _ in range(3)] for _ in range(7)]
            a, c, m = ([[g[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
                       for g in grids[:3])
            coeffs = CktCoefficients.make(a=a, b=grids[3], c=c, d=grids[4][0], e=grids[5],
                                          f=grids[4][1], g=grids[6], h=rand_fraction(rng),
                                          l=grids[4][2], m=m)
            assert CktCoefficients.from_json_dict(coefficients_json(coeffs)) == coeffs

    def test_c_block_follows_e(self, rng):
        for _ in range(20):
            coeffs = coefficients_from_free([rand_fraction(rng) for _ in range(35)])
            e, c = coeffs.e, coeffs.c
            tr_e = e[0][0] + e[1][1] + e[2][2]
            for i in range(3):
                for j in range(3):
                    # The printed relation C_ij = E_ij + E_ji - (1/2) tr E delta_ij.
                    assert c[i][j] == e[i][j] + e[j][i] - (tr_e / 2 if i == j else 0)
            k = assemble_ckt(coeffs)
            assert (k[0][0] + k[1][1] + k[2][2]).is_zero
            assert verify_ckt(k)[0]

    def test_assemble_free_matches_the_coefficient_route(self, rng):
        # assemble_free sums the cached free basis tensors; the reference
        # expands the full coefficient blocks.
        vecs = [[rand_fraction(rng) for _ in range(35)] for _ in range(20)]
        for name, mode in (("X3", "h_zero"), ("I3", "h_zero"), ("R3", "h_zero"), ("D", "h_constant")):
            vecs += [vec for _, basis in symmetry_subspace(ckv_by_name(name), mode) for vec in basis]
        for vec in vecs:
            assert assemble_free(vec) == assemble_ckt(coefficients_from_free(vec))
        rows = vecs[18:23]  # random and scan vectors
        nv = 3 + len(rows)
        ts = [Poly.variable(3 + i, nv) for i in range(len(rows))]
        family = symbolic_family(rows)
        assert family == sum((extend_tensor(assemble_ckt(coefficients_from_free(row)), nv).scale(t)
                              for t, row in zip(ts, rows)), SymTensorField.combination([], nv))
        for bad in (vecs[0][:34], vecs[0] + [1]):
            with pytest.raises(CktError, match="35 free parameters"):
                assemble_free(bad)

    def test_e_entry_determines_c(self):
        raw = CktCoefficients.make(e=((0, 1, 0), (1, 0, 0), (0, 0, 0)))
        # Modulo the metric, the raw E.I term keeps a third of its weight in E
        # and moves the rest into C.
        reduced = coefficients_from_free([Fraction(1, 3) if coord in (("e", 0, 1), ("e", 1, 0)) else 0
                                          for coord in cc.FREE_COORDS])
        assert reduced.c[0][1] == 2 * reduced.e[0][1]
        # Same equivalence class: the difference is a multiple of the metric.
        diff = assemble_ckt(raw) - assemble_ckt(reduced)
        assert diff[0][1].is_zero and diff[0][2].is_zero and diff[1][2].is_zero
        assert diff[0][0] == diff[1][1] == diff[2][2]


def killing_obstruction(k: SymTensorField) -> cc.VectorField:
    """The curl of k, the Hodge dual of the two-form d(k-flat), as the
    components (23, 31, 12), from the contraction vector that ``verify_ckt``
    returns for the tensor itself: the oracle of ``obstruction_from_free``."""
    holds, kv = verify_ckt(k)
    if not holds:
        raise CktError("killing_obstruction requires a conformal Killing tensor")
    return cc.VectorField(tuple(kv[c].diff(b) - kv[b].diff(c) for b, c in ((1, 2), (2, 0), (0, 1))))


@functools.lru_cache(maxsize=None)
def basis_obstructions():
    return tuple(killing_obstruction(k) for k in cc._free_basis())


def obstruction_from_free(vec):
    """The Killing obstruction of the tensor sum_c x_c F_c of vec as a sum of
    polynomial fields: sum_c x_c times the obstruction of each basis tensor
    F_c, by ``killing_obstruction``.  The oracle of the integer table of
    ``killing_obstruction_terms``."""
    one = Poly.const(1, 3)
    columns = basis_obstructions()
    values = free_values(vec)
    return cc.VectorField(tuple(Poly.dot(3, [(rat(x), one, col[i]) for x, col in zip(values, columns)])
                                for i in range(3)))


def terms_field(terms):
    """The field of the {(component, packed monomial): coefficient} terms of
    ``killing_obstruction_terms``."""
    return cc.VectorField(tuple(Poly(3, {key: x for (i, key), x in terms.items() if i == component})
                                for component in range(3)))


class TestKillingObstruction:
    def test_killing_shaped_coefficients_pass(self, rng):
        for _ in range(25):
            vec = [Fraction(0)] * 35
            for idx, (block, i, j) in enumerate(cc.FREE_COORDS):
                if block in ("a", "b"):
                    vec[idx] = rand_fraction(rng)
                elif block == "e" and i <= j:
                    value = rand_fraction(rng)
                    vec[idx] = value
                    sym_idx = cc.FREE_COORDS.index(("e", j, i))
                    vec[sym_idx] = value
            assert killing_obstruction(assemble_free(vec)).is_zero

    def test_metric_passes(self):
        assert killing_obstruction(metric(3)).is_zero

    def test_inversion_square_obstructed(self):
        i3 = ckv_by_name("I3")
        assert not killing_obstruction(symmetric_product(i3, i3)).is_zero

    def test_g_m_or_antisymmetric_e_obstructs(self, rng):
        for _ in range(50):
            vec = [rand_fraction(rng, -3, 3) for _ in range(35)]
            coeffs = coefficients_from_free(vec)
            e = coeffs.e
            antisym = any(e[i][j] != e[j][i] for i in range(3) for j in range(3))
            has_g = any(x != 0 for row in coeffs.g for x in row)
            has_m = any(x != 0 for row in coeffs.m for x in row)
            obstructed = not killing_obstruction(assemble_free(vec)).is_zero
            assert obstructed == (antisym or has_g or has_m)

    def test_non_ckt_rejected(self):
        k = SymTensorField.from_upper(X ** 3, ZERO, ZERO, ZERO, ZERO, ZERO)
        with pytest.raises(CktError):
            killing_obstruction(k)

    def test_components_are_the_former_two_form(self, rng):
        # The two-form d(k-flat) as (d12, d13, d23) was returned before; the
        # curl (23, 31, 12) is (d23, -d13, d12).
        i3 = ckv_by_name("I3")
        tensors = [metric(3), symmetric_product(i3, i3)]
        tensors += [assemble_free([rand_fraction(rng, -3, 3) for _ in range(35)]) for _ in range(10)]
        for k in tensors:
            kv = oracle_contraction(k)
            d12 = kv[1].diff(0) - kv[0].diff(1)
            d13 = kv[2].diff(0) - kv[0].diff(2)
            d23 = kv[2].diff(1) - kv[1].diff(2)
            assert killing_obstruction(k).components == (d23, -d13, d12)


def killing_shaped(rng):
    """A free vector with only a, b and a symmetric e: Killing-representable."""
    vec = [Fraction(0)] * 35
    for idx, (block, i, j) in enumerate(cc.FREE_COORDS):
        if block in ("a", "b"):
            vec[idx] = rand_fraction(rng, -20, 20, 9)
        elif block == "e" and i <= j:
            vec[idx] = vec[cc.FREE_COORDS.index(("e", j, i))] = rand_fraction(rng, -20, 20, 9)
    return vec


def assert_killing_terms(vec):
    """The table's terms and flag for vec against both oracles: the tensor's
    own obstruction and the sum of the basis tensors' obstructions."""
    terms = killing_obstruction_terms(vec)
    expected = killing_obstruction(assemble_free(vec))
    assert terms_field(terms) == expected == obstruction_from_free(vec)
    assert all(x for x in terms.values())
    assert (not terms) == expected.is_zero
    return terms


class TestKillingMap:
    """``killing_obstruction_terms`` reads the cached integer table of the
    curls of the 35 basis tensors at the nonzero coordinates of a vector;
    the oracles are ``killing_obstruction`` of the tensor itself and the
    polynomial sum of ``obstruction_from_free``."""

    def test_seeded_vectors_match_the_tensor_route(self):
        rng = random.Random(4021)
        for trial in range(60):
            density = (0.15, 0.5, 1.0)[trial % 3]
            vec = [rand_fraction(rng, -20, 20, 9) if rng.random() < density else 0 for _ in range(35)]
            assert_killing_terms(vec)

    def test_table_is_integer_over_one_denominator(self):
        q, columns = cc._killing_columns()
        assert len(columns) == DIM_TRACE_FREE and q >= 1
        assert all(type(n) is int and n for column in columns for n in column.values())
        for c, column in enumerate(columns):
            assert terms_field({slot: Fraction(n, q) for slot, n in column.items()}) == obstruction_from_free(
                unit_vector(c))

    def test_entries_as_rat_reads_them(self):
        # The entries may be ints, Fractions or strings, as in free_json_dict.
        rng = random.Random(4023)
        for _ in range(20):
            vec = [rand_fraction(rng, -9, 9, 5) if rng.random() < 0.3 else 0 for _ in range(35)]
            terms = assert_killing_terms(vec)
            assert killing_obstruction_terms([str(x) for x in vec]) == terms

    def test_g_m_or_antisymmetric_e_obstructs(self):
        rng = random.Random(4022)
        blocks = {"g": [], "m": [], "e": []}
        for idx, (block, _, _) in enumerate(cc.FREE_COORDS):
            if block in blocks:
                blocks[block].append(idx)
        for trial in range(45):
            vec = killing_shaped(rng)
            assert not assert_killing_terms(vec)
            kind = ("g", "m", "e")[trial % 3]
            if kind == "e":  # an antisymmetric part added to e
                i, j = rng.choice([(0, 1), (0, 2), (1, 2)])
                w = rand_fraction(rng, 1, 9, 5) * rng.choice((-1, 1))
                vec[cc.FREE_COORDS.index(("e", i, j))] += w
                vec[cc.FREE_COORDS.index(("e", j, i))] -= w
            else:
                for idx in rng.sample(blocks[kind], rng.randint(1, len(blocks[kind]))):
                    vec[idx] = rand_fraction(rng, 1, 9, 5) * rng.choice((-1, 1))
            assert assert_killing_terms(vec), kind

    @pytest.mark.parametrize("name,h", SCAN_EIGENSPACES, ids=[f"{n} h={h}" for n, h in SCAN_EIGENSPACES])
    def test_scan_basis_vectors(self, name, h):
        _, basis = scan_eigenspace(name, h)
        for vec in basis:
            assert_killing_terms(vec)

    def test_wrong_length_raises(self):
        for bad in ([0] * 34, [0] * 36):
            with pytest.raises(CktError, match="35 free parameters"):
                killing_obstruction_terms(bad)

    def test_a_failing_basis_tensor_raises(self, monkeypatch):
        # The map checks every basis tensor when it is built; it is cached,
        # so it is cleared before the call and again at teardown.
        real = verify_ckt
        failing = cc._free_basis()[17]
        monkeypatch.setattr(cc, "verify_ckt", lambda k: (k is not failing and real(k)[0], real(k)[1]))
        cc._killing_columns.cache_clear()
        try:
            with pytest.raises(CktError, match="free basis tensor 17 fails"):
                killing_obstruction_terms([1] * 35)
        finally:
            cc._killing_columns.cache_clear()


def nijenhuis(k: SymTensorField):
    """Nijenhuis tensor N^i_jk = K^i_l K^l_[j,k] + K^l_[j K^i_k],l with the
    1/2-weighted antisymmetrization over (j, k)."""
    half = Fraction(1, 2)
    dk = [[[k[a][b].diff(c) for c in range(3)] for b in range(3)] for a in range(3)]
    out = []
    for i in range(3):
        plane = []
        for j in range(3):
            row = []
            for kk in range(3):
                acc = Poly.zero(k.nvars)
                for ll in range(3):
                    acc = acc + k[i][ll] * (dk[ll][j][kk] - dk[ll][kk][j])
                    acc = acc + k[ll][j] * dk[i][kk][ll] - k[ll][kk] * dk[i][j][ll]
                row.append(acc * half)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


class TestNijenhuis:
    def test_constant_tensor_vanishes(self):
        n = nijenhuis(metric(3))
        assert all(p.is_zero for plane in n for row in plane for p in row)

    def test_diagonal_fixture(self):
        k = SymTensorField.from_upper(Y, ZERO, ZERO, ONE, ZERO, ONE)
        n = nijenhuis(k)
        half = Poly.const(Fraction(1, 2), 3)
        assert n[0][0][1] == (Y - ONE) * half
        assert n[0][1][0] == (ONE - Y) * half
        nonzero = [(i, j, m) for i in range(3) for j in range(3) for m in range(3)
                   if not n[i][j][m].is_zero]
        assert sorted(nonzero) == [(0, 0, 1), (0, 1, 0)]
        assert tsn_check(k)


class TestTsn:
    def test_metric(self):
        assert tsn_check(metric(3))

    def test_rotation_square_plus_metric(self):
        r3 = ckv_by_name("R3")
        assert tsn_check(symmetric_product(r3, r3) + metric(3))

    def test_invariant_under_metric_shift(self, rng):
        r3 = ckv_by_name("R3")
        kernel = symmetry_subspace(r3, "h_zero")[0][1]
        filtered = tsn_filter(r3, kernel).subspace
        inside = assemble_free(filtered[0])
        outside = None
        for vec in kernel:
            if not tsn_check(assemble_free(vec)):
                outside = assemble_free(vec)
                break
        assert outside is not None
        for _ in range(5):
            f = Poly.from_terms({
                (rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1)): rand_fraction(rng)
            }, 3)
            shift = metric(3).scale(f)
            assert tsn_check(inside + shift)
            assert not tsn_check(outside + shift)


    def test_verdict_is_homogeneous(self, rng):
        from rotweb.rotational import RotParams, assemble_rotational
        tensors = [assemble_free(vec) for vec in symmetry_subspace(ckv_by_name("R3"), "h_zero")[0][1]]
        tensors += [assemble_rotational(RotParams.make(*(rand_fraction(rng) for _ in range(6))))
                    for _ in range(5)]
        tensors += [assemble_free([rand_fraction(rng, -3, 3) for _ in range(35)]) for _ in range(5)]
        verdicts = set()
        for k in tensors:
            verdict = tsn_check(k)
            for _ in range(2):
                q = rand_fraction(rng, 1, 9, 7) * rng.choice([-1, 1])
                assert tsn_check(k.scale(q)) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestLieDerivative:
    def test_rotational_invariance(self, rng):
        from rotweb.rotational import RotParams, assemble_rotational
        r3 = ckv_by_name("R3")
        p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
        assert lie_derivative(r3, assemble_rotational(p)).is_zero

    def test_dilation_weight(self):
        x3 = ckv_by_name("X3")
        k = symmetric_product(x3, x3)
        assert lie_derivative(ckv_by_name("D"), k) == k.scale(-2)

    def test_translation_kills_metric(self):
        assert lie_derivative(ckv_by_name("X3"), metric(3)).is_zero


class TestLeibnizRule:
    @pytest.mark.parametrize("index", range(10))
    def test_lie_derivative_of_products(self, index):
        # The derivation rule of leibniz_image, over every product X_a.X_b.
        basis = ckv_basis(3)
        v = basis[index]
        for a in range(10):
            for b in range(a, 10):
                assert lie_derivative(v, cc.basis_product(a, b)) == (
                    symmetric_product(commutator(v, basis[a]), basis[b])
                    + symmetric_product(basis[a], commutator(v, basis[b]))), (a, b)


def reference_lie_operator(v):
    """Lie_v on the 35 free coordinates through polynomial tensors: each
    basis tensor is differentiated by v itself and solved against the
    assembly matrix."""
    images = [lie_derivative(v, k).upper for k in cc._free_basis()]
    solutions = solve_many(cc._assembly_matrix(), images)
    if solutions is None:
        raise CktError("Lie derivative left the trace-free space; v is not a CKV")
    columns = [solution.dense(cc.DIM_TRACE_FREE) for solution in solutions]
    return [[columns[c][r] for c in range(cc.DIM_TRACE_FREE)] for r in range(cc.DIM_TRACE_FREE)]


def leibniz_image(k, c):
    """Lie_X F_c for the basis field X = X_k and the free basis tensor F_c,
    with no tensor differentiated: F_c is the sum of s X_p.X_q over the
    flat entries s of its unit blocks and their products (p, q) in
    ``_FLAT_PAIRS``, and Lie_X is a derivation on such products,
    Lie_X(X_p.X_q) = [X, X_p].X_q + X_p.[X, X_q]."""
    basis = ckv_basis(3)
    x = basis[k]
    flat, den = cc._free_numerators(cc._free_vector(unit_vector(c)))
    return SymTensorField.combination(
        [(Fraction(n, den), symmetric_product(commutator(x, basis[p]), basis[q])
          + symmetric_product(basis[p], commutator(x, basis[q])))
         for n, (p, q) in zip(flat, cc._FLAT_PAIRS) if n], 3)


class TestLieOperator:
    @pytest.mark.parametrize("index", range(10))
    def test_basis_fields_follow_the_leibniz_rule(self, index):
        d, columns = cc._basis_lie_columns(index)
        assert len(columns) == DIM_TRACE_FREE and d >= 1
        for c, column in enumerate(columns):
            vec = [Fraction(column.get(r, 0), d) for r in range(DIM_TRACE_FREE)]
            assert assemble_free(vec) == leibniz_image(index, c), c
        assert all(type(x) is int and x for column in columns for x in column.values())

    def test_rational_combinations_match_the_reference(self, rng):
        basis = ckv_basis(3)
        for _ in range(20):
            v = vector(ZERO, ZERO, ZERO)
            for field in rng.sample(basis, rng.randint(1, 10)):
                v = v + field.scale(rand_fraction(rng))
            assert lie_operator(v) == reference_lie_operator(v)

    @pytest.mark.parametrize("v", [vector(Y, ZERO, ZERO), vector(X * X, ZERO, ZERO),
                                   vector(X * Y * Z, ZERO, X * X * X)],
                             ids=["y_dx", "x2_dx", "cubic"])
    def test_non_ckvs_raise(self, v):
        with pytest.raises(CktError, match="left the trace-free space"):
            lie_operator(v)

    def test_an_image_outside_the_span_raises(self, monkeypatch):
        # K + g has a trace, so it lies outside the span of the trace-free
        # basis tensors.  The per-generator operators are cached from the
        # real Lie derivative; clear them before the call and again at
        # teardown.
        cc._basis_lie_columns.cache_clear()
        monkeypatch.setattr(cc, "lie_derivative", lambda v, k: k + metric(3))
        try:
            with pytest.raises(CktError, match="left the trace-free space"):
                lie_operator(ckv_by_name("X1"))
        finally:
            cc._basis_lie_columns.cache_clear()

    def test_a_degree_5_image_raises(self, monkeypatch):
        # A trace-free image of degree 5 has a monomial that no basis
        # tensor has, so no combination of them reaches it.
        cc._basis_lie_columns.cache_clear()
        bump = SymTensorField.from_upper(ZERO, X ** 5, ZERO, ZERO, ZERO, ZERO)
        monkeypatch.setattr(cc, "lie_derivative", lambda v, k: k + bump)
        try:
            with pytest.raises(CktError, match="left the trace-free space"):
                cc._basis_lie_columns(0)
        finally:
            cc._basis_lie_columns.cache_clear()


class TestDimension:
    @pytest.mark.parametrize("n,p,expected", [(3, 2, 35), (3, 1, 10), (4, 2, 84)])
    def test_values(self, n, p, expected):
        assert ckt_dimension(n, p) == expected

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 0)])
    def test_domain_errors(self, n, p):
        with pytest.raises(CktError):
            ckt_dimension(n, p)


class TestCoefficientsJson:
    def test_round_trip(self, rng):
        vec = [rand_fraction(rng) for _ in range(35)]
        coeffs = coefficients_from_free(vec)
        data = coefficients_json(coeffs)
        assert set(data) == {"A", "B", "C", "D", "E", "F", "G", "Hscalar", "L", "M"}
        assert CktCoefficients.from_json_dict(data) == coeffs

    def test_rational_strings(self):
        coeffs = CktCoefficients.make(h=Fraction(1, 3))
        assert coefficients_json(coeffs)["Hscalar"] == "1/3"


class TestGroupElementJson:
    def test_round_trip(self):
        from rotweb.group_action import GroupElement
        g = GroupElement.make(1, Fraction(-2, 3), 2, Fraction(1, 2), 4, True)
        data = g.to_json_dict()
        assert data == {"a0": "1", "a1": "-2/3", "a2": "2", "a3": "1/2", "a4": "4",
                        "discrete": True}
        assert GroupElement.make(*(data[k] for k in ("a0", "a1", "a2", "a3", "a4")),
                                 data["discrete"]) == g


class TestSymmetrySubspace:
    def test_rotation_kernel_and_filter(self):
        r3 = ckv_by_name("R3")
        (h, basis), = symmetry_subspace(r3, "h_zero")
        assert h == 0 and len(basis) == 9
        for vec in basis:
            assert lie_derivative(r3, assemble_free(vec)).is_zero
        result = tsn_filter(r3, basis)
        assert len(result.subspace) == 6
        assert result.variety_is_linear
        for vec in result.subspace:
            assert tsn_check(assemble_free(vec))

    def test_translation_kernel_pattern(self):
        x3 = ckv_by_name("X3")
        (h, basis), = symmetry_subspace(x3, "h_zero")
        assert len(basis) == 9
        for vec in basis:
            k = assemble_free(vec)
            assert lie_derivative(x3, k).is_zero
            assert tensor_degree(k) <= 2
            assert all(degree_in(p, 2) <= 0 for row in k.comps for p in row)
            assert killing_obstruction(k).is_zero
        # Requiring X3 as eigenvector leaves the printed six-parameter family:
        # only K11, K12, K22, K33 occupied, translation-invariant, degree <= 2.
        sub = tsn_filter(x3, basis).subspace
        assert len(sub) == 6
        for vec in sub:
            k = assemble_free(vec)
            assert k[0][2].is_zero and k[1][2].is_zero

    def test_dilation_eigenvalues(self):
        d = ckv_by_name("D")
        spaces = symmetry_subspace(d, "h_constant")
        eigen = {int(h): len(basis) for h, basis in spaces}
        assert eigen == {-2: 5, -1: 8, 0: 9, 1: 8, 2: 5}
        for h, basis in spaces:
            for vec in basis:
                k = assemble_free(vec)
                assert lie_derivative(d, k) == k.scale(h)

    def test_dilation_char_poly_is_product_over_eigenspaces(self):
        d = ckv_by_name("D")
        operator = lie_operator(d)
        expected = UniPoly([1])
        spaces = symmetry_subspace(d, "h_constant")
        for h, basis in spaces:
            for _ in basis:
                expected = expected * UniPoly([-h, 1])
        assert sum(len(basis) for _, basis in spaces) == cc.DIM_TRACE_FREE
        assert ref_monic(product(char_poly(operator))) == expected

    @pytest.mark.parametrize("name", ["X3", "I3", "R3"])
    def test_constant_mode_finds_only_the_kernel(self, name):
        v = ckv_by_name(name)
        spaces = symmetry_subspace(v, "h_constant")
        assert [h for h, _ in spaces] == [0]
        assert spaces == symmetry_subspace(v, "h_zero")

    def test_sparse_rows_match_the_dense_operator(self):
        # The scans read the operator's sparse rows; the dense matrix of
        # lie_operator gives the same kernel and eigenspaces.
        rng = random.Random(5)
        fields = list(ckv_basis(3))
        fields += [sum((f.scale(rand_fraction(rng)) for f in rng.sample(ckv_basis(3), 3)), vector(ZERO, ZERO, ZERO))
                   for _ in range(6)]
        for v in fields:
            operator = lie_operator(v)
            kernel = nullspace(operator, cc.DIM_TRACE_FREE)
            assert symmetry_subspace(v, "h_zero") == ([(0, kernel)] if kernel else [])
        for name in ("D", "R3", "X3"):
            v = ckv_by_name(name)
            assert symmetry_subspace(v, "h_constant") == rational_eigenvalues(lie_operator(v))

    def test_inversion_kernel_dimension(self):
        i3 = ckv_by_name("I3")
        (h, basis), = symmetry_subspace(i3, "h_zero")
        assert len(basis) == 9

    def test_bad_mode(self):
        with pytest.raises(CktError):
            symmetry_subspace(ckv_by_name("D"), "h_linear")

    def test_non_ckv_leaves_the_trace_free_space(self):
        # Lie_v maps CKTs to CKTs only for a CKV v; for x d/dx the assembly
        # system of lie_operator is inconsistent.
        with pytest.raises(CktError, match="left the trace-free space"):
            lie_operator(vector(X, ZERO, ZERO))


PLANES = [(var, value) for value in (0, 1) for var in range(3)]


def restricted_jet(k, plane):
    """K and its partials d_c K_ab, differentiated in x, y, z first and then
    restricted to the plane, in the slot order of ``_plane_jets``: the
    oracle of the cached plane jets."""
    var, value = plane
    return [p.restrict(var, value) for a, b in cc._UPPER
            for p in (k[a][b], k[a][b].diff(0), k[a][b].diff(1), k[a][b].diff(2))]


def plane_check(k, plane):
    """Whether the TSN scalars of K, cleared to integers, vanish on the
    plane: K and its 3-D partials restricted there, as grids."""
    _, k = cc._cleared(k)
    var, value = plane
    dk = cc._partials(k)
    on_plane = [[k[a][b].restrict(var, value) for b in range(3)] for a in range(3)]
    partials = [[[p.restrict(var, value) for p in dk[a][b]] for b in range(3)] for a in range(3)]
    return not any(cc._tsn_scalars(on_plane, partials))


def positive_ratio(jet, expected):
    """The r > 0 with jet = r expected, slot by slot; fails when there is
    none."""
    slot = next(s for s, p in enumerate(expected) if p)
    key, x = next(iter(expected[slot].terms.items()))
    r = Fraction(jet[slot].terms.get(key, 0)) / x
    assert r > 0
    assert jet == [p * r for p in expected]
    return r


def jets_on(plane, vecs):
    """``_jets_on`` of the vectors, read as ``tsn_filter`` reads them: their
    integer numerators over one common denominator."""
    vecs = [cc._free_vector(vec) for vec in vecs]
    d = math.lcm(*(vec.den for vec in vecs))
    return cc._jets_on(plane, [{c: n * (d // vec.den) for c, n in vec.entries} for vec in vecs], 4)


def eigenvector_rows(v, basis):
    """The rows (K.v) x v of the assembled tensors: the oracle."""
    return [eigenvector_cross(assemble_free(vec), v).components for vec in basis]


def plane_eigenvector_rows(v, basis):
    """The rows (K.v) x v read on the plane jets, as ``tsn_filter`` forms
    them."""
    var, value = plane = cc._transversal_plane(v)
    on_plane = cc.VectorField(tuple(p.restrict(var, value) for p in v.components))
    return [eigenvector_cross(SymTensorField.from_upper(*jet[::4]), on_plane).components
            for jet in jets_on(plane, basis)]


class TestPlaneJets:
    """``tsn_filter`` reads every condition on the sums of the cached plane
    jets of the 35 basis tensors; the tensors themselves, differentiated
    and then restricted, are the oracle."""

    @pytest.mark.parametrize("plane", PLANES, ids=[f"x{var}={value}" for var, value in PLANES])
    def test_jets_are_the_restricted_jets_of_the_tensor(self, plane):
        rng = random.Random(f"jets-{plane}")
        vecs = [vec for name, h in SCAN_EIGENSPACES for vec in scan_eigenspace(name, h)[1]]
        vecs += [[rand_fraction(rng, -9, 9, 7) if rng.random() < 0.5 else 0 for _ in range(35)]
                 for _ in range(20)]
        expected = [restricted_jet(assemble_free(vec), plane) for vec in vecs]
        for vec, oracle in zip(vecs, expected):
            positive_ratio(jets_on(plane, [vec])[0], oracle)
        # One call scales all its vectors by one common positive factor.
        jets = jets_on(plane, vecs[-5:])
        assert len({positive_ratio(jet, oracle) for jet, oracle in zip(jets, expected[-5:])}) == 1

    @pytest.mark.parametrize("name,h", SCAN_EIGENSPACES, ids=[f"{n} h={h}" for n, h in SCAN_EIGENSPACES])
    def test_scalars_are_the_restricted_scalars(self, name, h):
        # The three TSN scalars read on a jet are those of the tensor,
        # restricted, times r^2, r^3 and r^4 for the jet's factor r.
        v, basis = scan_eigenspace(name, h)
        var, value = plane = cc._transversal_plane(v)
        for vec, jet in zip(basis, jets_on(plane, basis)):
            _, k = cc._cleared(assemble_free(vec))
            r = positive_ratio(jet, restricted_jet(k, plane))
            dk = [[None] * 3 for _ in range(3)]
            for u, (a, b) in enumerate(cc._UPPER):
                dk[a][b] = dk[b][a] = jet[4 * u + 1:4 * u + 4]
            scalars = list(cc._tsn_scalars(SymTensorField.from_upper(*jet[::4]), dk))
            assert scalars == [p.restrict(var, value) * r ** e for p, e in zip(tsn_scalars(vec), (2, 3, 4))]

    @pytest.mark.parametrize("name,h", SCAN_EIGENSPACES, ids=[f"{n} h={h}" for n, h in SCAN_EIGENSPACES])
    def test_eigenvector_rows_on_the_plane(self, name, h):
        v, basis = scan_eigenspace(name, h)
        combos = vanishing_combinations(plane_eigenvector_rows(v, basis))
        assert combos == vanishing_combinations(eigenvector_rows(v, basis))
        sub = [combination(basis, combo) for combo in combos]
        members = tsn_filter(v, basis).subspace
        assert [vec.dense(35) for vec in members] == sub
        # Each member is in the unique form, as the elimination gives it.
        assert list(members) == [Numerators.of(vec) for vec in sub]

    def test_eigenvector_rows_on_random_kernels(self):
        rng = random.Random(8)
        for _ in range(6):
            v = sum((f.scale(rand_fraction(rng)) for f in ckv_basis(3)[1:]), ckv_basis(3)[0])
            (_, basis), = symmetry_subspace(v, "h_zero")
            assert (vanishing_combinations(plane_eigenvector_rows(v, basis))
                    == vanishing_combinations(eigenvector_rows(v, basis)))

    def test_reread_is_the_members_rows(self):
        # tsn_filter re-reads (K.v) x v on each member of its candidate as
        # the member's combination of the rows it has computed for the
        # basis; re-deriving them from the member's own jets gives the same
        # rows, up to one positive factor, for any combination.
        rng = random.Random(10)
        cases = [scan_eigenspace(name, h) for name, h in SCAN_EIGENSPACES]
        cases += [(v, symmetry_subspace(v, "h_zero")[0][1])
                  for v in translated_fields()[:2] + TWISTED[:3] + [seeded_field(rng)]]
        for v, basis in cases:
            images = plane_eigenvector_rows(v, basis)
            combos = vanishing_combinations(images)
            weights = combos + [Numerators.of([rand_fraction(rng, -3, 3) for _ in basis]) for _ in range(3)]
            for w in weights:
                combined = linalg.combination(w, images)
                rederived, = plane_eigenvector_rows(v, [combination(basis, w)])
                if any(rederived):
                    positive_ratio(combined, rederived)
                else:
                    assert not any(combined)
            assert all(not any(linalg.combination(w, images)) for w in combos)

    def test_certificate_reads_the_whole_family(self, monkeypatch):
        # Two subspace vectors whose sum is the first candidate and which are
        # not eigenvectors themselves: the first candidate plus an outside
        # direction, and minus it.  The certificate reads (K.v) x v on each
        # member, not only on their sum.
        r3 = ckv_by_name("R3")
        (_, basis), = symmetry_subspace(r3, "h_zero")
        combos = vanishing_combinations(eigenvector_rows(r3, basis))
        units = [[int(i == idx) for i in range(len(basis))] for idx in range(len(basis))]
        dense = [combo.dense(len(basis)) for combo in combos]
        unit = next(unit for unit in units if rank(dense + [unit]) > rank(dense))
        patched = [Numerators.of([a + b for a, b in zip(dense[0], unit)]), Numerators.of([-x for x in unit])]
        monkeypatch.setattr(linalg, "vanishing_combinations", lambda images: patched)
        with pytest.raises(CktError, match="fails the TSN conditions"):
            tsn_filter(r3, basis)


class TestTsnPlane:
    """``tsn_filter`` reads its conditions on a plane transversal to v; the
    unsliced ``tsn_check`` is the oracle."""

    @pytest.mark.parametrize("name,h", SCAN_EIGENSPACES, ids=[f"{n} h={h}" for n, h in SCAN_EIGENSPACES])
    def test_plane_verdict_matches_the_full_check(self, name, h):
        rng = random.Random(1)
        v, basis = scan_eigenspace(name, h)
        plane = cc._transversal_plane(v)
        sub = tsn_filter(v, basis).subspace
        if sub:
            assert tsn_check(symbolic_family(sub))
        vecs = list(basis)
        for members in (sub, basis):  # inside, then mostly outside the subspace
            if members:
                vecs += [combination(members, [rand_fraction(rng, -3, 3) for _ in members])
                         for _ in range(25)]
        for vec, jet in zip(vecs, jets_on(plane, vecs)):
            verdict = tsn_check(assemble_free(vec))
            assert cc._tsn_on(jet) == plane_check(assemble_free(vec), plane) == verdict

    def test_plane_chooser(self):
        expected = {"X1": (0, 0), "X2": (1, 0), "X3": (2, 0), "R1": (1, 0), "R2": (0, 0),
                    "R3": (0, 0), "D": (0, 1), "I1": (0, 0), "I2": (1, 0), "I3": (2, 0)}
        for name, plane in expected.items():
            assert cc._transversal_plane(ckv_by_name(name)) == plane
        rng = random.Random(2)
        fields = [ckv_by_name(name) for name in expected]
        fields += [sum((f.scale(rand_fraction(rng)) for f in ckv_basis(3)[1:]), ckv_basis(3)[0])
                   for _ in range(10)]
        for v in fields:
            var, value = cc._transversal_plane(v)
            assert not v[var].restrict(var, value).is_zero
        with pytest.raises(CktError, match="transversal"):
            cc._transversal_plane(vector(ZERO, ZERO, ZERO))

    def test_basis_outside_one_eigenspace_raises(self):
        d = ckv_by_name("D")
        spaces = symmetry_subspace(d, "h_constant")
        for _, basis in spaces:
            tsn_filter(d, basis)
        (_, first), (_, second) = spaces[3], spaces[4]
        with pytest.raises(CktError, match="one eigenspace"):
            tsn_filter(d, [first[0], second[0]])
        with pytest.raises(CktError, match="one eigenspace"):
            tsn_filter(d, first + [[a + b for a, b in zip(free_values(first[0]), free_values(second[0]))]])
        r3 = ckv_by_name("R3")
        (_, kernel), = symmetry_subspace(r3, "h_zero")
        units = ([Fraction(int(i == j)) for i in range(cc.DIM_TRACE_FREE)] for j in range(cc.DIM_TRACE_FREE))
        moved = next(vec for vec in units if not lie_derivative(r3, assemble_free(vec)).is_zero)
        with pytest.raises(CktError, match="one eigenspace"):
            tsn_filter(r3, kernel + [moved])


def spot_check_route(v, basis):
    """The outside directions of ``tsn_filter`` found with assembled
    tensors: membership by the rank of 35-long vectors, then the oracle's
    check on the plane for every direction outside."""
    plane = cc._transversal_plane(v)
    sub = [free_values(vec) for vec in tsn_filter(v, basis).subspace]
    base = rank(sub)
    return tuple(idx for idx, vec in enumerate(basis)
                 if rank(sub + [free_values(vec)]) > base and plane_check(assemble_free(vec), plane))


def tsn_scalars(vec):
    """The three scalars of ``tsn_check`` of ``assemble_free(vec)``, as
    polynomials of the cleared tensor."""
    _, k = cc._cleared(assemble_free(vec))
    return list(cc._tsn_scalars(k, cc._partials(k)))


def eager_tsn_scalars(k, dk):
    """The three scalars of ``_tsn_scalars`` with all nine torsion entries
    n(ll, j, kk) formed up front: the oracle of the lazy entries."""
    one = Poly.const(1, k[0][0].nvars)
    dot = functools.partial(Poly.dot, one.nvars)
    curl = [{(j, kk): dk[m][j][kk] - dk[m][kk][j] for j, kk in cc._PLANE_PAIRS} for m in range(3)]
    n = {(ll, j, kk): dot([product for m in range(3) for product in (
        (1, k[ll][m], curl[m][(j, kk)]), (1, k[m][j], dk[ll][kk][m]), (-1, k[m][kk], dk[ll][j][m]))])
        for j, kk in cc._PLANE_PAIRS for ll in range(3)}
    square = [[dot([(1, k[i][m], k[m][j]) for m in range(3)]) for j in range(3)] for i in range(3)]
    return [dot([(s, one, n[(i, j, kk)]) for i, j, kk, s in cc._SLOTS]),
            dot([(s, k[i][ll], n[(ll, j, kk)]) for i, j, kk, s in cc._SLOTS for ll in range(3)]),
            dot([(s, square[i][ll], n[(ll, j, kk)]) for i, j, kk, s in cc._SLOTS for ll in range(3)])]


def jet_entries(jet):
    """K and its partials dk[a][b] = (d_x, d_y, d_z) K_ab of a plane jet."""
    dk = [[None] * 3 for _ in range(3)]
    for u, (a, b) in enumerate(cc._UPPER):
        dk[a][b] = dk[b][a] = jet[4 * u + 1:4 * u + 4]
    return SymTensorField.from_upper(*jet[::4]), dk


class TestLazyTorsion:
    """``_tsn_scalars`` forms the torsion entries as the scalars read them;
    the eager entries are the oracle."""

    def test_jets_of_the_eight_scans(self):
        for name, h in SCAN_EIGENSPACES:
            v, basis = scan_eigenspace(name, h)
            for jet in jets_on(cc._transversal_plane(v), basis):
                k, dk = jet_entries(jet)
                assert list(cc._tsn_scalars(k, dk)) == eager_tsn_scalars(k, dk)

    def test_seeded_tensors(self, rng):
        from rotweb.rotational import RotParams, assemble_rotational
        tensors = [assemble_free([rand_fraction(rng, -3, 3) if rng.random() < 0.4 else 0 for _ in range(35)])
                   for _ in range(6)]
        tensors += [assemble_rotational(RotParams.make(*(rand_fraction(rng) for _ in range(6))))
                    for _ in range(4)]
        tensors += [metric(3), symmetric_product(ckv_by_name("R3"), ckv_by_name("R3")) + metric(3)]
        for k in tensors:
            _, cleared = cc._cleared(k)
            scalars = eager_tsn_scalars(cleared, cc._partials(cleared))
            assert list(cc._tsn_scalars(cleared, cc._partials(cleared))) == scalars
            assert tsn_check(k) == (not any(scalars))

    def test_a_failing_g_scalar_forms_three_entries(self, monkeypatch):
        # The six outside directions of D --h 0 fail at the g-scalar, which
        # reads the three torsion entries at _SLOTS and no other.
        d = ckv_by_name("D")
        (_, kernel), = symmetry_subspace(d, "h_zero")
        outside = [jet for jet in jets_on(cc._transversal_plane(d), kernel)
                   if eager_tsn_scalars(*jet_entries(jet))[0]]
        assert len(outside) == 6
        real, calls = Poly.dot, []

        def counted(nvars, products):
            calls.append(nvars)
            return real(nvars, products)

        monkeypatch.setattr(Poly, "dot", staticmethod(counted))
        for jet in outside:
            calls.clear()
            assert next(cc._tsn_scalars(*jet_entries(jet)))
            assert len(calls) == 3 + 1


class TestSpotChecks:
    """``tsn_filter`` spot-checks each direction outside the candidate on
    its plane jet; the assembled tensor checked on the plane is the
    oracle."""

    def test_plane_chooser_planes_are_covered(self):
        rng = random.Random(6)
        fields = list(ckv_basis(3))
        fields += [sum((f.scale(rand_fraction(rng)) for f in rng.sample(ckv_basis(3), 4)), vector(ZERO, ZERO, ZERO))
                   for _ in range(20)]
        assert {cc._transversal_plane(v) for v in fields} <= set(PLANES)

    @pytest.mark.parametrize("name,h", SCAN_EIGENSPACES, ids=[f"{n} h={h}" for n, h in SCAN_EIGENSPACES])
    def test_filter_matches_the_spot_check_route(self, name, h):
        rng = random.Random(f"spot-{name}{h}")
        v, basis = scan_eigenspace(name, h)
        bases = [basis, basis[::-1], rng.sample(basis, len(basis) // 2 + 1)]
        # A change of basis of the same span: a unit lower-triangular mix.
        weights = [[rand_fraction(rng, -2, 2) for _ in range(i)] for i in range(len(basis))]
        values = [free_values(vec) for vec in basis]
        mixed = [[x + sum(w * values[j][c] for j, w in enumerate(weights[i])) for c, x in enumerate(vec)]
                 for i, vec in enumerate(values)]
        bases.append(mixed)
        for members in bases:
            result = tsn_filter(v, members)
            assert result.outside_tsn_directions == spot_check_route(v, members)


def point_values(plane, vecs):
    """The 24 integer values at the point of ``_plane_point`` of the jets of
    ``jets_on(plane, vecs)``, summed from the basis tensors' values there
    as ``tsn_filter`` sums them."""
    vecs = [cc._free_vector(vec) for vec in vecs]
    d = math.lcm(*(vec.den for vec in vecs))
    point = cc._plane_point(plane)
    return [[sum(n * (d // vec.den) * point[c][s] for c, n in vec.entries) for s in range(24)] for vec in vecs]


def plane_point(plane):
    var, value = plane
    return [value if i == var else x for i, x in enumerate(cc._POINT)]


# The outside directions that tsn_filter reports on the four h = 0 kernels.
KERNEL_OUTSIDE = {"X3": (3, 4), "D": (), "I3": (7, 8), "R3": ()}


class TestPointRefutation:
    """``tsn_filter`` refutes a spot-checked direction by a nonzero value of
    a TSN scalar at one point of its plane, and tests the polynomial jets of
    the others; the jets, and their scalars, evaluated at the point are the
    oracle."""

    @pytest.mark.parametrize("plane", PLANES, ids=[f"x{var}={value}" for var, value in PLANES])
    def test_values_are_the_jets_at_the_point(self, plane):
        rng = random.Random(f"point-{plane}")
        vecs = [vec for name, h in SCAN_EIGENSPACES for vec in scan_eigenspace(name, h)[1]]
        vecs += [[rand_fraction(rng, -9, 9, 7) if rng.random() < 0.5 else 0 for _ in range(35)]
                 for _ in range(10)]
        point = plane_point(plane)
        for values, jet in zip(point_values(plane, vecs), jets_on(plane, vecs)):
            assert values == [evaluate(p, point) for p in jet]
            assert (list(cc._tsn_scalars(*jet_entries(values)))
                    == [evaluate(p, point) for p in cc._tsn_scalars(*jet_entries(jet))])

    @pytest.mark.parametrize("name", list(KERNEL_OUTSIDE))
    def test_a_refuted_direction_fails_on_its_jet(self, name):
        # Every kernel direction, the members of the candidate and seeded
        # combinations: none refuted at the point passes on its jet, and
        # every outside direction but the reported ones is refuted.
        rng = random.Random(f"refute-{name}")
        v = ckv_by_name(name)
        (_, kernel), = symmetry_subspace(v, "h_zero")
        result = tsn_filter(v, kernel)
        assert result.outside_tsn_directions == KERNEL_OUTSIDE[name]
        vecs = list(kernel) + list(result.subspace)
        vecs += [combination(kernel, [rand_fraction(rng, -3, 3) for _ in kernel]) for _ in range(10)]
        plane = cc._transversal_plane(v)
        verdicts = [(not cc._tsn_on(values), cc._tsn_on(jet))
                    for values, jet in zip(point_values(plane, vecs), jets_on(plane, vecs))]
        assert not any(refuted and passes for refuted, passes in verdicts)
        assert all(passes for _, passes in verdicts[len(kernel):len(kernel) + len(result.subspace)])
        inside = {combo.entries[0][0] for combo in vanishing_combinations(plane_eigenvector_rows(v, kernel))
                  if len(combo.entries) == 1}
        assert [idx for idx, (refuted, _) in enumerate(verdicts[:len(kernel)])
                if idx not in inside and not refuted] == list(KERNEL_OUTSIDE[name])

    def test_warm_scans_form_derivative_jets_for_the_reported_directions(self, capsys, monkeypatch):
        from rotweb.cli import main

        real, formed = cc._jets_on, []

        def counted(plane, rows, width):
            if width == 4:
                formed.extend(rows)
            return real(plane, rows, width)

        for name in KERNEL_OUTSIDE:
            assert main(["symmetry", name, "--h", "0"]) == 0
        monkeypatch.setattr(cc, "_jets_on", counted)
        for name, reported in KERNEL_OUTSIDE.items():
            formed.clear()
            assert main(["symmetry", name, "--h", "0"]) == 0
            assert len(formed) == len(reported) == (2 if name in ("X3", "I3") else 0)
        capsys.readouterr()


def twist(v):
    """v . curl v, multiplied out term by term: the oracle of ``_twist``."""
    curl = (v[2].diff(1) - v[1].diff(2), v[0].diff(2) - v[2].diff(0), v[1].diff(0) - v[0].diff(1))
    return v[0] * curl[0] + v[1] * curl[1] + v[2] * curl[2]


def field(weights):
    """sum c X over the {name: c} of ``ckv_basis`` fields."""
    return sum((ckv_by_name(name).scale(c) for name, c in weights.items()), vector(ZERO, ZERO, ZERO))


def seeded_field(rng):
    return sum((f.scale(rand_fraction(rng)) for f in ckv_basis(3)[1:]), ckv_basis(3)[0])


# Eighteen conformal Killing vectors: the ten basis fields and two sums are
# hypersurface-orthogonal, two sums and four seeded combinations are not.
ORTHOGONAL = [field({name: 1}) for name in cc._NAMES] + [field({"X3": 1, "I3": 1}), field({"X1": 1, "R3": 1})]
TWISTED = [field({"R3": 1, "D": 1}), field({"X3": 1, "R3": 1})]
TWISTED += [seeded_field(random.Random(f"twisted-{seed}")) for seed in range(4)]


def translated_fields():
    """Seeded hypersurface-orthogonal fields off the baseline: dilations
    about a point, D + a X1 + b X2 + c X3 (curl 0), and rotations about a
    shifted axis, R3 + a X1 + b X2 (curl along z, v_z = 0)."""
    rng = random.Random(12)
    fields = []
    for _ in range(3):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        fields += [field({"D": 1, "X1": a, "X2": b, "X3": c}), field({"R3": 1, "X1": a, "X2": b})]
    return fields


class TestHypersurfaceOrthogonality:
    """``tsn_filter`` certifies its candidate by the lemma in its docstring:
    for v with v . curl v = 0, every member of an eigenspace of Lie_v that
    has v as an eigenvector satisfies the TSN conditions.  The symbolic
    family of the members, checked by ``tsn_check``, is the oracle."""

    def test_twist_splits_the_fields(self):
        for v in ORTHOGONAL + translated_fields():
            assert cc._twist(v) == twist(v)
            assert cc._twist(v).is_zero
        for v in TWISTED:
            assert cc._twist(v) == twist(v)
            assert not cc._twist(v).is_zero

    def test_certified_subspaces_satisfy_tsn(self):
        rng = random.Random(13)
        for v in ORTHOGONAL + translated_fields():
            (_, kernel), = symmetry_subspace(v, "h_zero")
            half = rng.sample(kernel, len(kernel) // 2)
            for basis, dimension in ((kernel, 6), (half, None)):
                sub = tsn_filter(v, basis).subspace
                assert len(sub) == len(vanishing_combinations(eigenvector_rows(v, basis)))
                assert dimension in (None, len(sub))
                if sub:
                    assert tsn_check(symbolic_family(sub))

    def test_outside_directions_match_the_spot_check_route(self):
        # The point refutation leaves the outside directions of every
        # certified kernel as the assembled tensors give them.
        for v in ORTHOGONAL + translated_fields():
            (_, kernel), = symmetry_subspace(v, "h_zero")
            assert tsn_filter(v, kernel).outside_tsn_directions == spot_check_route(v, kernel)

    def test_twisted_candidates_raise(self):
        # The candidate is nonempty and fails the TSN conditions: the
        # lemma's hypothesis v . curl v = 0 cannot be dropped.
        for v in TWISTED:
            (_, kernel), = symmetry_subspace(v, "h_zero")
            combos = vanishing_combinations(eigenvector_rows(v, kernel))
            assert combos
            assert not tsn_check(symbolic_family([combination(kernel, combo) for combo in combos]))
            with pytest.raises(CktError, match="not hypersurface-orthogonal"):
                tsn_filter(v, kernel)

    def test_twisted_field_with_an_empty_candidate_answers(self):
        v = TWISTED[0]
        spaces = [basis for h, basis in symmetry_subspace(v, "h_constant") if h]
        (_, kernel), = symmetry_subspace(v, "h_zero")
        combos = vanishing_combinations(eigenvector_rows(v, kernel))
        spaces += [[vec] for vec in kernel if combination(kernel, combos[0]) != free_values(vec)]
        assert len(spaces) == 7
        for basis in spaces:
            result = tsn_filter(v, basis)
            assert result.subspace == ()
            assert result.outside_tsn_directions == spot_check_route(v, basis)
