import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from rotweb import ckt_core as cc
from rotweb.ckt_core import (CktError, SymTensorField, ckv_by_name, lie_derivative, metric, symmetric_product,
                             tsn_check)
from rotweb.exactmath import Poly
from rotweb.linalg import rank
from rotweb.rotational import (_PIECES, RotParams, assemble_rotational, catalog,
                               cyclide_surface_residual, eigenvalues_at,
                               extract_parameters, rotational_eigencondition)

from conftest import assemble_free, matrix_at, rand_fraction, symbolic_rotational
from ref_univariate import UniPoly, ints, singular_polynomial

X = Poly.variable(0, 3)
ZERO = Poly.zero(3)


class TestAssemble:
    def test_pure_rotation_square(self):
        k = assemble_rotational(RotParams.make(c33=1))
        r3 = ckv_by_name("R3")
        assert k == symmetric_product(r3, r3)

    def test_pure_dilation_square(self):
        k = assemble_rotational(RotParams.make(h=1))
        coords = [Poly.variable(i, 3) for i in range(3)]
        for i in range(3):
            for j in range(3):
                assert k[i][j] == coords[i] * coords[j]

    def test_family_is_symmetric_normal(self, rng):
        r3 = ckv_by_name("R3")
        for _ in range(20):
            p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
            k = assemble_rotational(p)
            assert lie_derivative(r3, k).is_zero
            assert tsn_check(k)
            assert rotational_eigencondition(k)

    def test_symbolic_family_checks(self):
        """One symbolic run covers the whole six-parameter family."""
        k = symbolic_rotational(9)
        assert lie_derivative(cc.ckv_basis(9)[5], k).is_zero
        assert tsn_check(k)
        assert rotational_eigencondition(k)


def oracle_extract(k):
    """The former polynomial route: the precondition by ``verify_ckt`` and
    the eigencondition, then the six parameters read off six monomials of
    K_xy, K_xz, K_yy and K_zz that adding f g leaves alone."""
    if not cc.verify_ckt(k)[0]:
        raise CktError("extract_parameters precondition failed: not a conformal Killing tensor")
    if not rotational_eigencondition(k):
        raise CktError("extract_parameters precondition failed: R3 is not an eigenvector "
                       "(tensor is not rotationally symmetric modulo metric multiples)")
    k12, k13 = k[0][1], k[0][2]
    h = k13.coeff((1, 0, 1))
    return RotParams(k12.coeff((1, 1, 2)) / 4, k12.coeff((1, 1, 1)) / 2, h, h - k12.coeff((1, 1, 0)),
                     2 * k13.coeff((1, 0, 0)), k[2][2].coeff((0, 0, 0)) - k[1][1].coeff((0, 0, 0)))


def metric_free_columns(tensors):
    """K_xy, K_xz, K_yz, K_xx - K_zz and K_yy - K_zz of each tensor."""
    return [(k[0][1], k[0][2], k[1][2], k[0][0] - k[2][2], k[1][1] - k[2][2]) for k in tensors]


def column_rank(columns):
    """The rank of polynomial columns, each read as its coefficients per
    (component, monomial)."""
    rows = {}
    for c, column in enumerate(columns):
        for i, poly in enumerate(column):
            for exps, coeff in poly.exponent_items():
                rows.setdefault((i, exps), [0] * len(columns))[c] = coeff
    return rank(list(rows.values()))


def seeded_shifts(count):
    """count pairs (p, K + f g), K = assemble_rotational(p): integer
    parameters in the first third, p/q after; f of degree <= 3 with
    rational coefficients."""
    rng = random.Random("extract-shifts")
    monomials = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]
    out = []
    for i in range(count):
        if i < count // 3:
            p = RotParams.make(*(rng.randint(-9, 9) for _ in range(6)))
        else:
            p = RotParams.make(*(rand_fraction(rng, -9, 9, 7) for _ in range(6)))
        f = Poly.from_terms({m: rand_fraction(rng, -5, 5, 6) for m in rng.sample(monomials, rng.randint(0, 6))}, 3)
        out.append((p, assemble_rotational(p) + metric(3).scale(f)))
    return out


def refusal(route, k):
    with pytest.raises(CktError) as info:
        route(k)
    return str(info.value)


class TestExtract:
    def test_round_trip(self, rng):
        for _ in range(50):
            p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
            assert extract_parameters(assemble_rotational(p)) == p

    def test_stable_under_metric_shift(self, rng):
        p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
        k = assemble_rotational(p)
        f = Poly.from_terms({(2, 0, 0): Fraction(1), (0, 0, 1): Fraction(1)}, 3)
        assert extract_parameters(k + metric(3).scale(f)) == p

    def test_rotation_square_parameters(self):
        r3 = ckv_by_name("R3")
        assert extract_parameters(symmetric_product(r3, r3)) == RotParams.make(c33=1)

    def test_precondition_failure_is_named(self):
        x1 = ckv_by_name("X1")
        with pytest.raises(CktError, match="eigenvector"):
            extract_parameters(symmetric_product(x1, x1))

    def test_catalog_rows_match_the_oracle(self):
        for entry in catalog():
            k = assemble_rotational(entry.params)
            assert extract_parameters(k) == oracle_extract(k) == entry.params, entry.name

    def test_seeded_metric_shifts_match_the_oracle(self):
        for p, k in seeded_shifts(200):
            assert extract_parameters(k) == oracle_extract(k) == p

    def test_metric_reads_zero(self):
        assert extract_parameters(metric(3)) == oracle_extract(metric(3)) == RotParams.make()


class TestExtractRefusals:
    NOT_CKT = "not a conformal Killing tensor"
    NOT_ROTATIONAL = "R3 is not an eigenvector"

    def test_degree_five_component(self):
        k = SymTensorField.from_upper(X ** 5, ZERO, ZERO, ZERO, ZERO, ZERO)
        assert self.NOT_CKT in refusal(extract_parameters, k) == refusal(oracle_extract, k)

    def test_cubic_added_to_xx(self, rng):
        p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
        base = assemble_rotational(p)
        k = SymTensorField.from_upper(base[0][0] + X ** 3, *base.upper[1:])
        assert self.NOT_CKT in refusal(extract_parameters, k) == refusal(oracle_extract, k)

    def test_free_basis_combination(self):
        rng = random.Random("extract-free")
        for _ in range(5):
            k = assemble_free([rand_fraction(rng, -9, 9, 7) for _ in range(cc.DIM_TRACE_FREE)])
            assert cc.verify_ckt(k)[0] and not rotational_eigencondition(k)
            assert self.NOT_ROTATIONAL in refusal(extract_parameters, k) == refusal(oracle_extract, k)

    def test_pieces_independent_modulo_metric(self):
        pieces = [cc.basis_product(*key) for key in _PIECES]
        assert column_rank(metric_free_columns(pieces)) == 6

    def test_free_basis_spans_the_trace_free_ckts(self):
        tensors = [SymTensorField.from_upper(*upper) for upper in cc._assembly_matrix()]
        assert len(tensors) == cc.ckt_dimension(3, 2) == 35
        assert column_rank(metric_free_columns(tensors)) == 35


class TestSingularPolynomial:
    def test_toroidal_row(self):
        p = RotParams.make(Fraction(1, 4), 0, Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 4))
        q = singular_polynomial(p)
        quarter = Fraction(1, 4)
        assert q == UniPoly([1, 0, 2, 0, 1]) * quarter

    def test_cardioid_row(self):
        assert singular_polynomial(RotParams.make(l3=1)) == UniPoly([0, 0, 0, 1])

    def test_zero(self):
        assert singular_polynomial(RotParams.make()).is_zero

    def test_c33_unused(self, rng):
        p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
        shifted = RotParams.make(p.m33, p.l3, p.h, p.c33 + 5, p.d3, p.a33)
        assert singular_polynomial(p) == singular_polynomial(shifted)


class TestEigenvalues:
    def test_pure_rotation(self):
        lam1, a, b = eigenvalues_at(RotParams.make(c33=1), (1, 2, 2))
        assert (lam1, a, b) == (5, 0, 0)

    def test_on_axis_degeneration(self):
        p = RotParams.make(a33=1)
        lam1, a, b = eigenvalues_at(p, (0, 0, 1))
        q = singular_polynomial(p)
        qval = q.eval(1)
        lam2 = (a + b ** Fraction(1, 2)) / 2 if b >= 0 else None
        assert lam1 == 0
        assert (a + abs(qval)) / 2 == 1 and (a - abs(qval)) / 2 == 0

    def test_matches_numeric_diagonalization(self, rng):
        for _ in range(40):
            p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
            point = tuple(rand_fraction(rng, -5, 5) for _ in range(3))
            if point[0] == 0 and point[1] == 0:
                continue
            lam1, a, b = eigenvalues_at(p, point)
            matrix = np.array([[float(x) for x in row]
                               for row in matrix_at(assemble_rotational(p), point)])
            eigs = sorted(np.linalg.eigvalsh(matrix))
            mine = sorted([float(lam1),
                           (float(a) + float(b) ** 0.5) / 2,
                           (float(a) - float(b) ** 0.5) / 2])
            scale = max(1.0, max(abs(e) for e in eigs))
            assert all(abs(x - y) <= 1e-10 * scale for x, y in zip(eigs, mine))

    def test_all_eigenvalues_coincide_at_singular_roots(self):
        """At every nonzero rational root of a catalog row's singular
        polynomial, all three eigenvalues coincide with lambda1 = 0 (the
        origin is excluded: the formulas have r^2 poles there)."""
        from rotweb.exactmath import rational_roots
        found = 0
        for entry in catalog():
            q = singular_polynomial(entry.params)
            if q.is_zero:
                continue
            for z0 in rational_roots(ints(q)):
                if z0 == 0:
                    continue
                found += 1
                lam1, a, b = eigenvalues_at(entry.params, (0, 0, z0))
                assert lam1 == 0 and a == 0 and b == 0
        assert found >= 6  # bi-cyclide contributes four, spheroidal rows two each

    def test_origin_rejected(self):
        with pytest.raises(CktError):
            eigenvalues_at(RotParams.make(h=1), (0, 0, 0))


class TestCyclideSurface:
    def test_expanded_identity(self):
        """r^8 ([2(h - C33) rho^2 + A]^2 - B) = r^8 rho^2 expanded, as an exact
        identity in x, y, z, h and all six parameters."""
        nv = 10
        m33, l3, hh, c33, d3, a33 = (Poly.variable(3 + i, nv) for i in range(6))
        hvar = Poly.variable(9, nv)
        x, y, z = (Poly.variable(i, nv) for i in range(3))
        rho2 = x * x + y * y
        r2 = rho2 + z * z
        ch = c33 - hvar
        expanded = ((4 * (hh - ch) * m33 - l3 * l3) * r2 * r2
                    + (8 * m33 * d3 - 4 * ch * l3) * r2 * z
                    + (2 * l3 * d3 - 4 * ch * hh) * r2
                    + 16 * m33 * a33 * z * z + 4 * ch * ch * rho2
                    + (8 * l3 * a33 - 4 * ch * d3) * z
                    - d3 * d3 + 4 * (hh - ch) * a33)
        a_val = r2 * r2 * m33 + z * r2 * l3 + r2 * hh + z * d3 + a33
        bracket = r2 * r2 * (r2 * l3 + 2 * z * hh) + r2 * (4 * z * z - r2) * d3 \
            + 4 * z * (2 * z * z - r2) * a33
        term2 = r2 * r2 * (r2 * r2 * m33 + z * r2 * l3 + (2 * z * z - r2) * hh) \
            + r2 * z * (4 * z * z - 3 * r2) * d3 \
            + (r2 * r2 - 8 * z * z * (r2 - z * z)) * a33
        b_r8 = rho2 * bracket * bracket + term2 * term2
        lhs = 2 * (hvar - c33) * rho2 + a_val
        r8 = r2 ** 4
        assert (r8 * lhs * lhs - b_r8 - r8 * rho2 * expanded).is_zero

    def test_spheres_of_the_spherical_web(self):
        entry = next(e for e in catalog() if e.name == "spherical")
        # Points on the sphere of radius 2 all satisfy the same h-surface.
        points = [(2, 0, 0), (0, 2, 0), (Fraction(6, 5), Fraction(8, 5), 0),
                  (Fraction(2, 3), Fraction(4, 3), Fraction(4, 3))]
        residuals = set()
        for point in points:
            x, y, z = (Fraction(v) for v in point)
            assert x * x + y * y + z * z == 4
        # Concentric spheres all sit at the degenerate parameter h = -1 (the
        # residual vanishes identically there), so every sphere point passes.
        for point in points:
            assert cyclide_surface_residual(entry.params, Fraction(-1), point) == 0
        # The non-degenerate family of this web is the cones r^2 = (C33 - h) rho^2;
        # h = -2 gives the equatorial plane: it holds exactly on z = 0 and
        # fails off it.
        for point in points:
            residual = cyclide_surface_residual(entry.params, Fraction(-2), point)
            assert (residual == 0) == (point[2] == 0)

    def test_on_axis_unexpanded_form_vanishes(self, rng):
        """On the axis A^2 = B, so the unexpanded surface equation is zero
        there regardless of h; the expanded polynomial form is its quotient
        by rho^2 and need not vanish."""
        for _ in range(10):
            p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
            z0 = rand_fraction(rng)
            if z0 == 0:
                continue
            lam1, a, b = eigenvalues_at(p, (0, 0, z0))
            assert a * a == b


class TestEigencondition:
    def test_family_members_pass(self, rng):
        p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
        assert rotational_eigencondition(assemble_rotational(p))

    def test_translation_square_fails(self):
        x1 = ckv_by_name("X1")
        assert not rotational_eigencondition(symmetric_product(x1, x1))

    def test_metric_passes(self):
        assert rotational_eigencondition(metric(3))


class TestCatalog:
    def test_fifteen_rows(self):
        entries = catalog()
        assert len(entries) == 15
        assert [e.name for e in entries][:4] == [
            "bi_cyclide", "flat_ring_cyclide", "disk_cyclide", "cap_cyclide"]

    def test_toroidal_row_values(self):
        entry = next(e for e in catalog() if e.name == "toroidal")
        assert entry.params == RotParams.make(
            Fraction(1, 4), 0, Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 4))

    def test_scale_instantiation(self):
        entry = next(e for e in catalog(2, Fraction(1, 3)) if e.name == "bi_cyclide")
        assert entry.params.m33 == Fraction(-1, 36)
        assert entry.params.a33 == -4

    def test_inadmissible_scales_rejected(self):
        with pytest.raises(CktError):
            catalog(0, Fraction(1, 2))
        with pytest.raises(CktError):
            catalog(1, 1)

    def test_equivalence_notes(self):
        partners = {e.name: e for e in catalog()}
        assert partners["prolate_spheroidal"].equivalent_to == "inverse_prolate_spheroidal"
        assert partners["cap_cyclide"].equivalent_to == "flat_ring_cyclide"
        assert partners["cylindrical"].transformation == "discrete inversion"

    def test_env_var_override(self, tmp_path, monkeypatch):
        import json
        from rotweb.rotational import load_catalog_data
        data = load_catalog_data()
        data["rows"][0]["expected_type"] = "toroidal"
        override = tmp_path / "catalog.json"
        override.write_text(json.dumps(data))
        monkeypatch.setenv("ROTWEB_CATALOG", str(override))
        entries = catalog()
        assert entries[0].expected_type == "toroidal"
