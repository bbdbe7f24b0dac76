"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Sizes and tolerances are pinned here, not configurable."""

import random
import time
from fractions import Fraction

import numpy as np

from rotweb import ckt_core as cc
from rotweb import linalg
from rotweb.ckt_core import (ckt_dimension, ckv_basis, conformal_factor, lie_derivative, metric,
                             symmetry_subspace, tsn_check, tsn_filter)
from rotweb.exactmath import Poly
from rotweb.group_action import GroupElement, apply_quartic
from rotweb.quartic_class import (BinaryQuartic, WebType, classify_by_invariants,
                                  classify_by_roots, form_sign, FormSign, hessian, invariants,
                                  root_structure)
from rotweb.rotational import RotParams, assemble_rotational, catalog, eigenvalues_at, \
    extract_parameters, rotational_eigencondition
from rotweb.separability import Potential, classify_potential, solve_compatible

from conftest import assemble_free, ckv_coords, degree_in, matrix_at, tensor_degree
from ref_covariants import covariant_l, form_is_zero
from ref_univariate import dehomogenize, singular_polynomial
from test_ckt_core import commutator, expected_commutator, killing_obstruction
from test_group_action import covariance_residual


def report(number: int, description: str, started: float, limit: float) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s < {limit:.0f}s) {description}")
    assert elapsed < limit


def test_criterion_1_dimensions_and_commutators():
    started = time.time()
    assert ckt_dimension(3, 2) == 35
    basis = ckv_basis(3)
    assert len(basis) == 10
    for field in basis:
        assert conformal_factor(field) is not None
    for i in range(10):
        for j in range(10):
            assert commutator(basis[i], basis[j]) == expected_commutator(i, j)
    report(1, "dimension 35, ten conformal generators, full commutator table", started, 1.0)


def test_criterion_2_rotational_family_bulk():
    started = time.time()
    rng = random.Random(2026)
    r3 = cc.ckv_by_name("R3")
    for trial in range(1000):
        p = RotParams.make(*(rng.randint(-9, 9) for _ in range(6)))
        k = assemble_rotational(p)
        assert lie_derivative(r3, k).is_zero
        assert tsn_check(k)
        assert rotational_eigencondition(k)
        assert extract_parameters(k) == p
        monomials = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                     (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        f = Poly.from_terms({
            rng.choice(monomials): Fraction(rng.randint(-5, 5)),
            rng.choice(monomials): Fraction(rng.randint(-5, 5)),
        }, 3)
        assert extract_parameters(k + metric(3).scale(f)) == p
    report(2, "1000 random rotational tensors: symmetry, TSN, eigencondition, round-trip",
           started, 60.0)


def test_criterion_3_table_reproduction():
    started = time.time()
    for a, k in ((Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(1, 3))):
        entries = catalog(a, k)
        assert len(entries) == 15
        by_name = {e.name: e for e in entries}
        for entry in entries:
            quartic = BinaryQuartic.from_rot_params(entry.params)
            assert classify_by_roots(quartic).value == entry.expected_type, entry.name
        assert by_name["cap_cyclide"].expected_type == "flat_ring_cyclide"
        # Explicit witnesses from the catalog: the moved quartic must be
        # exactly proportional to the partner row's quartic.
        witnessed = [e for e in entries if e.witness is not None]
        assert {e.name for e in witnessed} == {"prolate_spheroidal", "oblate_spheroidal",
                                               "parabolical", "cylindrical", "spherical"}
        for entry in witnessed:
            partner = by_name[entry.equivalent_to]
            moved = apply_quartic(entry.witness, entry.params.quartic_tuple())
            target = partner.params.quartic_tuple()
            pairs = [(m, t) for m, t in zip(moved, target) if m != 0 or t != 0]
            assert pairs and all(m * pairs[0][1] == t * pairs[0][0] for m, t in pairs), entry.name
        # Type-level verification of the equivalence without a witness.
        entry = by_name["cap_cyclide"]
        assert entry.witness is None
        assert entry.expected_type == by_name[entry.equivalent_to].expected_type
    report(3, "15 catalog rows at two instantiations, six equivalences verified", started, 10.0)


def test_criterion_4_worked_example():
    started = time.time()
    pot = Potential.from_expression("-4/((x^2+y^2+z^2-1)^2 + 4*z^2)", 0)
    solution = solve_compatible(pot)
    assert solution.dimension == 2
    rows = [list(p.as_tuple()) for p in solution.basis]
    for member in ([Fraction(1, 2), 0, 1, 0, 0, Fraction(1, 2)], [0, 0, 0, 1, 0, 0]):
        assert linalg.rank(rows) == linalg.rank(rows + [member])
    outcome = classify_potential(pot)
    assert outcome.member == RotParams.make(Fraction(1, 2), 0, 1, 0, 0, Fraction(1, 2))
    quartic = BinaryQuartic.from_rot_params(outcome.member)
    inv = invariants(quartic)
    assert (inv.i, inv.j) == (4, 16)
    assert inv.delta == 4 * inv.i ** 3 - inv.j ** 2 == 0
    assert form_is_zero(covariant_l(quartic))
    assert hessian(quartic) == (12, 0, 24, 0, 12)
    assert form_sign(hessian(quartic)) is FormSign.PSD_NONZERO
    assert outcome.web_type is WebType.TOROIDAL
    report(4, "worked example: exact family {(H/2, 0, H, C33, 0, H/2)}, toroidal", started, 5.0)


def _random_element(rng, with_a4=True):
    while True:
        a2 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        a3 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if a2 and a3:
            return GroupElement.make(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                a2, a3,
                Fraction(rng.randint(-4, 4)) if with_a4 else 0,
                rng.random() < 0.5)


def test_criterion_5_group_action_laws():
    started = time.time()
    rng = random.Random(5)
    for trial in range(1000):
        g = _random_element(rng)
        quartic = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(5))
        p = RotParams.make(*quartic[:3], Fraction(rng.randint(-5, 5)), *quartic[3:])
        z = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        den = (z + g.a0) if g.discrete else (g.a0 * z + 1)
        if den != 0:
            assert covariance_residual(g, p, z) == 0
        before = invariants(BinaryQuartic.make(*quartic))
        moved = apply_quartic(g, quartic)
        after = invariants(BinaryQuartic.make(*moved))
        assert after.i == g.a3 ** 2 * before.i
        assert after.j == g.a3 ** 3 * before.j
        if before.j != 0:
            assert after.f == before.f
        if any(c != 0 for c in quartic):
            sa = root_structure(BinaryQuartic.make(*quartic))
            sb = root_structure(BinaryQuartic.make(*moved))
            assert sa.real_multiplicities == sb.real_multiplicities
            assert sa.cc_pair_multiplicities == sb.cc_pair_multiplicities
        swapped = invariants(BinaryQuartic.make(quartic[4], quartic[3], quartic[2],
                                                quartic[1], quartic[0]))
        assert (swapped.i, swapped.j) == (before.i, before.j)
    report(5, "1000 random pairs: covariance, invariant weights, partition invariance",
           started, 60.0)


_REPRESENTATIVES = {
    WebType.BI_CYCLIDE: (1, 0, -3, 0, 1),
    WebType.FLAT_RING_CYCLIDE: (1, 0, 0, 0, 1),
    WebType.DISK_CYCLIDE: (1, 0, 0, 0, -1),
    WebType.INVERSE_PROLATE_SPHEROIDAL: (1, 0, -1, 0, 0),
    WebType.INVERSE_OBLATE_SPHEROIDAL: (1, 0, 1, 0, 0),
    WebType.TOROIDAL: (1, 0, 2, 0, 1),
    WebType.BISPHERICAL: (1, 0, -2, 0, 1),
    WebType.CARDIOID: (0, 1, 0, 0, 0),
    WebType.TANGENT_SPHERE: (1, 0, 0, 0, 0),
}


def test_criterion_6_classifier_cross_validation():
    started = time.time()
    rng = random.Random(6)
    disagreements = []
    total = 0
    recovered = 0
    for web, rep in _REPRESENTATIVES.items():
        rep = tuple(Fraction(c) for c in rep)
        for _ in range(100):
            g = _random_element(rng, with_a4=False)
            quartic = BinaryQuartic.make(*apply_quartic(g, rep))
            total += 1
            by_roots = classify_by_roots(quartic)
            recovered += (by_roots is web)
            by_inv, audit = classify_by_invariants(quartic)
            if by_inv is not by_roots:
                disagreements.append({"quartic": quartic.to_json(), "roots": by_roots.value,
                                      "invariants": by_inv.value, "audit": audit})
    assert total == 900
    assert recovered == 900
    assert disagreements == [], f"audited disagreements: {disagreements}"

    # Exact root structure against the float companion-matrix oracle on
    # quartics with nonzero exact discriminant (all roots simple).
    agreed = 0
    tried = 0
    while tried < 1000:
        coeffs = tuple(Fraction(rng.randint(-20, 20)) for _ in range(5))
        q = BinaryQuartic.make(*coeffs)
        if q.is_zero or invariants(q).delta == 0:
            continue
        tried += 1
        structure = root_structure(q)
        poly = dehomogenize(q)
        cs = [float(c) for c in poly.coeffs]
        roots = np.roots(list(reversed(cs)))
        numeric = np.polynomial.Polynomial(cs)
        deriv = numeric.deriv()
        finite_real = 0
        for r in roots:
            zval = complex(r)
            for _ in range(5):
                dz = deriv(zval)
                if dz == 0:
                    break
                zval = zval - numeric(zval) / dz
            finite_real += abs(zval.imag) < 1e-9
        oracle_reals = tuple(sorted([1] * (finite_real + (4 - poly.degree)), reverse=True))
        oracle_pairs = tuple(sorted([1] * ((poly.degree - finite_real) // 2), reverse=True))
        agreed += (structure.real_multiplicities == oracle_reals
                   and structure.cc_pair_multiplicities == oracle_pairs)
    assert agreed == 1000
    report(6, "900/900 orbit classifications agree; 1000/1000 oracle agreement", started, 300.0)


def test_criterion_7_symmetry_scans():
    started = time.time()
    r3 = ckv_coords("R3")
    (h0, kernel), = symmetry_subspace(r3, "h_zero")
    assert h0 == 0 and len(kernel) == 9
    filtered = tsn_filter(r3, kernel)
    assert len(filtered.subspace) == 6 and filtered.variety_is_linear

    x3 = cc.ckv_by_name("X3")
    (_, tkernel), = symmetry_subspace(ckv_coords("X3"), "h_zero")
    assert len(tkernel) == 9
    for vec in tkernel:
        k = assemble_free(vec)
        assert lie_derivative(x3, k).is_zero
        assert tensor_degree(k) <= 2
        assert all(degree_in(p, 2) <= 0 for row in k.comps for p in row)
        assert killing_obstruction(k).is_zero

    spaces = symmetry_subspace(ckv_coords("D"), "h_constant")
    values = [h for h, _ in spaces]
    assert len(values) == 5
    assert all(h.denominator == 1 for h in values)
    assert sum(len(basis) for _, basis in spaces) == 35
    report(7, "R3 kernel 9 -> TSN 6; X3 kernel translation-invariant Killing; "
              "D has five integer weights", started, 120.0)


def test_criterion_8_eigenvalue_formulas():
    started = time.time()
    rng = random.Random(8)
    checked = 0
    while checked < 100:
        p = RotParams.make(*(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(6)))
        point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        if point[0] == 0 and point[1] == 0:
            continue
        checked += 1
        lam1, a, b = eigenvalues_at(p, point)
        matrix = np.array([[float(x) for x in row]
                           for row in matrix_at(assemble_rotational(p), point)])
        eigs = sorted(np.linalg.eigvalsh(matrix))
        mine = sorted([float(lam1),
                       (float(a) + float(b) ** 0.5) / 2,
                       (float(a) - float(b) ** 0.5) / 2])
        scale = max(1.0, max(abs(e) for e in eigs))
        assert all(abs(x - y) <= 1e-10 * scale for x, y in zip(eigs, mine))
    for _ in range(50):
        p = RotParams.make(*(Fraction(rng.randint(-9, 9)) for _ in range(6)))
        z0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if z0 == 0:
            continue
        lam1, a, b = eigenvalues_at(p, (0, 0, z0))
        qval = singular_polynomial(p).eval(z0)
        # lambda_{2,3} = (A +- sqrt(B))/2 with A = q(z0) and B = q(z0)^2,
        # which is exactly (q +- |q|)/2.
        assert lam1 == 0
        assert a == qval and b == qval * qval
    report(8, "100 off-axis eigenvalue checks at 1e-10; on-axis matches (q +- |q|)/2",
           started, 60.0)
