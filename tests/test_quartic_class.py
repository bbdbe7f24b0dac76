import random
from fractions import Fraction

import pytest

from rotweb import quartic_class as qc
from rotweb.group_action import GroupElement, apply_quartic
from rotweb.quartic_class import (BinaryQuartic, ClassificationError,
                                  FormSign, WebType, canonical_form, classify_by_invariants,
                                  classify_by_roots, covariant_l, covariant_m, form_is_zero,
                                  form_scale, form_sign, hessian, invariants, root_structure)

from conftest import rand_fraction
from ref_univariate import (UniPoly, dehomogenize, ref_monic, ref_real_root_count,
                            ref_squarefree_decomposition)
from test_canonical_form import extreme_quartic, partition_quartic

CANONICAL_REPRESENTATIVES = {
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


class TestInvariants:
    def test_worked_example(self):
        inv = invariants(BinaryQuartic.make(Fraction(1, 2), 0, 1, 0, Fraction(1, 2)))
        assert (inv.i, inv.j, inv.delta, inv.f) == (4, 16, 0, Fraction(1, 4))

    def test_double_root_pair(self):
        inv = invariants(BinaryQuartic.make(1, 0, 2, 0, 1))
        assert (inv.i, inv.j, inv.delta) == (16, 128, 0)

    def test_quadruple_at_infinity(self):
        inv = invariants(BinaryQuartic.make(0, 0, 0, 0, 1))
        assert (inv.i, inv.j, inv.delta, inv.f) == (0, 0, 0, None)

    def test_f_is_exact_on_integer_coefficients(self):
        inv = invariants(BinaryQuartic(1, 0, -3, 0, 1))
        assert (inv.i, inv.j, inv.f) == (21, -162, Fraction(343, 972))
        big = 10**200
        inv = invariants(BinaryQuartic(big, 0, -3, 0, 1))
        assert inv.f == Fraction((12 * big + 9) ** 3, (216 * big - 54) ** 2)

    def test_cleared_integer_route_matches_the_rational_formulas(self, rng):
        # The formulas evaluated directly in Fractions on Q are the reference.
        for trial in range(300):
            scale = Fraction(rng.randint(1, 9), 10 ** rng.randint(0, 40)) ** (1 if trial % 2 else -1)
            q = BinaryQuartic.make(*(rand_fraction(rng, -9, 9, 7) * scale if rng.random() < 0.8 else 0
                                     for _ in range(5)))
            m, l, h, d, a = q.as_tuple()
            i_val = 12 * a * m - 3 * l * d + h * h
            j_val = 72 * a * m * h - 27 * a * l * l - 27 * d * d * m + 9 * d * l * h - 2 * h ** 3
            inv = invariants(q)
            assert (inv.i, inv.j, inv.delta) == (i_val, j_val, 4 * i_val ** 3 - j_val ** 2)
            assert inv.f == (Fraction(i_val ** 3, j_val * j_val) if j_val else None)

    def test_delta_vanishes_iff_repeated_root(self, rng):
        for _ in range(200):
            q = BinaryQuartic.make(*(rng.randint(-6, 6) for _ in range(5)))
            if q.is_zero:
                continue
            structure = root_structure(q)
            repeated = any(m > 1 for m in structure.real_multiplicities) \
                or any(m > 1 for m in structure.cc_pair_multiplicities)
            assert (invariants(q).delta == 0) == repeated


class TestHessian:
    def test_worked_example(self):
        h = hessian(BinaryQuartic.make(Fraction(1, 2), 0, 1, 0, Fraction(1, 2)))
        assert h == (12, 0, 24, 0, 12)  # 12 (X^2 + Y^2)^2

    def test_bispherical_canonical(self):
        h = hessian(BinaryQuartic.make(1, 0, -2, 0, 1))
        assert h == (-48, 0, 96, 0, -48)  # -48 (X^2 - Y^2)^2

    def test_quadruple_root_kills_hessian(self):
        assert form_is_zero(hessian(BinaryQuartic.make(1, 0, 0, 0, 0)))

    def test_zero_iff_quadruple_root_across_types(self):
        for web, rep in CANONICAL_REPRESENTATIVES.items():
            h = hessian(BinaryQuartic.make(*rep))
            assert form_is_zero(h) == (web is WebType.TANGENT_SPHERE)


class TestCovariants:
    def test_l_vanishes_on_worked_example(self):
        q = BinaryQuartic.make(Fraction(1, 2), 0, 1, 0, Fraction(1, 2))
        assert form_is_zero(covariant_l(q))

    def test_l_m_vanish_on_quadruple_root(self):
        q = BinaryQuartic.make(1, 0, 0, 0, 0)
        assert form_is_zero(covariant_l(q))
        assert form_is_zero(covariant_m(q))

    def test_bispherical_l_fixture(self):
        q = BinaryQuartic.make(1, 0, -2, 0, 1)
        # I = 16, J = -128, so L = 16 H + 768 Q, which cancels identically:
        # the bispherical orbit lives in the L = 0 stratum.
        inv = invariants(q)
        assert (inv.i, inv.j) == (16, -128)
        expected = tuple(16 * h + 768 * c for h, c in zip(hessian(q), q.as_tuple()))
        assert covariant_l(q) == expected
        assert form_is_zero(expected)


class TestIntegerCovariants:
    """classify_by_invariants reads the covariant signs of the cleared
    integer quartic c Q, with the invariants of c Q formed in ints."""

    def test_scaling_signs_and_int_coefficients(self):
        rng = random.Random("integer-covariants")
        quartics = [partition_quartic(rng, web) for web in WebType for _ in range(12)]
        quartics += [extreme_quartic(rng, web) for web in WebType for _ in range(2)]
        for q in quartics:
            c = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            cq = BinaryQuartic.make(*(c * x for x in q.as_tuple()))
            for covariant, degree in ((hessian, 2), (covariant_l, 4), (covariant_m, 4)):
                assert covariant(cq) == form_scale(covariant(q), c ** degree)
            factor, cleared = q.cleared()
            assert cleared.as_tuple() == tuple(factor * x for x in q.as_tuple())
            scaled = invariants(q).scaled(factor)
            assert qc._cleared_invariants(q) == (factor, cleared, scaled)
            for covariant in (hessian, covariant_l, covariant_m):
                ints = covariant(cleared)
                assert all(type(x) is int for x in ints)
                assert form_sign(ints) is form_sign(covariant(q))
            assert covariant_l(cleared, scaled) == covariant_l(cleared)
            assert covariant_m(cleared, scaled) == covariant_m(cleared)


class TestFormSign:
    @pytest.mark.parametrize("coeffs,expected", [
        ((48, 0, 96, 0, 48), FormSign.PSD_NONZERO),        # 48 (X^2 + Y^2)^2
        ((-48, 0, 96, 0, -48), FormSign.NSD_NONZERO),      # -48 (X^2 - Y^2)^2
        ((1, 0, 0, 0, -1), FormSign.INDEFINITE),           # X^4 - Y^4
        ((0, 0, 0, 0, 0), FormSign.IDENTICALLY_ZERO),
        ((0, 0, 1, 0, 0), FormSign.PSD_NONZERO),           # X^2 Y^2
        ((0, 1, 0, 0, 0), FormSign.INDEFINITE),            # X^3 Y
    ])
    def test_examples(self, coeffs, expected):
        assert form_sign(coeffs) is expected

    def test_odd_degree_rejected(self):
        with pytest.raises(ClassificationError):
            form_sign((1, 0, 0, 1))


def unipoly_form_sign(coeffs):
    """The reference for form_sign: the square-free factors and Sturm
    counts of the Fraction reference kernel."""
    if form_is_zero(coeffs):
        return FormSign.IDENTICALLY_ZERO
    poly = UniPoly(list(reversed(coeffs)))
    if any(mult % 2 == 1 and ref_real_root_count(factor) > 0
           for factor, mult in ref_squarefree_decomposition(poly)):
        return FormSign.INDEFINITE
    return FormSign.PSD_NONZERO if poly.lead > 0 else FormSign.NSD_NONZERO


class TestIntegerRoute:
    """root_structure and form_sign read the integer kernel; the Fraction
    reference kernel on UniPolys is their reference."""

    @pytest.fixture(scope="class")
    def quartics(self):
        rng = random.Random("integer-route")
        quartics = [partition_quartic(rng, web) for web in WebType for _ in range(18)]
        quartics += [extreme_quartic(rng, web) for web in WebType for _ in range(4)]
        quartics += [BinaryQuartic.make(lead, 0, -1, 0, 1)
                     for lead in (Fraction(1, 10**320), Fraction(10**320))]
        assert len(quartics) == 200
        return quartics

    def test_root_structure_matches_the_unipoly_route(self, quartics):
        for q in quartics:
            structure = root_structure(q)
            poly = dehomogenize(q)
            assert structure.infinity_multiplicity == 4 - poly.degree
            got = [(ref_monic(UniPoly(factor)), mult, nreal)
                   for factor, mult, nreal in structure.finite_factors]
            expected = [(factor, mult, ref_real_root_count(factor))
                        for factor, mult in ref_squarefree_decomposition(poly)]
            assert got == expected, q.to_json()

    def test_form_sign_on_int_and_fraction_covariants(self, quartics):
        for q in quartics:
            _, cleared = q.cleared()
            for covariant in (hessian, covariant_l, covariant_m):
                rational = covariant(q)
                verdict = form_sign(covariant(cleared))
                assert verdict is form_sign(rational) is unipoly_form_sign(rational), q.to_json()


class TestRootStructure:
    def test_double_complex_pair(self):
        s = root_structure(BinaryQuartic.make(1, 0, 2, 0, 1))
        assert s.infinity_multiplicity == 0
        assert s.real_multiplicities == ()
        assert s.cc_pair_multiplicities == (2,)

    def test_triple_root_plus_infinity(self):
        s = root_structure(BinaryQuartic.make(0, 1, 0, 0, 0))
        assert s.infinity_multiplicity == 1
        assert s.real_multiplicities == (3, 1)

    def test_constant_dehomogenization(self):
        s = root_structure(BinaryQuartic.make(0, 0, 0, 0, 1))
        assert s.infinity_multiplicity == 4
        assert s.real_multiplicities == (4,)

    def test_zero_form_rejected(self):
        with pytest.raises(ClassificationError):
            root_structure(BinaryQuartic.make())


class TestClassifyByRoots:
    @pytest.mark.parametrize("coeffs,expected", [
        ((Fraction(-1, 4), 0, Fraction(5, 4), 0, -1), WebType.BI_CYCLIDE),
        ((1, 0, -1, 0, 0), WebType.INVERSE_PROLATE_SPHEROIDAL),
        ((Fraction(1, 2), 0, 1, 0, Fraction(1, 2)), WebType.TOROIDAL),
        ((0, 0, 0, 1, 0), WebType.CARDIOID),
        ((0, 0, 1, 0, 0), WebType.BISPHERICAL),
    ])
    def test_examples(self, coeffs, expected):
        assert classify_by_roots(BinaryQuartic.make(*coeffs)) is expected

    def test_canonical_representatives(self):
        for web, rep in CANONICAL_REPRESENTATIVES.items():
            assert classify_by_roots(BinaryQuartic.make(*rep)) is web


class TestClassifyByInvariants:
    @pytest.mark.parametrize("coeffs,expected", [
        ((Fraction(1, 2), 0, 1, 0, Fraction(1, 2)), WebType.TOROIDAL),
        ((1, 0, -2, 0, 1), WebType.BISPHERICAL),
        ((0, 1, 0, 0, 0), WebType.CARDIOID),
    ])
    def test_examples(self, coeffs, expected):
        web, audit = classify_by_invariants(BinaryQuartic.make(*coeffs))
        assert web is expected
        assert audit[-1]["matched"] is True
        assert all(not step["matched"] for step in audit[:-1])

    def test_agrees_with_roots_on_representatives(self):
        for web, rep in CANONICAL_REPRESENTATIVES.items():
            got, _ = classify_by_invariants(BinaryQuartic.make(*rep))
            assert got is web

    def test_agrees_on_random_orbits(self, rng):
        for web, rep in CANONICAL_REPRESENTATIVES.items():
            for _ in range(10):
                while True:
                    a2, a3 = rand_fraction(rng, -4, 4), rand_fraction(rng, -4, 4)
                    if a2 and a3:
                        break
                g = GroupElement.make(rand_fraction(rng, -3, 3), rand_fraction(rng, -3, 3),
                                      a2, a3, 0, rng.random() < 0.5)
                q = BinaryQuartic.make(*apply_quartic(g, tuple(Fraction(c) for c in rep)))
                assert classify_by_roots(q) is web
                got, audit = classify_by_invariants(q)
                assert got is web, audit


class TestCanonicalForm:
    def test_toroidal(self):
        cf, witness = canonical_form(BinaryQuartic.make(Fraction(1, 2), 0, 1, 0, Fraction(1, 2)))
        assert (cf.form, cf.parameter, cf.exact) == ("I", 2, True)
        # Pure tensor scaling: the quartic is already canonical up to scale.
        assert witness.a0 == 0 and witness.a1 == 0 and not witness.discrete

    def test_inverse_prolate(self):
        cf, _ = canonical_form(BinaryQuartic.make(1, 0, -1, 0, 0))
        assert (cf.form, cf.parameter) == ("III", -1)

    def test_bicyclide_mu_below_minus_two(self):
        cf, witness = canonical_form(BinaryQuartic.make(Fraction(-1, 4), 0, Fraction(5, 4), 0, -1))
        assert cf.form == "I" and cf.exact and cf.parameter < -2
        moved = apply_quartic(witness, (Fraction(-1, 4), 0, Fraction(5, 4), 0, -1))
        target = (1, 0, cf.parameter, 0, 1)
        assert max(abs(float(a) - float(b)) for a, b in zip(moved, target)) < 1e-9

    def test_all_types_reach_canonical(self, rng):
        for web, rep in CANONICAL_REPRESENTATIVES.items():
            while True:
                a2, a3 = rand_fraction(rng, -3, 3), rand_fraction(rng, -3, 3)
                if a2 and a3:
                    break
            g = GroupElement.make(rand_fraction(rng, -2, 2), rand_fraction(rng, -2, 2),
                                  a2, a3, 0, rng.random() < 0.5)
            q = BinaryQuartic.make(*apply_quartic(g, tuple(Fraction(c) for c in rep)))
            cf, witness = canonical_form(q)
            assert cf.form == {
                WebType.BI_CYCLIDE: "I", WebType.FLAT_RING_CYCLIDE: "I",
                WebType.TOROIDAL: "I", WebType.BISPHERICAL: "I",
                WebType.DISK_CYCLIDE: "II",
                WebType.INVERSE_PROLATE_SPHEROIDAL: "III",
                WebType.INVERSE_OBLATE_SPHEROIDAL: "III",
                WebType.CARDIOID: "IV", WebType.TANGENT_SPHERE: "V",
            }[web]

    def test_zero_rejected(self):
        with pytest.raises(ClassificationError):
            canonical_form(BinaryQuartic.make())
