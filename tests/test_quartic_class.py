import random
from fractions import Fraction

import pytest

from rotweb import quartic_class as qc
from rotweb.group_action import GroupElement, apply_quartic
from rotweb.quartic_class import (BinaryQuartic, ClassificationError,
                                  FormSign, WebType, canonical_form, classify_by_invariants,
                                  classify_by_roots, form_at, form_sign, hessian, invariants,
                                  root_structure)

from conftest import rand_fraction
from ref_covariants import (classify_by_form_signs, covariant_l, covariant_m, form_is_zero,
                            form_mul, form_scale)
from ref_univariate import (UniPoly, dehomogenize, ref_monic, ref_real_root_count,
                            ref_squarefree_decomposition)
from test_canonical_form import PER_STRATUM, extreme_quartic, partition_quartic

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
            factor, cleared, scaled = q.cleared
            assert cleared.as_tuple() == tuple(factor * x for x in q.as_tuple())
            assert scaled == invariants(cleared)
            inv = invariants(q)
            assert (scaled.i, scaled.j, scaled.delta, scaled.f) == (
                inv.i * factor ** 2, inv.j * factor ** 3, inv.delta * factor ** 6, inv.f)
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
            _, cleared, _ = q.cleared
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


def _point_form(point):
    """The linear form vanishing at the point (x : y) of RP^1."""
    x, y = point
    return [y, -x]


def _small_points(rng, count):
    """count distinct points (x : y) of RP^1 with |x|, |y| <= 3, each one of
    the probe points with probability 1/2."""
    points = []
    while len(points) < count:
        if rng.random() < 0.5:
            x, y = rng.choice(qc._PROBES)
        else:
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        if (x, y) == (0, 0) or any(x * v - y * u == 0 for u, v in points):
            continue
        points.append((x, y))
    return points


def _complex_quadratics(rng, count):
    """count pairwise non-proportional definite quadratics a X^2 + b XY + c Y^2
    with small integer coefficients."""
    out = []
    while len(out) < count:
        a, b, c = rng.randint(1, 3), rng.randint(-3, 3), rng.randint(1, 4)
        if b * b < 4 * a * c and not any((a * v, a * w) == (b * u, c * u) for u, v, w in out):
            out.append((a, b, c))
    return out


def small_root_quartic(rng, web):
    """An integer quartic with the web's root partition, its real roots at
    small integer points of RP^1 (the probe points among them) and its
    complex pairs the roots of small integer quadratics."""
    shapes = {
        WebType.BI_CYCLIDE: ((1, 1, 1, 1), 0), WebType.FLAT_RING_CYCLIDE: ((), 2),
        WebType.DISK_CYCLIDE: ((1, 1), 1), WebType.INVERSE_PROLATE_SPHEROIDAL: ((2, 1, 1), 0),
        WebType.INVERSE_OBLATE_SPHEROIDAL: ((2,), 1), WebType.TOROIDAL: ((), 1),
        WebType.BISPHERICAL: ((2, 2), 0), WebType.CARDIOID: ((3, 1), 0),
        WebType.TANGENT_SPHERE: ((4,), 0),
    }
    reals, pairs = shapes[web]
    factors = [_point_form(point) for point, mult in zip(_small_points(rng, len(reals)), reals)
               for _ in range(mult)]
    quadratics = _complex_quadratics(rng, pairs)
    if web is WebType.TOROIDAL:
        quadratics *= 2
    factors += [list(quad) for quad in quadratics]
    form = [rng.choice((-3, -2, -1, 1, 2, 3))]
    for factor in factors:
        form = list(form_mul(form, factor))
    return BinaryQuartic.make(*form)


def _probe(q):
    """The first probe point at which q does not vanish."""
    return next(p for p in qc._PROBES if form_at(q.as_tuple(), *p))


class TestOnePointReading:
    """classify_by_invariants reads H, L and R at one probe point; the
    decision list read on the global signs of the whole covariant forms is
    its oracle, with the same rows, type and audit."""

    @staticmethod
    def assert_same_as_form_signs(quartics):
        for q in quartics:
            got = classify_by_invariants(q)
            assert got == classify_by_form_signs(q), q.to_json()
            assert got[0] is classify_by_roots(q), q.to_json()

    def test_stratified_quartics(self):
        quartics = []
        for web in WebType:
            rng = random.Random(f"one-point-{web.value}")
            quartics += [partition_quartic(rng, web) for _ in range(PER_STRATUM)]
        assert len(quartics) == 1008
        self.assert_same_as_form_signs(quartics)

    def test_extreme_quartics(self):
        rng = random.Random("one-point-extreme")
        self.assert_same_as_form_signs([extreme_quartic(rng, web) for web in WebType for _ in range(6)])

    def test_small_integer_roots_move_the_probe(self):
        rng = random.Random("one-point-small-roots")
        quartics = [small_root_quartic(rng, web) for web in WebType for _ in range(60)]
        quartics += [BinaryQuartic.make(*c) for c in ((0, 1, 0, -1, 0), (0, 0, 1, -3, 2))]
        assert {_probe(q) for q in quartics} == set(qc._PROBES)
        for web in set(WebType) - {WebType.FLAT_RING_CYCLIDE, WebType.TOROIDAL}:
            # Every stratum with a real root has quartics read away from (1 : 0).
            assert {_probe(q) for q in quartics if classify_by_roots(q) is web} != {(1, 0)}, web
        self.assert_same_as_form_signs(quartics)

    @pytest.mark.parametrize("coeffs,probe,expected", [
        ((0, 1, 0, -1, 0), (2, 1), WebType.BI_CYCLIDE),   # roots at the first four probes
        ((0, 0, 1, -3, 2), (0, 1), WebType.INVERSE_PROLATE_SPHEROIDAL),  # double root at (1 : 0)
        ((0, 0, 1, 0, 0), (1, 1), WebType.BISPHERICAL),
        ((0, 1, 0, 0, 0), (1, 1), WebType.CARDIOID),
        ((1, -4, 6, -4, 1), (1, 0), WebType.TANGENT_SPHERE),
    ])
    def test_examples(self, coeffs, probe, expected):
        q = BinaryQuartic.make(*coeffs)
        assert _probe(q) == probe
        assert classify_by_invariants(q) == classify_by_form_signs(q)
        assert classify_by_invariants(q)[0] is expected

    def test_reads_no_univariate_kernel(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the decision list called the univariate kernel")

        monkeypatch.setattr(qc, "form_sign", forbidden)
        monkeypatch.setattr(qc, "squarefree_decomposition", forbidden)
        for web, rep in CANONICAL_REPRESENTATIVES.items():
            assert classify_by_invariants(BinaryQuartic.make(*rep))[0] is web


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
