from fractions import Fraction

import pytest

from rotweb.ckt_core import CktError
from rotweb.exactmath import rat
from rotweb.group_action import (GroupElement, Mat2, _rep, apply, apply_quartic, compose,
                                 from_gl2, inverse, substitution_action)
from rotweb.quartic_class import BinaryQuartic, invariants, root_structure
from rotweb.rotational import RotParams

from conftest import rand_fraction
from ref_univariate import UniPoly, singular_polynomial


class _Infinity:
    """The point at infinity of the extended rational line."""

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()


def axis_action(g: GroupElement, z):
    """Moebius image of a point of the extended z-axis (Fraction or
    INFINITY), read off the program's one Moebius matrix."""
    m = _rep(g)
    if z is INFINITY:
        return INFINITY if m.gamma == 0 else m.alpha / m.gamma
    z = Fraction(z)
    den = m.gamma * z + m.delta
    return INFINITY if den == 0 else (m.alpha * z + m.beta) / den


# ---------------------------------------------------------------------------
# Oracles.  The program builds every action from one Moebius matrix; these
# are the independent constructions it is checked against.


def _action_polynomial(q):
    """P(a0) = A33 a0^4 - D3 a0^3 + H a0^2 - L3 a0 + M33, the building block
    of the continuous action."""
    m33, l3, h, d3, a33 = q
    return UniPoly([m33, -l3, h, -d3, a33])


def _taylor(p: UniPoly, x, upto: int) -> list:
    """[P(x), P'(x)/1!, P''(x)/2!, ...] up to the requested order."""
    out = []
    current = p
    factorial = 1
    for n in range(upto + 1):
        if n:
            factorial *= n
        out.append(current.eval(x) / factorial)
        current = current.derivative()
    return out


def taylor_apply_quartic(g: GroupElement, q):
    """Exact action on the five quartic coefficients (M33, L3, H, D3, A33)."""
    if g.discrete:
        m33, l3, h, d3, a33 = q
        q = (a33, d3, h, l3, m33)
    p0, p1, p2, p3, p4 = _taylor(_action_polynomial(q), g.a0, 4)
    a1, a2 = g.a1, g.a2
    scale = g.a3 / (a2 * a2)
    m33 = scale * p0
    l3 = scale * (-4 * a1 * p0 - a2 * p1)
    h = scale * (6 * a1 ** 2 * p0 + 3 * a1 * a2 * p1 + a2 ** 2 * p2)
    d3 = scale * (-4 * a1 ** 3 * p0 - 3 * a1 ** 2 * a2 * p1
                  - 2 * a1 * a2 ** 2 * p2 - a2 ** 3 * p3)
    a33 = scale * (a1 ** 4 * p0 + a1 ** 3 * a2 * p1 + a1 ** 2 * a2 ** 2 * p2
                   + a1 * a2 ** 3 * p3 + a2 ** 4 * p4)
    return (m33, l3, h, d3, a33)


def explicit_axis_action(g: GroupElement, z):
    """Moebius image of a point of the extended z-axis (Fraction or INFINITY)."""
    if g.discrete:
        if z is INFINITY:
            z = Fraction(0)
        elif z == 0:
            z = INFINITY
        else:
            z = 1 / Fraction(z)
    if z is INFINITY:
        if g.a0 == 0:
            return INFINITY
        return (g.a2 + g.a1 * g.a0) / g.a0
    z = Fraction(z)
    den = g.a0 * z + 1
    if den == 0:
        return INFINITY
    return ((g.a2 + g.a1 * g.a0) * z + g.a1) / den


def to_gl2(g: GroupElement) -> Mat2:
    """Float matrix whose substitution action reproduces apply(g) on the
    quartic part; requires a3 > 0.  The fourth-root scaling (a3/a2^2)^(1/4)
    makes the reproduction exact rather than projective."""
    if g.a3 <= 0:
        raise CktError("to_gl2 requires a3 > 0")
    r = float(g.a3 / (g.a2 * g.a2)) ** 0.25
    mc = Mat2(r, -float(g.a1) * r, -float(g.a0) * r, float(g.a1 * g.a0 + g.a2) * r)
    if not g.discrete:
        return mc
    return Mat2(mc.gamma, mc.delta, mc.alpha, mc.beta)  # left-multiplied swap


def covariance_residual(g: GroupElement, p: RotParams, z) -> Fraction:
    """den(z)^4 q~(z~) - a3 a2^2 q(z): identically zero, exposed as an exact
    test oracle for the covariance of the singular polynomial."""
    z = rat(z)
    den = (z + g.a0) if g.discrete else (g.a0 * z + 1)
    if den == 0:
        raise CktError("covariance residual undefined at a pole of the axis action")
    image = axis_action(g, z)
    if image is INFINITY:
        raise CktError("covariance residual undefined at a pole of the axis action")
    q_before = singular_polynomial(p)
    q_after = singular_polynomial(apply(g, p))
    return den ** 4 * q_after.eval(image) - g.a3 * g.a2 ** 2 * q_before.eval(z)


def random_element(rng, allow_discrete=True):
    while True:
        a2 = rand_fraction(rng, -5, 5)
        a3 = rand_fraction(rng, -5, 5)
        if a2 and a3:
            return GroupElement.make(rand_fraction(rng, -3, 3), rand_fraction(rng, -3, 3),
                                     a2, a3, rand_fraction(rng, -3, 3),
                                     allow_discrete and rng.random() < 0.5)


def random_params(rng):
    return RotParams.make(*(rand_fraction(rng) for _ in range(6)))


class TestApply:
    def test_identity(self, rng):
        p = random_params(rng)
        assert apply(GroupElement.make(), p) == p

    def test_dilation_on_ones(self):
        g = GroupElement.make(0, 0, 2, 1, 0, False)
        assert apply_quartic(g, (1, 1, 1, 1, 1)) == (Fraction(1, 4), Fraction(1, 2), 1, 2, 4)

    def test_discrete_swaps_cylindrical_to_tangent(self):
        g = GroupElement.make(0, 0, 1, 1, 0, True)
        p = RotParams.make(0, 0, 0, -1, 0, 1)
        moved = apply(g, p)
        assert moved.quartic_tuple() == (1, 0, 0, 0, 0)
        assert moved.c33 == -1  # C33 is untouched by the discrete inversion

    def test_invalid_element(self):
        with pytest.raises(CktError):
            GroupElement.make(0, 0, 0, 1, 0, False)
        with pytest.raises(CktError):
            GroupElement.make(0, 0, 1, 0, 0, False)


class TestGroupLaws:
    def test_compose_against_sequential_apply(self, rng):
        for _ in range(200):
            g1, g2 = random_element(rng), random_element(rng)
            p = random_params(rng)
            assert apply(compose(g1, g2), p) == apply(g1, apply(g2, p))

    def test_inverse_round_trip(self, rng):
        for _ in range(100):
            g = random_element(rng)
            p = random_params(rng)
            assert apply(inverse(g), apply(g, p)) == p

    def test_double_discrete_is_identity(self, rng):
        disc = GroupElement.make(0, 0, 1, 1, 0, True)
        assert compose(disc, disc) == GroupElement.make()

    def test_continuous_inversion_is_conjugated_translation(self, rng):
        # phi_0(t) = I o phi_1(t) o I on the parameters.
        for _ in range(20):
            t = rand_fraction(rng)
            disc = GroupElement.make(0, 0, 1, 1, 0, True)
            translation = GroupElement.make(0, t, 1, 1, 0, False)
            candidate = compose(disc, compose(translation, disc))
            expected = GroupElement.make(t, 0, 1, 1, 0, False)
            p = random_params(rng)
            assert apply(candidate, p) == apply(expected, p)


class TestGl2Bridge:
    def test_identity(self):
        m = to_gl2(GroupElement.make())
        assert (m.alpha, m.beta, m.gamma, m.delta) == (1.0, 0.0, -0.0, 1.0)
        assert from_gl2(Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))) \
            == GroupElement.make()

    def test_swap_matrix(self):
        element = from_gl2(Mat2(Fraction(0), Fraction(1), Fraction(1), Fraction(0)))
        assert element.discrete and element.a0 == 0 and element.a1 == 0
        m = to_gl2(GroupElement.make(0, 0, 1, 1, 0, True))
        assert (m.alpha, m.beta, m.gamma, m.delta) == (-0.0, 1.0, 1.0, 0.0)

    def test_substitution_equals_apply_from_gl2(self, rng):
        for _ in range(100):
            while True:
                m = Mat2(*(Fraction(rng.randint(-4, 4)) for _ in range(4)))
                if m.det() != 0:
                    break
            q = tuple(rand_fraction(rng) for _ in range(5))
            g = from_gl2(m)
            assert substitution_action(m, q) == apply_quartic(g, q) == taylor_apply_quartic(g, q)

    def test_from_gl2_on_integer_matrices(self, rng):
        assert from_gl2(Mat2(3, 1, 1, 1)) == GroupElement.make(Fraction(-1, 3), Fraction(-1, 3),
                                                               Fraction(2, 9), 4)
        for _ in range(100):
            while True:
                m = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
                if m.det() != 0:
                    break
            q = tuple(rand_fraction(rng) for _ in range(5))
            g = from_gl2(m)
            assert substitution_action(m, q) == apply_quartic(g, q) == taylor_apply_quartic(g, q)

    def test_to_gl2_reproduces_apply_numerically(self, rng):
        for _ in range(50):
            g = random_element(rng)
            g = GroupElement.make(g.a0, g.a1, g.a2, abs(g.a3), 0, g.discrete)
            q = tuple(rand_fraction(rng) for _ in range(5))
            got = substitution_action(to_gl2(g), tuple(float(c) for c in q))
            want = tuple(float(c) for c in apply_quartic(g, q))
            scale = max(1.0, max(abs(w) for w in want))
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12 * scale

    def test_round_trip_on_positive_subgroup(self, rng):
        # The discrete flag is a gauge (a flagged element with a0 != 0 equals
        # an unflagged one), so the round trip is checked at action level.
        for _ in range(25):
            g = random_element(rng)
            a3 = g.a3 * g.a3  # ensure a3 > 0
            g = GroupElement.make(g.a0, g.a1, g.a2, a3, 0, g.discrete)
            m = to_gl2(g)
            back = from_gl2(Mat2(*(Fraction(v) for v in (m.alpha, m.beta, m.gamma, m.delta))))
            q = tuple(rand_fraction(rng) for _ in range(5))
            got = tuple(float(c) for c in apply_quartic(back, q))
            want = tuple(float(c) for c in apply_quartic(g, q))
            scale = max(1.0, max(abs(w) for w in want))
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9 * scale

    def test_to_gl2_requires_positive_scaling(self):
        with pytest.raises(CktError):
            to_gl2(GroupElement.make(0, 0, 1, -1, 0, False))

    def test_from_gl2_rejects_singular(self):
        with pytest.raises(CktError):
            from_gl2(Mat2(Fraction(1), Fraction(2), Fraction(2), Fraction(4)))


class TestOneMoebiusMatrix:
    """apply_quartic and axis_action, both read off the one Moebius matrix,
    against the Taylor and explicit constructions they replaced."""

    def test_actions_match_the_oracles(self, rng):
        checked = 0
        for trial in range(600):
            discrete = trial % 2 == 1
            if trial % 4 < 2:
                def draw():
                    return rng.randint(-6, 6)
            else:
                def draw():
                    return rand_fraction(rng, -6, 6)
            a2 = a3 = 0
            while a2 == 0 or a3 == 0:
                a2, a3 = draw(), draw()
            g = GroupElement.make(draw(), draw(), a2, a3, draw(), discrete)
            q = tuple(draw() for _ in range(5))
            assert apply_quartic(g, q) == taylor_apply_quartic(g, q)
            pole = -g.a0 if discrete else (-1 / g.a0 if g.a0 else INFINITY)
            for z in (draw(), Fraction(draw(), 7), 0, INFINITY, pole):
                image = axis_action(g, z)
                expected = explicit_axis_action(g, z)
                assert image is INFINITY if expected is INFINITY else image == expected
                checked += 1
        assert checked == 3000


class TestAxisAction:
    def test_identity(self):
        assert axis_action(GroupElement.make(), Fraction(3, 2)) == Fraction(3, 2)

    def test_translation(self):
        g = GroupElement.make(0, 3, 1, 1, 0, False)
        assert axis_action(g, 2) == 5

    def test_discrete_inversion(self):
        g = GroupElement.make(0, 0, 1, 1, 0, True)
        assert axis_action(g, 0) is INFINITY
        assert axis_action(g, INFINITY) == 0

    def test_pole_maps_to_infinity(self):
        g = GroupElement.make(1, 0, 1, 1, 0, False)
        assert axis_action(g, -1) is INFINITY

    def test_roots_move_with_axis_action(self, rng):
        # Rational-root fixture: the root multiset moves by the axis map.
        p = RotParams.make(Fraction(-1, 4), 0, Fraction(5, 4), 0, 0, -1)  # roots +-1, +-2
        for _ in range(25):
            g = random_element(rng)
            moved = singular_polynomial(apply(g, p))
            images = set()
            for root in (1, -1, 2, -2):
                image = axis_action(g, Fraction(root))
                images.add(image)
                if image is not INFINITY:
                    assert moved.eval(image) == 0
            if INFINITY not in images:
                assert moved.degree == 4


class TestCovariance:
    def test_exact_for_random_data(self, rng):
        checked = 0
        while checked < 200:
            g = random_element(rng)
            p = random_params(rng)
            z = rand_fraction(rng)
            den = (z + g.a0) if g.discrete else (g.a0 * z + 1)
            if den == 0:
                continue
            checked += 1
            assert covariance_residual(g, p, z) == 0

    def test_identity_trivial(self, rng):
        assert covariance_residual(GroupElement.make(), random_params(rng), 7) == 0

    def test_pole_rejected(self):
        g = GroupElement.make(1, 0, 1, 1, 0, False)
        with pytest.raises(CktError):
            covariance_residual(g, RotParams.make(h=1), -1)


class TestInvariantLaws:
    def test_ij_scaling(self, rng):
        for _ in range(200):
            g = random_element(rng)
            q = BinaryQuartic.make(*(rand_fraction(rng) for _ in range(5)))
            before = invariants(q)
            after = invariants(BinaryQuartic.make(*apply_quartic(g, q.as_tuple())))
            assert after.i == g.a3 ** 2 * before.i
            assert after.j == g.a3 ** 3 * before.j
            if before.j != 0:
                assert after.f == before.f

    def test_discrete_fixes_ij(self, rng):
        disc = GroupElement.make(0, 0, 1, 1, 0, True)
        for _ in range(50):
            q = BinaryQuartic.make(*(rand_fraction(rng) for _ in range(5)))
            before = invariants(q)
            after = invariants(BinaryQuartic.make(*apply_quartic(disc, q.as_tuple())))
            assert (after.i, after.j) == (before.i, before.j)

    def test_root_partition_invariant(self, rng):
        checked = 0
        while checked < 100:
            g = random_element(rng)
            q = BinaryQuartic.make(*(rand_fraction(rng) for _ in range(5)))
            if q.is_zero:
                continue
            checked += 1
            moved = BinaryQuartic.make(*apply_quartic(g, q.as_tuple()))
            a, b = root_structure(q), root_structure(moved)
            assert a.real_multiplicities == b.real_multiplicities
            assert a.cc_pair_multiplicities == b.cc_pair_multiplicities

    def test_c33_never_influences_quartic(self, rng):
        for _ in range(20):
            g = random_element(rng)
            p = random_params(rng)
            bumped = RotParams.make(p.m33, p.l3, p.h, p.c33 + 3, p.d3, p.a33)
            assert apply(g, p).quartic_tuple() == apply(g, bumped).quartic_tuple()
