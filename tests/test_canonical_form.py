"""Canonical forms on quartics built from their root partition.

Orbits of the nine fixed representatives reach one modulus per type, so
they cannot show how canonicalization behaves on generic input.  The
generator below multiplies out linear and quadratic factors for a chosen
root partition (rational roots, real and complex quadratic irrationals,
roots at infinity), then moves the product by a random rational GL(2)
substitution and a random scale.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rotweb import exactmath, quartic_class
from rotweb.exactmath import int_cleared, rational_roots
from rotweb.group_action import GroupElement, Mat2, apply_quartic, from_gl2, substitution_action
from rotweb.quartic_class import (BinaryQuartic, ClassificationError, WebType, _resolvent_roots,
                                  canonical_form, classify_by_invariants,
                                  classify_by_roots, invariants, root_structure)

from conftest import rand_fraction
from ref_univariate import (UniPoly, dehomogenize, ref_isolate, ref_monic, ref_rational_roots,
                            ref_refine, ref_sign, ref_squarefree_decomposition)

PER_STRATUM = 112  # 9 x 112 = 1008 quartics

FORMS = {
    WebType.BI_CYCLIDE: "I", WebType.FLAT_RING_CYCLIDE: "I",
    WebType.TOROIDAL: "I", WebType.BISPHERICAL: "I", WebType.DISK_CYCLIDE: "II",
    WebType.INVERSE_PROLATE_SPHEROIDAL: "III", WebType.INVERSE_OBLATE_SPHEROIDAL: "III",
    WebType.CARDIOID: "IV", WebType.TANGENT_SPHERE: "V",
}

FIXED_PARAMETERS = {
    WebType.TOROIDAL: 2, WebType.BISPHERICAL: -2,
    WebType.INVERSE_PROLATE_SPHEROIDAL: -1, WebType.INVERSE_OBLATE_SPHEROIDAL: 1,
    WebType.CARDIOID: None, WebType.TANGENT_SPHERE: None,
}


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _quadratic(rng, real):
    """X^2 - 2r XY + (r^2 - s^2 d) Y^2, with roots r +- s sqrt(d) for a
    non-square d > 0 (a real irrational pair) or d < 0 (a complex pair)."""
    r, s = rand_fraction(rng, -6, 6, 3), Fraction(rng.randint(1, 5), rng.randint(1, 3))
    d = rng.choice((2, 3, 5, 6, 7)) if real else -rng.choice((1, 2, 3, 5, 7))
    return [Fraction(1), -2 * r, r * r - s * s * d]


def _distinct_quadratics(rng, count, real):
    out = []
    while len(out) < count:
        q = _quadratic(rng, real)
        if q not in out:
            out.append(q)
    return out


def _real_roots(rng, count, irrational_pairs=0):
    """Factors with count distinct simple real roots: rational roots as
    linear forms, one of them at infinity with probability 1/4, first, then
    the given number of real irrational quadratics."""
    rationals = set()
    while len(rationals) < count - 2 * irrational_pairs:
        rationals.add(rand_fraction(rng, -9, 9, 4))
    linear = [[Fraction(1), -r] for r in sorted(rationals)]
    if linear and rng.random() < 0.25:
        linear[0] = [Fraction(0), Fraction(1)]
    return linear + _distinct_quadratics(rng, irrational_pairs, True)


def partition_quartic(rng, web):
    """A quartic with the web's root partition, moved by a random rational
    GL(2) substitution and scale."""
    if web is WebType.BI_CYCLIDE:
        factors = _real_roots(rng, 4, rng.randint(0, 2))
    elif web is WebType.FLAT_RING_CYCLIDE:
        factors = _distinct_quadratics(rng, 2, False)
    elif web is WebType.DISK_CYCLIDE:
        factors = _real_roots(rng, 2, rng.randint(0, 1)) + [_quadratic(rng, False)]
    elif web is WebType.INVERSE_PROLATE_SPHEROIDAL:
        double, *simple = _real_roots(rng, 3, rng.randint(0, 1))
        factors = [double, double] + simple
    elif web is WebType.INVERSE_OBLATE_SPHEROIDAL:
        double, = _real_roots(rng, 1)
        factors = [double, double, _quadratic(rng, False)]
    elif web is WebType.TOROIDAL:
        factors = [_quadratic(rng, False)] * 2
    elif web is WebType.BISPHERICAL:
        factors = _real_roots(rng, 2, rng.randint(0, 1)) * 2
    elif web is WebType.CARDIOID:
        triple, simple = _real_roots(rng, 2)
        factors = [triple] * 3 + [simple]
    else:
        factors = _real_roots(rng, 1) * 4
    return moved_product(rng, factors)


def moved_product(rng, factors):
    """The product of the factors, moved by a random rational GL(2)
    substitution and scale."""
    form = [Fraction(1)]
    for factor in factors:
        form = _mul(form, factor)
    while True:
        m = Mat2(*(rand_fraction(rng, -3, 3, 3) for _ in range(4)))
        if m.det() != 0:
            break
    scale = rand_fraction(rng, 1, 5, 3) * rng.choice((-1, 1))
    return BinaryQuartic.make(*(c * scale for c in substitution_action(m, tuple(form))))


def representative(form, parameter):
    p = 0 if parameter is None else parameter
    return {"I": (1, 0, p, 0, 1), "II": (1, 0, p, 0, -1), "III": (1, 0, p, 0, 0),
            "IV": (0, 1, 0, 0, 0), "V": (1, 0, 0, 0, 0)}[form]


def witness_residual(witness, q, target):
    """The witness's exact image of q against the target, as a float error
    relative to max(1, largest target coefficient)."""
    moved = apply_quartic(witness, q.as_tuple())
    error = max(abs(float(m) - float(t)) for m, t in zip(moved, target))
    return error / max(1.0, max(abs(float(t)) for t in target))


def fraction_witness(q, matrix, target):
    """The reference for _witness, in Fractions: the group element of the
    matrix's exact entries, its image of Q itself by apply_quartic,
    rescaled at the target's largest coefficient, and the residual."""
    target = [Fraction(t) for t in target]
    pivot = max(range(5), key=lambda k: abs(target[k]))
    g = from_gl2(Mat2(*(Fraction(e) for e in (matrix.alpha, matrix.beta, matrix.gamma,
                                               matrix.delta))))
    moved = apply_quartic(g, q.as_tuple())
    scale = target[pivot] / moved[pivot]
    g = GroupElement.make(g.a0, g.a1, g.a2, g.a3 * scale, 0, g.discrete)
    error = max(abs(m * scale - t) for m, t in zip(moved, target))
    return g, float(error / max(1, max(abs(t) for t in target)))


@pytest.fixture
def witness_mismatches(monkeypatch):
    """Every _witness call is checked against fraction_witness: the same
    group element and a bit-identical residual, also when the frame hands
    over its own image of the quartic.  Collects the mismatches."""
    mismatches = []
    witness = quartic_class._witness

    def checked(q, matrix, target, moved=None):
        got = witness(q, matrix, target, moved)
        expected = fraction_witness(q, matrix, target)
        if got != expected:
            mismatches.append((q.to_json(), got, expected))
        return got

    monkeypatch.setattr(quartic_class, "_witness", checked)
    return mismatches


def parameter_in_range(web, parameter):
    if web is WebType.BI_CYCLIDE:
        return parameter < -2
    if web is WebType.FLAT_RING_CYCLIDE:
        return -2 < parameter < 2
    if web is WebType.DISK_CYCLIDE:
        return parameter >= 0
    return parameter == FIXED_PARAMETERS[web]


def canonicalization_problems(q, web):
    """What is wrong with the classification and canonical form of a quartic
    from the web's stratum: an empty list when nothing is."""
    assert classify_by_roots(q) is web, q.to_json()
    problems = []
    by_invariants, audit = classify_by_invariants(q)
    if by_invariants is not web:
        problems.append((q.to_json(), "invariants", by_invariants.value, audit))
    cf, witness = canonical_form(q)
    target = representative(cf.form, cf.parameter)
    residual = witness_residual(witness, q, target)
    if cf.form != FORMS[web] or not parameter_in_range(web, cf.parameter):
        problems.append((q.to_json(), "form", cf))
    elif cf.form in ("I", "II") and web not in FIXED_PARAMETERS and not solves_f_equation(q, cf):
        problems.append((q.to_json(), "F-equation", cf))
    if not residual <= 1e-9 or abs(residual - cf.witness_residual) > 1e-12:
        problems.append((q.to_json(), "residual", residual, cf.witness_residual))
    return problems


def solves_f_equation(q, cf):
    """Whether mu is a root of the quartic's F-equation, the representative
    having Q's absolute invariant: J^2 I(mu)^3 - I^3 J(mu)^2 = 0, or
    J(mu) = 0 when J = 0, with I(mu) = 12 s + mu^2 and
    J(mu) = 72 s mu - 2 mu^3.  An exact mu must solve it exactly, and an
    inexact one must lie within 1e-14 relative of a root: the equation
    changes sign across that bracket, decided in Fractions."""
    inv = invariants(q)
    s = 1 if cf.form == "I" else -1

    def phi(mu):
        i_mu, j_mu = 12 * s + mu * mu, 72 * s * mu - 2 * mu ** 3
        return j_mu if inv.j == 0 else inv.j ** 2 * i_mu ** 3 - inv.i ** 3 * j_mu ** 2

    if cf.exact:
        return phi(cf.parameter) == 0
    mu = Fraction(cf.parameter)
    width = abs(mu) / 10**14 or Fraction(1, 10**14)
    return phi(mu - width) * phi(mu + width) <= 0


@pytest.mark.parametrize("web", list(WebType), ids=lambda w: w.value)
def test_stratified_canonicalization(web, witness_mismatches):
    rng = random.Random(f"canonical-{web.value}")
    problems = []
    for _ in range(PER_STRATUM):
        problems += canonicalization_problems(partition_quartic(rng, web), web)
    assert problems == []
    assert witness_mismatches == []


def chordal_distance(p, q):
    """|p0 q1 - p1 q0| / (|p| |q|): the distance of two points of the
    projective line, whatever their scale and including infinity."""
    return abs(p[0] * q[1] - p[1] * q[0]) / (math.hypot(abs(p[0]), abs(p[1]))
                                             * math.hypot(abs(q[0]), abs(q[1])))


def set_distance(points, others):
    """The Hausdorff distance of two sets of points in chordal distance."""
    return max(max(min(chordal_distance(p, q) for q in b) for p in a)
               for a, b in ((points, others), (others, points)))


def float_points(points):
    """The points of ``_point_roots`` as float homogeneous points, a complex
    pair as both of its points."""
    out = []
    for p in points:
        if len(p) == 2:
            out.append((p[0] / max(map(abs, p)), p[1] / max(map(abs, p))))
        else:
            u, v, w = (x / max(map(abs, p)) for x in p)
            out += [(complex(u, v), w), (complex(u, -v), w)]
    return out


@pytest.mark.parametrize("web", list(WebType), ids=lambda w: w.value)
def test_root_finder_matches_numpy(web):
    # The roots the construction starts from, against numpy's companion
    # matrix: the real roots of the resolvent for four simple roots, and the
    # distinct roots of each square-free factor, with infinity, otherwise.
    rng = random.Random(f"canonical-{web.value}")
    problems = []
    for _ in range(PER_STRATUM):
        q = partition_quartic(rng, web)
        structure = root_structure(q)
        inv = q.cleared[2]
        if inv.delta:
            # Each bracket, narrowed to relative width 2^-44, holds numpy's
            # root to 1e-9 of the roots' size.  J = R(0) = 0 puts a root at 0,
            # which has no relative width.
            poly, roots = _resolvent_roots(inv)
            for root in roots:
                if inv.j == 0 and root[0] < 0 < root[1]:
                    root[:] = [0, 0]
                else:
                    quartic_class._narrow(poly, root, 44)
            scale = math.sqrt(abs(float(inv.i))) + abs(float(inv.j)) ** (1 / 3)
            reference = sorted(z.real for z in np.roots([1, 0, -3 * float(inv.i), float(inv.j)])
                               if abs(z.imag) <= 1e-7 * scale)
            if len(roots) != len(reference) or any(
                    not lo - 1e-9 * scale <= r <= hi + 1e-9 * scale
                    for (lo, hi), r in zip(roots, reference)):
                problems.append((q.to_json(), "resolvent", roots, reference))
            continue
        reference = [(1.0, 0.0)] if structure.infinity_multiplicity else []
        for factor, _, _ in structure.finite_factors:
            reference += [(complex(z), 1.0) for z in np.roots([float(c) for c in reversed(factor)])]
        points = float_points(quartic_class._point_roots(structure, 64))
        if len(points) != len(reference) or set_distance(points, reference) > 1e-9:
            problems.append((q.to_json(), "roots", points, reference))
    assert problems == []


def fraction_route(q, web):
    """The rule on Q's own invariants, in Fractions and reference Sturm
    isolation: the resolvent t^3 - 3 I t + J's real roots by their order and
    the sign of J, mu^2 = 12 s t^2 / (4 I - t^2) exact at a rational root
    (36 when J = 0), else refined to 2^-80; (mu, exact)."""
    inv = invariants(q)
    resolvent = UniPoly([inv.j, -3 * inv.i, 0, 1])
    rational = ref_rational_roots(resolvent)
    roots = []
    for lo, hi in ref_isolate(resolvent):
        exact = [r for r in rational if lo < r <= hi]
        roots.append((exact[0], exact[0]) if exact else ref_refine(resolvent, lo, hi, (hi - lo) / 2**80))
    s, j = (1 if inv.delta > 0 else -1), inv.j
    if web is WebType.FLAT_RING_CYCLIDE:
        (lo, hi), sign = roots[1], ref_sign(j) * ref_sign(q.x4)
    elif web is WebType.BI_CYCLIDE:
        (lo, hi), sign = roots[2 if j > 0 else 0], -1
    else:
        (lo, hi), sign = roots[0], 1
    if lo == hi or j == 0:
        square = 12 * s * lo * lo / (4 * inv.i - lo * lo) if lo == hi else Fraction(36)
        rn, rd = math.isqrt(square.numerator), math.isqrt(square.denominator)
        if (rn * rn, rd * rd) == (square.numerator, square.denominator):
            return sign * Fraction(rn, rd), True
        return sign * math.sqrt(square), False
    t = (lo + hi) / 2
    return sign * math.sqrt(12 * s * t * t / (4 * inv.i - t * t)), False


def integer_route_mismatches(q):
    """Where canonical_form, on the cleared integer quartic, differs from
    the Fraction route on Q: for four simple roots the same exactness and
    mu (within 1e-12 relative when inexact), and otherwise the same
    distinct roots and multiplicities as the reference square-free
    factors of q(z, 1) over Fractions, rational ones exactly and quadratic
    ones to 2^-60."""
    web = classify_by_roots(q)
    if invariants(q).delta:
        cf, _ = canonical_form(q)
        mu, exact = fraction_route(q, web)
        if cf.exact != exact or (cf.parameter != mu if exact
                                 else abs(cf.parameter - mu) > 1e-12 * abs(mu)):
            return [(q.to_json(), "parameter", cf.parameter, mu)]
        return []
    structure = root_structure(q)
    points = quartic_class._point_roots(structure, 64)
    reals = [Fraction(p[0], p[1]) if p[1] else None for p in points if len(p) == 2]
    pairs = [(Fraction(u, w), Fraction(v, w)) for u, v, w in (p for p in points if len(p) == 3)]
    poly = dehomogenize(q)
    while poly.coeffs[-1] == 0:
        poly = UniPoly(poly.coeffs[:-1])
    real_mults, pair_mults = [4 - poly.degree] * (poly.degree < 4), []
    ok = None in reals if real_mults else True
    for factor, mult in ref_squarefree_decomposition(poly):
        coeffs = [Fraction(c) for c in ref_monic(factor).coeffs]
        if len(coeffs) == 2:
            real_mults.append(mult)
            ok = ok and -coeffs[0] in reals
            continue
        centre, disc = -coeffs[1] / 2, coeffs[1] ** 2 / 4 - coeffs[0]
        if disc > 0:
            real_mults += [mult, mult]
            ok = ok and sum(z is not None and abs((z - centre) ** 2 - disc) <= disc / 2**60
                            for z in reals) == 2
        else:
            pair_mults.append(mult)
            ok = ok and any(u == centre and abs(v * v + disc) <= -disc / 2**60 for u, v in pairs)
    if not ok or len(reals) != len(real_mults) or len(pairs) != len(pair_mults) or (
            sorted(real_mults, reverse=True), sorted(pair_mults, reverse=True)) != (
            list(structure.real_multiplicities), list(structure.cc_pair_multiplicities)):
        return [(q.to_json(), "roots", points)]
    return []


@pytest.mark.parametrize("web", list(WebType), ids=lambda w: w.value)
def test_integer_route_matches_the_fraction_route(web):
    rng = random.Random(f"integer-route-{web.value}")
    problems = []
    for _ in range(40):
        problems += integer_route_mismatches(partition_quartic(rng, web))
    assert problems == []


def test_integer_route_on_exact_parameters():
    # An exact-mu bi-cyclide and a flat ring with a non-integer centroid.
    for text in ("24320/9,-566768/27,1649572/27,-2131904/27,114700/3",
                 "560/27,-10,85/9,-25/3,5/2"):
        assert integer_route_mismatches(BinaryQuartic.make(*text.split(","))) == []


EXTREME_PER_STRATUM = 24


def extreme_quartic(rng, web):
    """A quartic from partition_quartic with every root moved near 0 or near
    infinity, by Y -> 10^e Y with 60 <= |e| <= 85, and scaled by 10^f with
    |f| <= 60: coefficient heights reach about 10^385."""
    q = partition_quartic(rng, web)
    e = rng.choice((-1, 1)) * rng.randint(60, 85)
    f = rng.randint(-60, 60)
    return BinaryQuartic.make(*(c * Fraction(10) ** (e * i + f) for i, c in enumerate(q.as_tuple())))


@pytest.mark.parametrize("web", list(WebType), ids=lambda w: w.value)
def test_extreme_magnitudes(web, witness_mismatches):
    rng = random.Random(f"extreme-{web.value}")
    problems = []
    for _ in range(EXTREME_PER_STRATUM):
        problems += canonicalization_problems(extreme_quartic(rng, web), web)
    assert problems == []
    assert witness_mismatches == []


TINY, HUGE, SMALL = Fraction(1, 10**400), Fraction(10**400), Fraction(1, 10**200)


@pytest.mark.parametrize("coeffs,web", [
    ((TINY, 0, -1, 0, 1), WebType.BI_CYCLIDE),              # +-1 and +-10^200
    ((TINY, 0, -1, 0, -1), WebType.DISK_CYCLIDE),           # +-i and +-10^200
    ((HUGE, 0, -1, 0, 1), WebType.FLAT_RING_CYCLIDE),       # four of size 10^-100
    ((0, SMALL, -1 - SMALL, 1, 0), WebType.BI_CYCLIDE),     # 0, 1, 10^200 and infinity
    ((1, -1 - SMALL, SMALL, 0, 0), WebType.INVERSE_PROLATE_SPHEROIDAL),  # 0 twice, 1, 10^-200
    ((TINY, -1, 0, 0, 0), WebType.CARDIOID),                # 0 three times and 10^400
], ids=["bi_cyclide", "disk_cyclide", "flat_ring_cyclide", "bi_cyclide_infinity",
        "inverse_prolate", "cardioid"])
def test_roots_far_apart(coeffs, web):
    # Roots of one square-free factor whose sizes differ by up to 10^200.
    assert canonicalization_problems(BinaryQuartic.make(*coeffs), web) == []


def test_tiny_simple_root_beside_the_double_root():
    # x^2 (a x^2 + 10^e x y + c y^2): a simple root of size about c / 10^e
    # beside the double root at 0.  At 64 bits the two rounded roots can
    # coincide, so the root frame is singular and the precision doubles.
    rng = random.Random(2811)
    for e in range(10, 80, 5):
        for _ in range(5):
            a, c = (rand_fraction(rng, 1, 9, 5) * rng.choice((-1, 1)) for _ in range(2))
            q = BinaryQuartic.make(a, 10 ** e, c, 0, 0)
            assert canonicalization_problems(q, WebType.INVERSE_PROLATE_SPHEROIDAL) == [], (e, a, c)


@pytest.mark.parametrize("centre,spread", [(7, Fraction(1, 10**4)), (25, Fraction(1, 10**5)),
                                           (Fraction(100, 3), Fraction(1, 10**5))])
def test_four_clustered_roots(centre, spread):
    # The roots are resolved about their centroid; about 0 they would
    # coincide in doubles.  Their cross-ratio fixes mu = -13/4.
    form = [Fraction(1)]
    for r in (0, 3, 7, 12):
        form = _mul(form, [Fraction(1), -(centre + r * spread)])
    cf, _ = canonical_form(BinaryQuartic.make(*form))
    assert (cf.form, cf.parameter, cf.exact) == ("I", Fraction(-13, 4), True)


def test_root_cluster_beside_a_far_root():
    # Three roots of size about 1 and one near -3e10: about the centroid
    # the three would coincide in doubles, so they are resolved about 0.
    q = BinaryQuartic.make(Fraction(1, 10**10), 3, -1, 0, 1)
    assert canonicalization_problems(q, WebType.DISK_CYCLIDE) == []


def test_root_sizes_beyond_double_range_canonicalize():
    # Roots near 10^400 and 10^-400 in one factor: the resolvent has the
    # integer roots -2 10^800, 10^800 + 6 and 10^800 - 6, and the rule
    # picks the second.
    n = 10**800
    cf, _ = canonical_form(BinaryQuartic.make(1, 0, -n, 0, 1))
    assert (cf.form, cf.parameter, cf.exact) == ("I", Fraction(-2 * (n + 6), n - 2), True)
    assert cf.witness_residual <= 1e-9


def clustered_quartic(rng):
    """A bi-cyclide with roots c, c + k1 10^-6, c + k2 10^-6 and
    c + 100 + j/4, for 1 <= k1 <= 200 < k2 <= 400, |j| <= 4 and c in
    [-50, 50] in steps of 1/4."""
    c = Fraction(rng.randint(-200, 200), 4)
    roots = (c, c + Fraction(rng.randint(1, 200), 10**6), c + Fraction(rng.randint(201, 400), 10**6),
             c + 100 + Fraction(rng.randint(-4, 4), 4))
    form = [Fraction(1)]
    for r in roots:
        form = _mul(form, [Fraction(1), -r])
    return BinaryQuartic.make(*form)


def test_clustered_roots(witness_mismatches):
    rng = random.Random(2024)
    problems = []
    for _ in range(60):
        problems += canonicalization_problems(clustered_quartic(rng), WebType.BI_CYCLIDE)
    assert problems == []
    assert witness_mismatches == []


@pytest.mark.parametrize("web", [WebType.BI_CYCLIDE, WebType.FLAT_RING_CYCLIDE, WebType.DISK_CYCLIDE],
                         ids=lambda w: w.value)
def test_tight_clusters(web, witness_mismatches):
    # Roots, real or complex, 10^-40 apart beside others about 1 away.
    rng, eps = random.Random(f"tight-{web.value}"), Fraction(1, 10**40)
    for _ in range(4):
        c = Fraction(rng.randint(-40, 40), 4)
        d = c + rng.randint(1, 9) * eps
        if web is WebType.BI_CYCLIDE:
            factors = [[1, -2 * c, c * c - 2 * eps * eps], [1, -d], [1, -c - 1]]
        elif web is WebType.FLAT_RING_CYCLIDE:
            factors = [[1, -2 * c, c * c + eps * eps], [1, -2 * d, d * d + 4 * eps * eps]]
        else:
            factors = [[1, -c], [1, -d], [1, -2 * c, c * c + 1]]
        q = moved_product(rng, [list(map(Fraction, f)) for f in factors])
        assert canonicalization_problems(q, web) == []
    assert witness_mismatches == []


def test_precision_doubles_until_the_residual_holds(monkeypatch):
    # Residuals refused below 512 bits: the frame is rebuilt at 128, 256
    # and 512 bits; refused at every precision, the cap makes a finding.
    precisions, witness = [], quartic_class._witness

    def refused(q, matrix, target, moved, below):
        g, residual = witness(q, matrix, target, moved)
        precisions.append(max(abs(e).bit_length() for e in (matrix.alpha, matrix.beta)))
        return g, residual if len(precisions) > below else 1.0

    q = BinaryQuartic.make(3, -7, 2, 5, -11)
    monkeypatch.setattr(quartic_class, "_witness", lambda *args: refused(*args, 3))
    cf, _ = canonical_form(q)
    assert cf.witness_residual <= 1e-9 and len(precisions) == 4
    assert all(b > a + 32 for a, b in zip(precisions, precisions[1:]))
    precisions.clear()
    monkeypatch.setattr(quartic_class, "_witness", lambda *args: refused(*args, 100))
    with pytest.raises(ClassificationError, match="misses the representative by 1"):
        canonical_form(q)
    assert len(precisions) == 7  # 64 to 4096 bits


@pytest.mark.parametrize("text,mu", [
    ("1,0,1e100,0,1", Fraction(12 - 2 * 10**100, 10**100 + 2)),
    ("1e-320,0,-1,0,1", Fraction(12 + 2 * 10**160, 2 - 10**160)),
    ("1,0,-1e800,0,1", Fraction(-2 * (10**800 + 6), 10**800 - 2)),
    ("1e320,0,-1,0,1", Fraction(-1, 10**160)),
    ("1,0,1e400,0,-1", Fraction(10**400)),
], ids=["flat_ring_near_2", "bi_cyclide_near_minus_2", "bi_cyclide_1e800", "flat_ring_tiny",
        "disk_1e400"])
def test_exact_parameters_far_from_double_range(text, mu):
    cf, _ = canonical_form(BinaryQuartic.make(*text.split(",")))
    assert (cf.parameter, cf.exact) == (mu, True)
    assert cf.witness_residual <= 1e-9


def test_narrow_reads_a_root_at_zero(monkeypatch):
    # J = R(0) = 0 puts a root of t^3 - 3 I t at exactly 0, which has no
    # relative width and is off the refiner's dyadic grid of this bracket:
    # narrowing never leaves it, so the bracket becomes (0, 0).  The
    # counted refiner turns a loop into a failure.
    calls = []

    def counted(*args):
        calls.append(args)
        assert len(calls) < 100
        return exactmath.refine_root(*args)

    monkeypatch.setattr(quartic_class, "refine_root", counted)
    poly = [0, -3 * 4976640, 0, 1]
    root = [Fraction(-2231), Fraction(2230)]
    quartic_class._narrow(poly, root, 44)
    assert root == [0, 0]
    # The root sqrt(3 I) beside it, in the bracket (0, 5000], is narrowed
    # as before.
    root = [Fraction(0), Fraction(5000)]
    quartic_class._narrow(poly, root, 44)
    lo, hi = root
    assert 0 < lo < hi and lo * lo < 3 * 4976640 <= hi * hi
    assert (hi - lo) * 2 ** 44 <= lo


def test_integer_roots_need_no_isolation(monkeypatch):
    # Integer resolvent roots of any size, two of them 12 apart, are found
    # in brackets split by the separators +-sqrt(I) and narrowed to width
    # 1/2, not by exact isolation from the Cauchy bound.
    def refused(poly):
        raise AssertionError("isolate_real_roots called")

    monkeypatch.setattr(exactmath, "isolate_real_roots", refused)
    for text in ("1,0,1e100,0,1", "1e-320,0,-1,0,1", "1,0,-1e800,0,1", "1,0,1e400,0,-1"):
        assert canonical_form(BinaryQuartic.make(*text.split(",")))[0].exact


def test_irrational_parameter_beyond_double_range_is_a_finding():
    # mu = 10^400 / sqrt(2).
    with pytest.raises(ClassificationError, match="beyond double range"):
        canonical_form(BinaryQuartic.make(*"1,0,1e400,0,-2".split(",")))


def test_parameter_with_a_large_denominator_is_exact():
    mu = -2 - Fraction(1, 10**7 + 1)
    rng = random.Random("large-denominator")
    for _ in range(5):
        q = moved_product(rng, [[Fraction(1), 0, mu, 0, Fraction(1)]])
        cf, _ = canonical_form(q)
        assert (cf.form, cf.parameter, cf.exact) == ("I", mu, True)


@pytest.mark.parametrize("coeffs,form,mu", [
    ((1, 0, 0, 0, -1), "II", 0), ((1, 0, 0, 0, 1), "I", 0), ((1, 0, -6, 0, 1), "I", -6),
], ids=["disk", "flat_ring", "bi_cyclide"])
def test_vanishing_j(coeffs, form, mu):
    # J = 0: the resolvent's roots are 0 and +-sqrt(3 I), where mu = 0 and
    # mu^2 = 36; orbits keep J = 0.
    rng = random.Random(f"vanishing-j-{form}-{mu}")
    for _ in range(5):
        q = moved_product(rng, [list(map(Fraction, coeffs))])
        assert invariants(q).j == 0
        cf, _ = canonical_form(q)
        assert (cf.form, cf.parameter, cf.exact) == (form, mu, True)


def homogeneous_roots(q):
    """The roots of a quartic with four rational roots as points (x, y)."""
    poly = int_cleared(list(reversed(q.as_tuple())))
    return [(r, Fraction(1)) for r in rational_roots(poly)] + [(Fraction(1), Fraction(0))] * (5 - len(poly))


def labeling_rule(points):
    """The rule on four real roots, in Fractions: each labeling's
    mu = 2 ([z1 z3][z2 z4] + [z1 z4][z2 z3]) / ([z1 z2][z3 z4]), for the
    pairs {z1, z2} and {z3, z4}, with [u v] = u0 v1 - u1 v0, is a form-I
    parameter when the map is real; of those below -2 the smallest |mu|
    wins, then mu >= 0."""
    def b(u, v):
        return u[0] * v[1] - u[1] * v[0]

    found = []
    for z1, z2, z3, z4 in itertools.permutations(points):
        found.append(2 * (b(z1, z3) * b(z2, z4) + b(z1, z4) * b(z2, z3)) / (b(z1, z2) * b(z3, z4)))
    found = [mu for mu in found if mu < -2]
    smallest = min(abs(mu) for mu in found)
    return max(mu for mu in found if abs(mu) == smallest)


def test_rule_on_rational_bi_cyclides():
    rng = random.Random("rational-bi-cyclides")
    for _ in range(60):
        q = moved_product(rng, _real_roots(rng, 4))
        points = homogeneous_roots(q)
        assert len(points) == 4, q.to_json()
        cf, _ = canonical_form(q)
        assert (cf.form, cf.parameter, cf.exact) == ("I", labeling_rule(points), True), q.to_json()


class TestFaultRegressions:
    def test_flat_ring_matches_a_decision_row(self):
        web, audit = classify_by_invariants(
            BinaryQuartic.make(Fraction(560, 27), -10, Fraction(85, 9), Fraction(-25, 3),
                               Fraction(5, 2)))
        assert web is WebType.FLAT_RING_CYCLIDE
        assert audit[-1] == {"web": "flat_ring_cyclide", "condition": "Delta > 0",
                             "matched": True}

    def test_rational_bicyclide_parameter_is_exact(self):
        text = "24320/9,-566768/27,1649572/27,-2131904/27,114700/3"
        cf, _ = canonical_form(BinaryQuartic.make(*text.split(",")))
        assert cf.exact and cf.parameter == Fraction(-886, 341)


def test_smallest_mu_is_chosen():
    # Both -114/25 and -33/4 are real-equivalent form-I parameters of this
    # bi-cyclide; the smaller |mu| wins.
    cf, _ = canonical_form(BinaryQuartic.make(*"-125/12,125/3,255/2,-1015/3,155/12".split(",")))
    assert (cf.form, cf.parameter, cf.exact) == ("I", Fraction(-114, 25), True)


def test_disk_parameter_sign():
    # X^4 + mu X^2 Y^2 - Y^4 and X^4 - mu X^2 Y^2 - Y^4 swap under X <-> Y.
    cf, _ = canonical_form(BinaryQuartic.make(-1, 0, 3, 0, 1))
    assert (cf.form, cf.parameter, cf.exact) == ("II", 3, True)
