"""Canonical forms on quartics built from their root partition.

Orbits of the nine fixed representatives reach one modulus per type, so
they cannot show how canonicalization behaves on generic input.  The
generator below multiplies out linear and quadratic factors for a chosen
root partition (rational roots, real and complex quadratic irrationals,
roots at infinity), then moves the product by a random rational GL(2)
substitution and a random scale.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rotweb import quartic_class
from rotweb.exactmath import int_cleared
from rotweb.group_action import GroupElement, Mat2, apply_quartic, from_gl2, substitution_action
from rotweb.quartic_class import (BinaryQuartic, ClassificationError, WebType, _aberth,
                                  _cleared_invariants, _float_roots, _generic_form, _normalized,
                                  _pin_parameter, _point, _polish, canonical_form,
                                  classify_by_invariants, classify_by_roots, invariants,
                                  root_structure)

from conftest import rand_fraction
from ref_univariate import UniPoly, ref_refine, ref_sign

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
    group element and a bit-identical residual.  Collects the mismatches."""
    mismatches = []
    witness = quartic_class._witness

    def checked(q, matrix, target):
        got = witness(q, matrix, target)
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
    if not residual <= 1e-9 or abs(residual - cf.witness_residual) > 1e-12:
        problems.append((q.to_json(), "residual", residual, cf.witness_residual))
    return problems


@pytest.mark.parametrize("web", list(WebType), ids=lambda w: w.value)
def test_stratified_canonicalization(web, witness_mismatches):
    rng = random.Random(f"canonical-{web.value}")
    problems = []
    for _ in range(PER_STRATUM):
        problems += canonicalization_problems(partition_quartic(rng, web), web)
    assert problems == []
    assert witness_mismatches == []


def reference_float_roots(structure):
    """numpy's companion-matrix roots of each square-free factor, each
    polished by _polish and ordered as _float_roots orders its roots: the
    reference for the package's own root finder."""
    roots = [(structure.infinity_multiplicity, (1, 0))] if structure.infinity_multiplicity else []
    for factor, mult, nreal in structure.finite_factors:
        monic = [c / factor[-1] for c in reversed(factor)]
        found = sorted((complex(z) for z in np.roots(monic)), key=lambda z: abs(z.imag))
        roots += [(mult, (_polish(factor, z.real).real, 1)) for z in found[:nreal]]
        for z in sorted(found[nreal:], key=lambda z: -z.imag)[:len(found[nreal:]) // 2]:
            z = _polish(factor, z)
            roots += [(mult, (z, 1)), (mult, (z.conjugate(), 1))]
    roots.sort(key=lambda item: -item[0])
    return [point for _, point in roots]


def chordal_distance(p, q):
    """|p0 q1 - p1 q0| / (|p| |q|): the distance of two points of the
    projective line, whatever their scale and including infinity."""
    return abs(p[0] * q[1] - p[1] * q[0]) / (math.hypot(abs(p[0]), abs(p[1]))
                                             * math.hypot(abs(q[0]), abs(q[1])))


def set_distance(points, others):
    """The Hausdorff distance of two sets of points in chordal distance."""
    return max(max(min(chordal_distance(p, q) for q in b) for p in a)
               for a, b in ((points, others), (others, points)))


@pytest.mark.parametrize("web", list(WebType), ids=lambda w: w.value)
def test_root_finder_matches_numpy(web, monkeypatch):
    rng = random.Random(f"canonical-{web.value}")
    problems = []
    for _ in range(PER_STRATUM):
        q = partition_quartic(rng, web)
        structure = root_structure(q)
        points, reference = _float_roots(structure), reference_float_roots(structure)
        if len(points) != len(reference) or set_distance(points, reference) > 1e-9:
            problems.append((q.to_json(), "roots", points, reference))
        cf, _ = canonical_form(q, structure)
        with monkeypatch.context() as patch:
            patch.setattr(quartic_class, "_float_roots", reference_float_roots)
            expected, _ = canonical_form(q, structure)
        if (cf.form, cf.exact) != (expected.form, expected.exact) or (
                cf.parameter != expected.parameter if cf.exact
                else abs(cf.parameter - expected.parameter) > 1e-12 * abs(expected.parameter)):
            problems.append((q.to_json(), "canonical", cf, expected))
    assert problems == []


def fraction_normalized(factor):
    """The reference for _normalized, in Fractions: the centre, k and the
    monic g(w) = f(c + 2^k w) / 2^(k d) of the monic factor f, by a Taylor
    shift of f's own coefficients."""
    coeffs = list(factor.coeffs)
    d = len(coeffs) - 1
    centre = -Fraction(coeffs[-2]) / d
    if abs(factor.eval(centre)) >= abs(coeffs[0]):
        centre = Fraction(0)
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            coeffs[j] += centre * coeffs[j + 1]
    low = next(i for i, c in enumerate(coeffs) if c)
    top = Fraction(coeffs[low])
    log = math.log2(abs(top.numerator)) - math.log2(top.denominator)
    k = round(log / (d - low)) if low < d else 0
    return centre, k, UniPoly([c * Fraction(2) ** (k * (i - d)) for i, c in enumerate(coeffs)])


def fraction_point(centre, k, w):
    """The reference for _point, in Fractions."""
    x = centre + Fraction(w.real) * Fraction(2) ** k
    y = Fraction(w.imag) * Fraction(2) ** k
    norm = x * x + y * y
    if norm > 1:
        x, y = x / norm, -y / norm
    z = complex(x, y) if isinstance(w, complex) else float(x)
    return (z, 1) if norm <= 1 else (1, z)


def fraction_pin_parameter(form, inv, approx):
    """The reference for _pin_parameter, on the F-equation
    I(mu)^3 - F J(mu)^2 of the quartic's own invariants as a UniPoly, with
    Fraction signs and bisection."""
    c = 1 if form == "I" else -1
    i_mu = UniPoly([12 * c, 0, 1])
    j_mu = UniPoly([0, 72 * c, 0, -2])
    poly = j_mu if inv.j == 0 else i_mu * i_mu * i_mu - j_mu * j_mu * inv.f
    centre = Fraction(approx)
    for width in (Fraction(1, 10**12), Fraction(1, 10**9), Fraction(1, 10**6)):
        lo, hi = centre - width * max(1, abs(centre)), centre + width * max(1, abs(centre))
        if ref_sign(poly.eval(lo)) * ref_sign(poly.eval(hi)) <= 0:
            break
    else:
        return approx, False
    max_width = Fraction(1, 4 * 10**12) * min(1, abs(centre) or 1)
    lo, hi = ref_refine(poly, lo, hi, max_width)
    candidate = ((lo + hi) / 2).limit_denominator(10**6) if lo != hi else lo
    if lo <= candidate <= hi and poly.eval(candidate) == 0:
        return candidate, True
    return float((lo + hi) / 2), False


def integer_route_mismatches(q):
    """Where _normalized, _polish, _point and _pin_parameter on the cleared
    integer quartic differ from their Fraction references on q: the same
    centre, k and monic scaled coefficients, the same step from any integer
    multiple, bit-identical points and the same mu."""
    structure = root_structure(q)
    problems = []
    for factor, _, nreal in structure.finite_factors:
        (n, d), k, scaled = _normalized(factor)
        centre, ref_k, ref_scaled = fraction_normalized(UniPoly([Fraction(c, factor[-1])
                                                                 for c in factor]))
        if (Fraction(n, d), k, [Fraction(c, scaled[-1]) for c in scaled]) != (
                centre, ref_k, list(map(Fraction, ref_scaled.coeffs))):
            problems.append((q.to_json(), "normalized", factor))
            continue
        found = sorted(_aberth(scaled), key=lambda w: abs(w.imag))
        for i, w in enumerate(found):
            w = w.real if i < nreal else w
            polished = _polish(scaled, w)
            if repr(polished) != repr(_polish(int_cleared(ref_scaled.coeffs), w)):
                problems.append((q.to_json(), "polish", factor, w))
            w = polished.real if i < nreal else polished
            if repr(_point((n, d), k, w)) != repr(fraction_point(centre, ref_k, w)):
                problems.append((q.to_json(), "point", factor, w))
    web = classify_by_roots(q, structure)
    stratum = quartic_class._STRATA[web]
    if stratum.roots is None:
        approx, _ = _generic_form(web, _float_roots(structure))
        got = _pin_parameter(stratum.form, _cleared_invariants(q)[2], approx)
        if got != fraction_pin_parameter(stratum.form, invariants(q), approx):
            problems.append((q.to_json(), "parameter", got))
    return problems


@pytest.mark.parametrize("web", list(WebType), ids=lambda w: w.value)
def test_integer_route_matches_the_fraction_route(web):
    rng = random.Random(f"integer-route-{web.value}")
    quartics = [partition_quartic(rng, web) for _ in range(40)]
    quartics += [extreme_quartic(rng, web) for _ in range(12)]
    problems = []
    for q in quartics:
        problems += integer_route_mismatches(q)
    assert problems == []


def test_integer_route_on_exact_parameters():
    # An exact-mu bi-cyclide and a flat ring with a non-integer centroid.
    for text in ("24320/9,-566768/27,1649572/27,-2131904/27,114700/3",
                 "560/27,-10,85/9,-25/3,5/2"):
        assert integer_route_mismatches(BinaryQuartic.from_tuple(text.split(","))) == []


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


def test_root_sizes_beyond_double_range_are_a_finding():
    # Roots near 10^400 and 10^-400 in one factor: no power-of-two scale
    # brings both within double range.
    with pytest.raises(ClassificationError, match="differ in size beyond double range"):
        canonical_form(BinaryQuartic.make(1, 0, -Fraction(10**800), 0, 1))


class TestFaultRegressions:
    def test_flat_ring_matches_a_decision_row(self):
        web, audit = classify_by_invariants(
            BinaryQuartic.make(Fraction(560, 27), -10, Fraction(85, 9), Fraction(-25, 3),
                               Fraction(5, 2)))
        assert web is WebType.FLAT_RING_CYCLIDE
        assert audit[-1] == {"web": "flat_ring_cyclide", "condition": "Delta > 0",
                             "matched": True}

    def test_rational_bicyclide_parameter_is_exact(self):
        cf, _ = canonical_form(BinaryQuartic.from_tuple(
            "24320/9,-566768/27,1649572/27,-2131904/27,114700/3".split(",")))
        assert cf.exact and cf.parameter == Fraction(-886, 341)


def test_smallest_mu_is_chosen():
    # Both -114/25 and -33/4 are real-equivalent form-I parameters of this
    # bi-cyclide; the smaller |mu| wins.
    cf, _ = canonical_form(BinaryQuartic.from_tuple("-125/12,125/3,255/2,-1015/3,155/12".split(",")))
    assert (cf.form, cf.parameter, cf.exact) == ("I", Fraction(-114, 25), True)


def test_disk_parameter_sign():
    # X^4 + mu X^2 Y^2 - Y^4 and X^4 - mu X^2 Y^2 - Y^4 swap under X <-> Y.
    cf, _ = canonical_form(BinaryQuartic.make(-1, 0, 3, 0, 1))
    assert (cf.form, cf.parameter, cf.exact) == ("II", 3, True)
