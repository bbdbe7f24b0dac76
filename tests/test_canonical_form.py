"""Canonical forms on quartics built from their root partition.

Orbits of the nine fixed representatives reach one modulus per type, so
they cannot show how canonicalization behaves on generic input.  The
generator below multiplies out linear and quadratic factors for a chosen
root partition (rational roots, real and complex quadratic irrationals,
roots at infinity), then moves the product by a random rational GL(2)
substitution and a random scale.
"""

import random
from fractions import Fraction

import pytest

from rotweb.group_action import Mat2, apply_quartic, substitution_action
from rotweb.quartic_class import (BinaryQuartic, WebType, canonical_form,
                                  classify_by_invariants, classify_by_roots)

from conftest import rand_fraction

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


def parameter_in_range(web, parameter):
    if web is WebType.BI_CYCLIDE:
        return parameter < -2
    if web is WebType.FLAT_RING_CYCLIDE:
        return -2 < parameter < 2
    if web is WebType.DISK_CYCLIDE:
        return parameter >= 0
    return parameter == FIXED_PARAMETERS[web]


@pytest.mark.parametrize("web", list(WebType), ids=lambda w: w.value)
def test_stratified_canonicalization(web):
    rng = random.Random(f"canonical-{web.value}")
    problems = []
    for _ in range(PER_STRATUM):
        q = partition_quartic(rng, web)
        assert classify_by_roots(q) is web, q.to_json()
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
    assert problems == []


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
