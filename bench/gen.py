"""Seeded input generators for the rotweb benchmark.

Everything here is built from first principles (linear factors multiplied
out over the rationals, explicit polynomial potentials) so that the program
under test sees only the generated inputs and the expected answer is known
by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Root partition of each stratum: real multiplicities and complex-pair
# multiplicities, roots at infinity counting as real.
STRATA = {
    "bi_cyclide": ((1, 1, 1, 1), ()),
    "flat_ring_cyclide": ((), (1, 1)),
    "disk_cyclide": ((1, 1), (1,)),
    "inverse_prolate_spheroidal": ((2, 1, 1), ()),
    "inverse_oblate_spheroidal": ((2,), (1,)),
    "toroidal": ((), (2,)),
    "bispherical": ((2, 2), ()),
    "cardioid": ((3, 1), ()),
    "tangent_sphere": ((4,), ()),
}


def _form_mul(a: list, b: list) -> list:
    """Product of binary forms given as X-degree-descending coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _rational(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _substitute(form: list, m: tuple) -> list:
    """Q(X, Y) -> Q(alpha X + beta Y, gamma X + delta Y) for a binary form."""
    alpha, beta, gamma, delta = m
    n = len(form) - 1
    out = [Fraction(0)] * (n + 1)
    for k, coeff in enumerate(form):
        if coeff == 0:
            continue
        # X^(n-k) Y^k with X -> (alpha, beta), Y -> (gamma, delta).
        term = [Fraction(1)]
        for _ in range(n - k):
            term = _form_mul(term, [alpha, beta])
        for _ in range(k):
            term = _form_mul(term, [gamma, delta])
        for i, c in enumerate(term):
            out[i] += coeff * c
    return out


def random_gl2(rng: random.Random) -> tuple:
    """An invertible rational 2x2 matrix with small entries."""
    while True:
        m = tuple(_rational(rng, 3, 2) for _ in range(4))
        if m[0] * m[3] - m[1] * m[2] != 0:
            return m


def _moved_root(root, m: tuple):
    """Where the root (root : 1) of Q, None for infinity, lands under
    Q -> Q(alpha X + beta Y, gamma X + delta Y)."""
    alpha, beta, gamma, delta = m
    num, den = (-delta, gamma) if root is None else (root * delta - beta, alpha - root * gamma)
    return None if den == 0 else num / den


def stratum_quartic(rng: random.Random, stratum: str) -> tuple:
    """A quartic (x4, x3y, x2y2, xy3, y4) with the stratum's root partition:
    distinct rational real roots (one of them possibly at infinity),
    complex pairs from rational quadratics with negative discriminant,
    multiplied out exactly, then moved by a random GL(2) substitution and a
    random nonzero rational scale.

    Draws whose moved real roots include two exactly 1 apart are drawn
    again: on those canonical_form's witness search pads its anchors with a
    point equal to a root and fails (bispherical, cardioid), which would make
    the failed share depend on the seed."""
    if stratum == "bi_cyclide":
        return _bi_cyclide(rng)
    real_mults, pair_mults = STRATA[stratum]
    while True:
        roots: list = []
        while len(roots) < len(real_mults):
            r = _rational(rng, 9, 4)
            if r not in roots:
                roots.append(r)
        if real_mults and rng.random() < 0.25:
            roots[rng.randrange(len(roots))] = None  # root at infinity
        pairs: list = []
        while len(pairs) < len(pair_mults):
            b = _rational(rng, 6, 3)
            c = b * b / 4 + Fraction(rng.randint(1, 9), rng.randint(1, 4))
            if (b, c) not in pairs:
                pairs.append((b, c))
        m = random_gl2(rng)
        moved = [_moved_root(r, m) for r in roots]
        finite = [r for r in moved if r is not None]
        if not any(a - b == 1 for a in finite for b in finite):
            break
    form = [Fraction(1)]
    for root, mult in zip(roots, real_mults):
        factor = [Fraction(0), Fraction(1)] if root is None else [Fraction(1), -root]
        for _ in range(mult):
            form = _form_mul(form, factor)
    for (b, c), mult in zip(pairs, pair_mults):
        for _ in range(mult):
            form = _form_mul(form, [Fraction(1), b, c])
    return _moved(rng, form, m)


def _moved(rng: random.Random, form: list, m: tuple) -> tuple:
    form = _substitute(form, m)
    scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
    return tuple(c * scale for c in form)


def _bi_cyclide(rng: random.Random) -> tuple:
    """Orbit of canonical form I, (1, 0, mu, 0, 1) with rational mu < -2.

    Four distinct rational roots, the generic construction, make classify
    exit 2 on about 1 draw in 100 (canonical_form finds no witness), which
    would make the failed share depend on the seed; the form-I orbits keep
    the stratum in every round and did not fail in 1000 draws."""
    mu = -2 - Fraction(rng.randint(1, 40), rng.randint(1, 6))
    return _moved(rng, [Fraction(1), Fraction(0), mu, Fraction(0), Fraction(1)], random_gl2(rng))


def quartic_arg(q: tuple) -> str:
    return ",".join(str(c) for c in q)


def rotational_params(rng: random.Random, rational: bool) -> tuple:
    """Six rotational parameters (M33, L3, H, C33, D3, A33), not all zero:
    integers in [-9, 9], or rationals with denominators 2..7."""
    while True:
        if rational:
            values = tuple(Fraction(rng.randint(-9, 9), rng.randint(2, 7)) for _ in range(6))
        else:
            values = tuple(Fraction(rng.randint(-9, 9)) for _ in range(6))
        if any(values):
            return values


def metric_multiple(rng: random.Random) -> dict:
    """Coefficients of a random polynomial f of degree <= 2 in x, y, z,
    as {exponent tuple: Fraction}."""
    monomials = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    while True:
        f = {m: _rational(rng, 5, 3) for m in monomials if rng.random() < 0.5}
        f = {m: c for m, c in f.items() if c}
        if f:
            return f


def _positive(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(1, num), rng.randint(1, den))


# Axisymmetric potential families.  Each builder returns the expression
# handed to `rotweb compat`, the energy, the same potential as a Python
# function of x, y, z (the checks evaluate it on Taylor jets) and, where the
# paper fixes it, the exact compatible family as rows (M33, L3, H, C33, D3, A33).
def scaled_example(rng: random.Random) -> tuple:
    c2 = _positive(rng, 7, 4) ** 2
    text = f"-4*({c2})/((x^2+y^2+z^2-({c2}))^2+4*({c2})*z^2)"
    family = [(1 / (2 * c2), 0, 1, 0, 0, c2 / 2), (0, 0, 0, 1, 0, 0)]
    return text, Fraction(0), lambda x, y, z: -4 * c2 / ((x * x + y * y + z * z - c2) ** 2
                                                          + 4 * c2 * z * z), family


def radial(rng: random.Random) -> tuple:
    k = _rational(rng, 9, 4) or Fraction(1)
    return (f"({k})/(x^2+y^2+z^2)", _rational(rng, 5, 3),
            lambda x, y, z: k / (x * x + y * y + z * z), None)


def harmonic(rng: random.Random) -> tuple:
    a, b = _positive(rng, 9, 4), _positive(rng, 9, 4)
    return (f"({a})*(x^2+y^2)+({b})*z^2", _rational(rng, 5, 3),
            lambda x, y, z: a * (x * x + y * y) + b * z * z, None)


def linear_z(rng: random.Random) -> tuple:
    g = _rational(rng, 9, 4) or Fraction(1)
    return f"({g})*z", _rational(rng, 5, 3), lambda x, y, z: g * z, None


POTENTIALS = {
    "scaled_example": scaled_example,
    "radial": radial,
    "harmonic": harmonic,
    "linear_z": linear_z,
}
