"""Univariate oracles for the integer kernel of ``rotweb.exactmath``.

``UniPoly`` is a dense univariate polynomial over the rationals, and the
``ref_*`` functions are the former univariate kernel over Fraction: Euclid's
algorithm with Fraction long division, Yun's algorithm on monic gcds, and
Sturm sequences of Fraction remainders evaluated by Fraction Horner.  The
package itself works on primitive integer coefficient lists only; ``ints``
and ``squarefree_ints`` carry a ``UniPoly`` over to them.
"""

import math
from fractions import Fraction

from rotweb.exactmath import int_cleared, squarefree_decomposition


class UniPoly:
    """Dense univariate polynomial over the rationals, low degree first;
    integer-valued coefficients are kept as ints."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(c.numerator if c.denominator == 1 else c for c in cs)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        return Fraction(self.coeffs[-1])

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return UniPoly([x + y for x, y in zip(a, list(b) + [0] * (len(a) - len(b)))])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return UniPoly([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def derivative(self):
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * Fraction(x) + c
        return total


def product(polys):
    """The product of integer coefficient lists, as a UniPoly."""
    out = UniPoly([1])
    for a in polys:
        out = out * UniPoly(a)
    return out


def ints(p):
    """The kernel's polynomial for p: the primitive integer multiple c p
    with c > 0."""
    return int_cleared(p.coeffs)


def squarefree_ints(p):
    """The kernel's square-free part of a nonzero p: the product of its
    square-free factors."""
    return list(product(factor for factor, _, _ in squarefree_decomposition(ints(p))).coeffs)


def dehomogenize(q):
    """q(z) = Q(z, 1) of a BinaryQuartic, low degree first."""
    return UniPoly(reversed(q.as_tuple()))


def singular_polynomial(p):
    """q(z) = M33 z^4 + L3 z^3 + H z^2 + D3 z + A33 of RotParams p, whose
    roots on the extended z-axis are the points where all three
    eigenvalues coincide."""
    return UniPoly([p.a33, p.d3, p.h, p.l3, p.m33])


def ref_divmod(p, q):
    rem = [Fraction(c) for c in p.coeffs]
    quot = [Fraction(0)] * max(0, len(rem) - len(q.coeffs) + 1)
    d, lead = q.degree, Fraction(q.coeffs[-1])
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] / lead
        if c:
            quot[i - d] = c
            for j, b in enumerate(q.coeffs):
                rem[i - d + j] -= c * b
    return UniPoly(quot), UniPoly(rem)


def ref_exact_div(p, q):
    quot, rem = ref_divmod(p, q)
    assert rem.is_zero
    return quot


def ref_monic(p):
    return UniPoly([Fraction(c) / p.lead for c in p.coeffs]) if not p.is_zero else p


def ref_gcd(p, q):
    a, b = p, q
    while not b.is_zero:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_squarefree_decomposition(p):
    if p.degree == 0:
        return []
    factors = []
    g = ref_gcd(p, p.derivative())
    b = ref_exact_div(p, g)
    d = ref_exact_div(p.derivative(), g) - b.derivative()
    mult = 1
    while b.degree > 0:
        a = ref_gcd(b, d)
        if a.degree > 0:
            factors.append((a, mult))
        b = ref_exact_div(b, a)
        d = ref_exact_div(d, a) - b.derivative()
        mult += 1
    return factors


def ref_squarefree_part(p):
    return UniPoly([1]) if p.degree == 0 else ref_monic(ref_exact_div(p, ref_gcd(p, p.derivative())))


def ref_sturm(p):
    seq = [p, p.derivative()]
    while not seq[-1].is_zero:
        seq.append(-ref_divmod(seq[-2], seq[-1])[1])
    return seq[:-1]


def ref_sign(x):
    return (x > 0) - (x < 0)


def ref_variations(signs):
    cleaned = [s for s in signs if s]
    return sum(1 for a, b in zip(cleaned, cleaned[1:]) if a != b)


def ref_real_root_count(p):
    seq = ref_sturm(p)
    at = lambda positive: ref_variations(  # noqa: E731
        ref_sign(q.lead) * (1 if positive or q.degree % 2 == 0 else -1) for q in seq)
    return at(False) - at(True)


def ref_isolate(sf):
    seq = ref_sturm(sf)
    out = []

    def variations(x):
        return ref_variations(ref_sign(q.eval(x)) for q in seq)

    bound = Fraction(1)
    if sf.degree > 0:
        bound += max(abs(Fraction(c)) for c in sf.coeffs[:-1]) / abs(sf.lead)
    stack = [(-bound, bound, variations(-bound), variations(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            out.append((lo, hi))
        elif vlo > vhi:
            mid = (lo + hi) / 2
            vmid = variations(mid)
            stack += [(mid, hi, vmid, vhi), (lo, mid, vlo, vmid)]
    return out


def ref_refine(p, lo, hi, max_width):
    shi = ref_sign(p.eval(hi))
    if shi == 0:
        return hi, hi
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        smid = ref_sign(p.eval(mid))
        if smid == 0:
            return mid, mid
        lo, hi = (lo, mid) if smid == shi else (mid, hi)
    return lo, hi


def ref_rational_roots(p):
    sf = ref_squarefree_part(p)
    c = math.lcm(*(x.denominator for x in sf.coeffs))
    roots = []
    for lo, hi in ref_isolate(sf):
        lo, hi = ref_refine(sf, lo, hi, Fraction(1, 2 * c))
        candidate = Fraction(math.floor(hi * c), c)
        if (lo < candidate or lo == hi) and sf.eval(candidate) == 0:
            roots.append(candidate)
    return roots
