"""The group acting on rotationally symmetric conformal Killing tensors:
five continuous generators (inversion along the axis, translation, dilation,
tensor scaling, and the R3.R3 shift), plus the discrete unit-sphere
inversion, together with the bridge to GL(2, R) acting on binary quartics.

Normal form: an element applies the discrete inversion first, then the
continuous part.  On the extended z-axis the element acts by the Moebius map
z -> ((a2 + a1 a0) z + a1) / (a0 z + 1), pre-composed with z -> 1/z when the
discrete flag is set.

GL(2) conventions (pinned by tests): the classical substitution action
Q -> Q((X, Y) . M) equals the parameter action of from_gl2(M) exactly, and
substitution by to_gl2(g) reproduces apply(g) exactly.  This fixes the
fourth-root scaling in to_gl2 as (a3 / a2^2)^(1/4) and the a2 entry of
from_gl2 as det(M) / alpha^2; any other normalization reproduces the action
only up to a positive scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .ckt_core import CktError
from .exactmath import UniPoly, rat, rat_str
from .rotational import RotParams, singular_polynomial


class _Infinity:
    """The point at infinity of the extended rational line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()


@dataclass(frozen=True)
class GroupElement:
    """(a0, a1, a2, a3, a4) plus the discrete-inversion flag; a2, a3 != 0."""

    a0: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    discrete: bool

    @classmethod
    def make(cls, a0=0, a1=0, a2=1, a3=1, a4=0, discrete=False) -> GroupElement:
        a0, a1, a2, a3, a4 = (rat(v) for v in (a0, a1, a2, a3, a4))
        if a2 == 0 or a3 == 0:
            raise CktError("group element requires a2 != 0 and a3 != 0")
        return cls(a0, a1, a2, a3, a4, bool(discrete))

    @classmethod
    def identity(cls) -> GroupElement:
        return cls.make()

    def to_json_dict(self) -> dict:
        return {
            "a0": rat_str(self.a0), "a1": rat_str(self.a1), "a2": rat_str(self.a2),
            "a3": rat_str(self.a3), "a4": rat_str(self.a4), "discrete": self.discrete,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> GroupElement:
        return cls.make(data.get("a0", 0), data.get("a1", 0), data.get("a2", 1),
                        data.get("a3", 1), data.get("a4", 0), data.get("discrete", False))


@dataclass(frozen=True)
class Mat2:
    """2x2 real matrix for the classical substitution action on quartics."""

    alpha: object
    beta: object
    gamma: object
    delta: object

    def det(self):
        return self.alpha * self.delta - self.beta * self.gamma

    def mul(self, other: Mat2) -> Mat2:
        return Mat2(
            self.alpha * other.alpha + self.beta * other.gamma,
            self.alpha * other.beta + self.beta * other.delta,
            self.gamma * other.alpha + self.delta * other.gamma,
            self.gamma * other.beta + self.delta * other.delta,
        )

    def adjugate(self) -> Mat2:
        """det(self) times the inverse."""
        return Mat2(self.delta, -self.beta, -self.gamma, self.alpha)

    def swap_columns(self) -> Mat2:
        return Mat2(self.beta, self.alpha, self.delta, self.gamma)


Quartic = tuple  # (M33, L3, H, D3, A33)


def _action_polynomial(q: Quartic) -> UniPoly:
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


def apply_quartic(g: GroupElement, q: Quartic) -> Quartic:
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


def apply(g: GroupElement, p: RotParams) -> RotParams:
    """Exact action on all six rotational parameters.  C33 transforms by the
    affine law C33 - H/3 -> a3 (C33 - H/3) + a4 on top of the quartic part."""
    m33, l3, h, d3, a33 = apply_quartic(g, p.quartic_tuple())
    c33 = g.a4 + g.a3 * p.c33 + (h - g.a3 * p.h) / 3
    return RotParams(m33, l3, h, c33, d3, a33)


# ---------------------------------------------------------------------------
# Group structure via 2x2 Moebius representatives


def _rep(g: GroupElement) -> Mat2:
    """Moebius matrix of the axis action: C(a0, a1, a2) . Swap^discrete."""
    c = Mat2(g.a2 + g.a1 * g.a0, g.a1, g.a0, Fraction(1))
    return c.swap_columns() if g.discrete else c


def _from_rep(mat: Mat2, a3: Fraction, a4: Fraction) -> GroupElement:
    """Normalize a Moebius matrix back to (a0, a1, a2, discrete) form."""
    discrete = mat.delta == 0
    if discrete:
        mat = mat.swap_columns()
    s = mat.delta
    return GroupElement.make(mat.gamma / s, mat.beta / s, mat.det() / (s * s), a3, a4, discrete)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Element acting as g1 after g2: apply(compose(g1, g2), p) =
    apply(g1, apply(g2, p)) exactly."""
    return _from_rep(_rep(g1).mul(_rep(g2)), g1.a3 * g2.a3, g1.a4 + g1.a3 * g2.a4)


def inverse(g: GroupElement) -> GroupElement:
    return _from_rep(_rep(g).adjugate(), 1 / g.a3, -g.a4 / g.a3)


# ---------------------------------------------------------------------------
# The GL(2, R) bridge


def substitution_action(m: Mat2, q: Quartic) -> Quartic:
    """Classical substitution: coefficients of Q(alpha X + beta Y,
    gamma X + delta Y).  Exact for rational entries."""
    m33, l3, h, d3, a33 = q
    coeffs = [m33, l3, h, d3, a33]
    out = [0, 0, 0, 0, 0]
    # (alpha X + beta Y)^i (gamma X + delta Y)^(4-i), expanded by binomials.
    from math import comb

    for i, c in enumerate((4, 3, 2, 1, 0)):
        coeff = coeffs[i]
        if coeff == 0:
            continue
        d = 4 - c
        for s in range(c + 1):
            for t in range(d + 1):
                power_x = s + t
                weight = (comb(c, s) * comb(d, t)
                          * m.alpha ** s * m.beta ** (c - s)
                          * m.gamma ** t * m.delta ** (d - t))
                out[4 - power_x] = out[4 - power_x] + coeff * weight
    return tuple(out)


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


def from_gl2(m: Mat2) -> GroupElement:
    """Group element whose quartic action equals the substitution action of m,
    exactly for rational entries.  Singular matrices are rejected."""
    det = m.det()
    if det == 0:
        raise CktError("from_gl2 requires a regular matrix")
    if m.alpha == 0:
        # Pre-compose the discrete inversion: swap rows, which has alpha != 0.
        m1 = Mat2(m.gamma, m.delta, m.alpha, m.beta)
        base = from_gl2(m1)
        return GroupElement.make(base.a0, base.a1, base.a2, base.a3, 0, True)
    a0 = Fraction(-m.gamma, m.alpha)
    a1 = Fraction(-m.beta, m.alpha)
    a2 = Fraction(det, m.alpha * m.alpha)
    return GroupElement.make(a0, a1, a2, det * det, 0, False)


# ---------------------------------------------------------------------------
# Axis action and covariance


def axis_action(g: GroupElement, z):
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
