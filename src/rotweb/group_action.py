"""The group acting on rotationally symmetric conformal Killing tensors:
five continuous generators (inversion along the axis, translation, dilation,
tensor scaling, and the R3.R3 shift), plus the discrete unit-sphere
inversion.

Normal form: an element applies the discrete inversion first, then the
continuous part.  Every action and conversion goes through one Moebius
representative, _rep(g) = [[a2 + a1 a0, a1], [a0, 1]] with its columns
swapped when the discrete flag is set:
- on the extended z-axis, g acts by that matrix's Moebius map
  z -> (alpha z + beta) / (gamma z + delta);
- on the quartic part (M33, L3, H, D3, A33), g acts by the classical
  substitution (substitution_action) by the matrix's adjugate, times the
  scale a3 / a2^2.  A quartic is even in the matrix, so the sign the
  adjugate picks up under the discrete swap drops out;
- compose and inverse are the matrix product and the adjugate;
- from_gl2(M) reads the element off adj(M) with a3 = det(M)^2, so that
  substitution by M equals its quartic action exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ckt_core import CktError
from .exactmath import rat, rat_str
from .rotational import RotParams


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

    def to_json_dict(self) -> dict:
        return {
            "a0": rat_str(self.a0), "a1": rat_str(self.a1), "a2": rat_str(self.a2),
            "a3": rat_str(self.a3), "a4": rat_str(self.a4), "discrete": self.discrete,
        }


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


# ---------------------------------------------------------------------------
# The Moebius representative


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
    return GroupElement.make(Fraction(mat.gamma, s), Fraction(mat.beta, s),
                             Fraction(mat.det(), s * s), a3, a4, discrete)


Quartic = tuple  # (M33, L3, H, D3, A33)


def apply_quartic(g: GroupElement, q: Quartic) -> Quartic:
    """Exact action on the five quartic coefficients (M33, L3, H, D3, A33):
    substitution by the adjugate of the Moebius matrix, scaled by a3/a2^2."""
    scale = g.a3 / (g.a2 * g.a2)
    return tuple(scale * c for c in substitution_action(_rep(g).adjugate(), q))


def apply(g: GroupElement, p: RotParams) -> RotParams:
    """Exact action on all six rotational parameters.  C33 transforms by the
    affine law C33 - H/3 -> a3 (C33 - H/3) + a4 on top of the quartic part."""
    m33, l3, h, d3, a33 = apply_quartic(g, p.quartic_tuple())
    c33 = g.a4 + g.a3 * p.c33 + (h - g.a3 * p.h) / 3
    return RotParams(m33, l3, h, c33, d3, a33)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Element acting as g1 after g2: apply(compose(g1, g2), p) =
    apply(g1, apply(g2, p)) exactly."""
    return _from_rep(_rep(g1).mul(_rep(g2)), g1.a3 * g2.a3, g1.a4 + g1.a3 * g2.a4)


def inverse(g: GroupElement) -> GroupElement:
    return _from_rep(_rep(g).adjugate(), 1 / g.a3, -g.a4 / g.a3)


# ---------------------------------------------------------------------------
# The GL(2, R) bridge


def _times_linear(p: list, a, b) -> list:
    """Coefficients of p(X, Y) (a X + b Y), both listed by ascending power
    of Y."""
    return [a * p[0]] + [a * p[k] + b * p[k - 1] for k in range(1, len(p))] + [b * p[-1]]


def substitution_action(m: Mat2, q: Quartic) -> Quartic:
    """Classical substitution: coefficients of Q(alpha X + beta Y,
    gamma X + delta Y).  Exact for rational entries."""
    # Q's coefficient i multiplies u^(4-i) v^i, for u = alpha X + beta Y and
    # v = gamma X + delta Y; the image's coefficient j multiplies X^(4-j) Y^j.
    u, v = [[1]], [[1]]
    for _ in range(4):
        u.append(_times_linear(u[-1], m.alpha, m.beta))
        v.append(_times_linear(v[-1], m.gamma, m.delta))
    out = [0, 0, 0, 0, 0]
    for i, coeff in enumerate(q):
        if coeff == 0:
            continue
        for s, us in enumerate(u[4 - i]):
            cu = coeff * us
            for t, vt in enumerate(v[i]):
                out[s + t] += cu * vt
    return tuple(out)


def from_gl2(m: Mat2) -> GroupElement:
    """Group element whose quartic action equals the substitution action of m,
    exactly for rational entries.  Singular matrices are rejected."""
    det = m.det()
    if det == 0:
        raise CktError("from_gl2 requires a regular matrix")
    return _from_rep(m.adjugate(), det * det, 0)
