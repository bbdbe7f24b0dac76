"""Binary-quartic invariant theory and the nine-way classification of
rotationally symmetric R-separable webs.

A rotational tensor's web is decided by the real binary quartic

    Q(X, Y) = M33 X^4 + L3 X^3 Y + H X^2 Y^2 + D3 X Y^3 + A33 Y^4,

equivalently by the root partition of q(z) = Q(z, 1) over the projective
line (a degree drop puts roots at infinity, which count as real).

Note on normalization: with the invariants I and J in the non-binomial
coefficient convention used here, the quartic discriminant is proportional
to 4 I^3 - J^2, and that is the Delta used throughout.  Covariant sign
conditions ("H > 0") mean global semidefiniteness, nonnegative everywhere
and not identically zero, and are decided by the covariants' values at one
point (see ``classify_by_invariants``).

Exactness: the pipeline runs on the cleared quartic c Q (the primitive
integer multiple, c > 0), formed once per quartic, and on the integer
kernel of ``exactmath``.  The root partition comes from the primitive
integer square-free factors of c Q(z, 1) and their Sturm counts; the
invariants, the covariant values behind the signs (c Q's H and L are
c^2 H and c^4 L, so no sign moves) and the witness image are formed in
ints, and c is absorbed exactly into the witness's rescaling factor.  The
canonical form is a construction with no float decision: forms I/II come
from the real root of the resolvent t^3 - 3 I t + J that the stratum's rule
picks by the roots' order and the sign of J, bracketed by exact separators
and narrowed by the kernel's refiner, and the other forms map the rational
or quadratic roots of the square-free factors.  Floats appear only in a
reported irrational mu.  Every univariate polynomial in the pipeline is one
of the kernel's own integer coefficient lists.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .ckt_core import CktError
from .exactmath import (int_cleared, rat, rat_str, refine_root, sign_at,
                        squarefree_decomposition)
from .group_action import GroupElement, Mat2, from_gl2, substitution_action
from .rotational import RotParams


class ClassificationError(ValueError):
    """Raised when no classification rule matches; carries the audit trail."""

    def __init__(self, message: str, audit: list | None = None):
        super().__init__(message)
        self.audit = audit or []


class WebType(enum.Enum):
    BI_CYCLIDE = "bi_cyclide"
    FLAT_RING_CYCLIDE = "flat_ring_cyclide"
    DISK_CYCLIDE = "disk_cyclide"
    INVERSE_PROLATE_SPHEROIDAL = "inverse_prolate_spheroidal"
    INVERSE_OBLATE_SPHEROIDAL = "inverse_oblate_spheroidal"
    TOROIDAL = "toroidal"
    BISPHERICAL = "bispherical"
    CARDIOID = "cardioid"
    TANGENT_SPHERE = "tangent_sphere"


class FormSign(enum.Enum):
    IDENTICALLY_ZERO = "identically_zero"
    PSD_NONZERO = "psd_nonzero"
    NSD_NONZERO = "nsd_nonzero"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class BinaryQuartic:
    """Coefficients (x4, x3y, x2y2, xy3, y4) of the classifying quartic; for a
    rotational tensor these are (M33, L3, H, D3, A33)."""

    x4: Fraction
    x3y: Fraction
    x2y2: Fraction
    xy3: Fraction
    y4: Fraction

    @classmethod
    def make(cls, x4=0, x3y=0, x2y2=0, xy3=0, y4=0) -> BinaryQuartic:
        return cls(rat(x4), rat(x3y), rat(x2y2), rat(xy3), rat(y4))

    @classmethod
    def from_rot_params(cls, p: RotParams) -> BinaryQuartic:
        return cls.make(*p.quartic_tuple())

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.x4, self.x3y, self.x2y2, self.xy3, self.y4)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.as_tuple())

    @functools.cached_property
    def cleared(self) -> tuple[Fraction, BinaryQuartic, Invariants]:
        """A c > 0, the primitive quartic c Q with int coefficients, and the
        invariants of c Q formed in ints, computed once per quartic and kept
        on it; the zero quartic has c = 1."""
        coeffs = self.as_tuple()
        den = math.lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        g = math.gcd(*ints) or 1
        m, l, h, d, a = (c // g for c in ints)
        i_val = 12 * a * m - 3 * l * d + h * h
        j_val = 72 * a * m * h - 27 * a * l * l - 27 * d * d * m + 9 * d * l * h - 2 * h ** 3
        delta = 4 * i_val ** 3 - j_val ** 2
        f_val = Fraction(i_val ** 3, j_val * j_val) if j_val != 0 else None
        return (Fraction(den, g), BinaryQuartic(m, l, h, d, a),
                Invariants(i_val, j_val, delta, f_val))

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.as_tuple()]


# ---------------------------------------------------------------------------
# Binary forms of general even degree (coefficients X-degree-descending)


def form_at(a: Sequence, x: int, y: int):
    """The value of the binary form at the point (x, y)."""
    n = len(a) - 1
    return sum(c * x ** (n - k) * y ** k for k, c in enumerate(a) if c)


# The decision list no longer calls form_sign.  It stays because the
# benchmark's tracer (bench/tracing.py) wraps it by name, and CI checks that
# every function the tracer names exists; its row reads 0 calls until the
# benchmark's tracer targets are revised.
def form_sign(coeffs: Sequence) -> FormSign:
    """Global sign of an even-degree homogeneous binary form, decided exactly:
    indefinite iff its dehomogenization has a real root of odd multiplicity,
    else the sign of the leading coefficient wins.  A form that vanishes on
    lines but never changes sign still counts as semidefinite.  The
    coefficients are cleared once to a primitive integer multiple, and the
    square-free factors and Sturm counts are read on it."""
    degree = len(coeffs) - 1
    if degree % 2 != 0:
        raise ClassificationError("form_sign requires an even-degree form")
    # C(x, 1): coefficient of x^k is coeffs[degree - k].
    poly = int_cleared(coeffs[::-1])
    if not poly:
        return FormSign.IDENTICALLY_ZERO
    if any(mult % 2 == 1 and nreal > 0 for _, mult, nreal in squarefree_decomposition(poly)):
        return FormSign.INDEFINITE
    return FormSign.PSD_NONZERO if poly[-1] > 0 else FormSign.NSD_NONZERO


# ---------------------------------------------------------------------------
# Invariants and covariants


@dataclass(frozen=True)
class Invariants:
    i: Fraction
    j: Fraction
    delta: Fraction
    f: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "I": rat_str(self.i), "J": rat_str(self.j), "Delta": rat_str(self.delta),
            "F": rat_str(self.f) if self.f is not None else None,
        }


def invariants(q: BinaryQuartic) -> Invariants:
    """I, J, the discriminant Delta = 4 I^3 - J^2, and the absolute invariant
    F = I^3 / J^2 when J != 0.  They are formed in ints on the cleared
    quartic c Q, then divided once by c^2, c^3 and c^6 (F is absolute);
    integer values come back as ints."""
    c, _, inv = q.cleared
    n, d = c.denominator, c.numerator  # 1 / c
    values = (Fraction(v * n ** k, d ** k) for k, v in ((2, inv.i), (3, inv.j), (6, inv.delta)))
    i, j, delta = (v.numerator if v.denominator == 1 else v for v in values)
    return Invariants(i, j, delta, inv.f)


def hessian(q: BinaryQuartic) -> tuple:
    """H(X, Y) = Q_XX Q_YY - Q_XY^2, a quartic covariant (coefficients
    X-degree-descending); identically zero iff Q has a quadruple root."""
    m, l, h, d, a = q.as_tuple()
    return (24 * m * h - 9 * l * l, 72 * m * d - 12 * l * h, 144 * m * a + 18 * l * d - 12 * h * h,
            72 * l * a - 12 * h * d, 24 * h * a - 9 * d * d)


# ---------------------------------------------------------------------------
# Root structure over the projective line


@dataclass(frozen=True)
class RootStructure:
    """Real-root partition of the quartic over RP^1: the root at infinity has
    multiplicity 4 - deg q; finite roots come from the square-free factors."""

    infinity_multiplicity: int
    # (primitive square-free integer factor, low degree first with a positive
    # leading coefficient, multiplicity, real root count)
    finite_factors: tuple
    real_multiplicities: tuple
    cc_pair_multiplicities: tuple

    def to_json_dict(self) -> dict:
        return {
            "infinity_multiplicity": self.infinity_multiplicity,
            "finite_factors": [
                {"coefficients": [rat_str(Fraction(c, factor[-1])) for c in factor],
                 "multiplicity": mult, "real_roots": nreal}
                for factor, mult, nreal in self.finite_factors
            ],
            "real_multiplicities": list(self.real_multiplicities),
            "complex_pair_multiplicities": list(self.cc_pair_multiplicities),
        }


def root_structure(q: BinaryQuartic) -> RootStructure:
    """The root partition of q(z) = Q(z, 1), from the square-free
    decomposition and Sturm counts of the cleared quartic's dehomogenization
    on the integer kernel."""
    if q.is_zero:
        raise ClassificationError("the zero form has no root structure")
    poly = list(reversed(q.cleared[1].as_tuple()))
    while not poly[-1]:
        poly.pop()
    inf_mult = 5 - len(poly)
    finite = squarefree_decomposition(poly)
    reals = [inf_mult] if inf_mult else []
    pairs: list[int] = []
    for factor, mult, nreal in finite:
        reals.extend([mult] * nreal)
        pairs.extend([mult] * ((len(factor) - 1 - nreal) // 2))
    structure = RootStructure(
        infinity_multiplicity=inf_mult,
        finite_factors=tuple(finite),
        real_multiplicities=tuple(sorted(reals, reverse=True)),
        cc_pair_multiplicities=tuple(sorted(pairs, reverse=True)),
    )
    total = sum(structure.real_multiplicities) + 2 * sum(structure.cc_pair_multiplicities)
    if total != 4:
        raise ClassificationError(f"root multiplicities sum to {total}, not 4")
    return structure


class _Stratum(NamedTuple):
    """One of the nine strata: its root partition over RP^1 (real
    multiplicities, complex-pair multiplicities), its canonical form, and
    the fixed parameter of a stratum with a repeated root."""

    partition: tuple
    form: str
    parameter: Fraction | None = None


_STRATA = {
    WebType.BI_CYCLIDE: _Stratum(((1, 1, 1, 1), ()), "I"),
    WebType.FLAT_RING_CYCLIDE: _Stratum(((), (1, 1)), "I"),
    WebType.DISK_CYCLIDE: _Stratum(((1, 1), (1,)), "II"),
    WebType.INVERSE_PROLATE_SPHEROIDAL: _Stratum(((2, 1, 1), ()), "III", Fraction(-1)),
    WebType.INVERSE_OBLATE_SPHEROIDAL: _Stratum(((2,), (1,)), "III", Fraction(1)),
    WebType.TOROIDAL: _Stratum(((), (2,)), "I", Fraction(2)),
    WebType.BISPHERICAL: _Stratum(((2, 2), ()), "I", Fraction(-2)),
    WebType.CARDIOID: _Stratum(((3, 1), ()), "IV"),
    WebType.TANGENT_SPHERE: _Stratum(((4,), ()), "V"),
}

_PARTITION_TO_TYPE = {stratum.partition: web for web, stratum in _STRATA.items()}


def classify_by_roots(q: BinaryQuartic, structure: RootStructure | None = None) -> WebType:
    """The authoritative classifier: map the real/complex root partition of
    the quartic (roots at infinity counting as real) to the nine web types.
    Pass the quartic's root structure when it is already at hand."""
    structure = structure or root_structure(q)
    key = (structure.real_multiplicities, structure.cc_pair_multiplicities)
    try:
        return _PARTITION_TO_TYPE[key]
    except KeyError:
        raise ClassificationError(f"unmatched root partition {key}") from None


# The points of RP^1 at which classify_by_invariants reads its covariants,
# in order.  A nonzero quartic vanishes at no more than four points, so one
# of these five is never a root.
_PROBES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))


def classify_by_invariants(q: BinaryQuartic) -> tuple[WebType, list[dict]]:
    """The algebraic decision list over (Delta, H, L, M, I, J), evaluated
    strictly top to bottom.  Returns the type and the audit trail of every
    condition evaluated.

    A covariant condition means global semidefiniteness ("H < 0": H <= 0
    everywhere and H not identically zero), and each one the list needs is
    decided by integer values at one point p, the first of ``_PROBES`` with
    Q(p) != 0: H(p), L(p) = I H(p) - 6 J Q(p) (read only by the Delta = 0
    rows) and R(p) = H(p)^2 - 144 I Q(p)^2.  They are formed on the cleared
    quartic c Q (c > 0), whose I, J, Delta, H, L and R are c^2 I, c^3 J,
    c^6 Delta, c^2 H, c^4 L and c^4 R, so every sign is that of Q's.

    Why one point suffices.  H, L and I Q^2 - H^2/144 are covariants of
    even weight (2, 6 and 4), so a real substitution of (X, Y) that moves p
    to another point multiplies each value by a positive factor, a power of
    its determinant squared; each case below may be read after such a move.

    - Delta > 0: four simple roots, all real or none.  At p = (1 : 0),
      where Q(p) = M33 != 0, H = 3 P with P = 8 M33 H - 3 L3^2, and
      27 D = 144 I M33^2 - H^2, where P and D are the quantities of Rees's
      criterion (Rees 1922, "Graphical discussion of the roots of a quartic
      equation"), so R(p) = -27 D.  By that criterion the roots are all real
      iff P < 0 and D < 0, that is iff H(p) < 0 and R(p) > 0: the
      bi-cyclide row.  M(p) is not read; its sign at one point does not
      decide that row.
    - Delta = 0.  A real repeated root moved to (1 : 0) gives
      Q = Y^2 (h X^2 + d X Y + a Y^2) and L = 9 h^2 (4 a h - d^2) Y^4:
      semidefinite, and nonzero at every point but that root unless L = 0
      identically.  So L(p) < 0 exactly for a real pair beside the double
      root (prolate), L(p) > 0 for a complex pair (oblate), and L(p) = 0
      iff L = 0.  The one partition with no real repeated root, a doubled
      complex pair, is k (X^2 + Y^2)^2 after a real substitution, and has
      L = 0.
    - L = 0 and I, J not both 0.  In the form above, h = 0 is a triple or
      quadruple root, which has I = J = 0, and d^2 = 4 a h with h != 0 is
      two real double roots, k X^2 Y^2 after a real substitution.  So Q is
      k X^2 Y^2, with H = -12 k^2 X^2 Y^2, or k (X^2 + Y^2)^2, with
      H = 48 k^2 (X^2 + Y^2)^2: H(p) < 0 iff both double roots are real.
    - I = J = 0: a triple root, Q = Y^3 (d X + a Y) with d != 0, has
      H = -9 d^2 Y^4, nonzero at p; a quadruple root has H = 0
      identically.

    The rows below the flat-ring row are reached only when Delta = 0."""
    if q.is_zero:
        raise ClassificationError("the zero form has no web type")
    _, cleared, inv = q.cleared
    coeffs = cleared.as_tuple()
    for x, y in _PROBES:
        q_p = form_at(coeffs, x, y)
        if q_p:
            break
    h_p = form_at(hessian(cleared), x, y)

    def l_p() -> int:
        return inv.i * h_p - 6 * inv.j * q_p

    rows = [
        (WebType.DISK_CYCLIDE, "Delta < 0",
         lambda: inv.delta < 0),
        (WebType.BI_CYCLIDE, "Delta > 0 and H < 0 and M > 0",
         lambda: inv.delta > 0 and h_p < 0 and h_p * h_p - 144 * inv.i * q_p * q_p > 0),
        # Delta > 0 leaves four real roots or two complex pairs, and the row
        # above takes the first, so no covariant is needed here.
        (WebType.FLAT_RING_CYCLIDE, "Delta > 0",
         lambda: inv.delta > 0),
        (WebType.INVERSE_PROLATE_SPHEROIDAL, "Delta = 0 and L < 0",
         lambda: inv.delta == 0 and l_p() < 0),
        (WebType.INVERSE_OBLATE_SPHEROIDAL, "Delta = 0 and L > 0",
         lambda: inv.delta == 0 and l_p() > 0),
        # Triple-root quartics also satisfy L = 0 with a semidefinite Hessian,
        # so the next two rows carry the guard I, J not both zero (always true
        # on genuine toroidal/bispherical orbits, where I scales as a3^2 from
        # 16); without it they would swallow every cardioid quartic.
        (WebType.TOROIDAL, "L = 0 and H > 0 and not I = J = 0",
         lambda: l_p() == 0 and h_p > 0 and not (inv.i == 0 and inv.j == 0)),
        (WebType.BISPHERICAL, "L = 0 and H < 0 and not I = J = 0",
         lambda: l_p() == 0 and h_p < 0 and not (inv.i == 0 and inv.j == 0)),
        (WebType.CARDIOID, "I = J = 0 and H != 0",
         lambda: inv.i == 0 and inv.j == 0 and h_p != 0),
        (WebType.TANGENT_SPHERE, "H = 0",
         lambda: h_p == 0),
    ]
    audit: list[dict] = []
    for web, condition, test in rows:
        matched = test()
        audit.append({"web": web.value, "condition": condition, "matched": matched})
        if matched:
            return web, audit
    raise ClassificationError("no algebraic condition matched", audit)


# ---------------------------------------------------------------------------
# Canonical forms


@dataclass(frozen=True)
class CanonicalForm:
    """Representative forms: I = (1, 0, mu, 0, 1); II = (1, 0, mu, 0, -1);
    III = (1, 0, nu, 0, 0) with nu = +-1; IV = (0, 1, 0, 0, 0); V =
    (1, 0, 0, 0, 0).  witness_residual is the largest coefficient error of
    the witness's image of the quartic, divided by max(1, largest
    representative coefficient)."""

    form: str
    parameter: Fraction | float | None
    exact: bool
    witness_residual: float

    def to_json_dict(self) -> dict:
        if self.parameter is None:
            parameter = None
        elif self.exact:
            parameter = rat_str(self.parameter)
        else:
            parameter = float(self.parameter)
        return {"form": self.form, "parameter": parameter, "exact_parameter": self.exact,
                "witness_residual": self.witness_residual}


def _canonical_coeffs(form: str, p) -> tuple:
    return {"I": (1, 0, p, 0, 1), "II": (1, 0, p, 0, -1), "III": (1, 0, p, 0, 0),
            "IV": (0, 1, 0, 0, 0), "V": (1, 0, 0, 0, 0)}[form]


def _point_roots(structure: RootStructure, bits: int) -> list[tuple]:
    """The distinct roots over the projective line by decreasing
    multiplicity, read off the square-free factors, each of degree at most
    2 when a root is repeated: a real root as an integer point (x, y) for
    (x : y), (1, 0) for infinity, and a complex pair as (u, v, w) for
    (u +- i v : w).  A square root of a quadratic's discriminant is taken
    to ``bits`` binary places; a rational root is exact."""
    roots = [(structure.infinity_multiplicity, (1, 0))] if structure.infinity_multiplicity else []
    for factor, mult, _ in structure.finite_factors:
        if len(factor) == 2:
            roots.append((mult, (-factor[0], factor[1])))
            continue
        c, b, a = factor
        disc = b * b - 4 * a * c
        root, u, w = math.isqrt(abs(disc) << 2 * bits), -b << bits, 2 * a << bits
        roots += [(mult, (u + root, w)), (mult, (u - root, w))] if disc > 0 else [(mult, (u, root, w))]
    roots.sort(key=lambda item: -item[0])
    return [point for _, point in roots]


def _bracket(u, v):
    """u0 v1 - u1 v0, zero iff u and v are the same point."""
    return u[0] * v[1] - u[1] * v[0]


def _root_frame(web: WebType, structure: RootStructure, bits: int) -> Mat2:
    """An integer matrix whose Moebius map sends the representative's roots
    onto the quartic's distinct roots (``_point_roots`` at the precision
    bits), for the strata with a repeated root.  Its columns m1, m2 are the
    images of (1 : 0) and (0 : 1), so the representative's root (X : Y)
    goes to X m1 + Y m2."""
    roots = _point_roots(structure, bits)
    if web is WebType.TANGENT_SPHERE:  # X^4: (0 : 1)
        (x, y), = roots
        return Mat2(y, x, -x, y)
    if web is WebType.CARDIOID:  # X^3 Y: (0 : 1) triple, (1 : 0)
        r, w = roots
        return Mat2(w[0], r[0], w[1], r[1])
    if web is WebType.TOROIDAL:  # (X^2 + Y^2)^2: (+-i : 1) double
        (u, v, w), = roots
        return Mat2(v, u, 0, w)
    if web is WebType.INVERSE_OBLATE_SPHEROIDAL:  # X^2 (X^2 + Y^2): (0 : 1) double, (+-i : 1)
        # i m1 + m2 = (v r1 + i e) (u + i v, w): m2, its real part, is v w r.
        r, (u, v, w) = roots
        e = u * r[1] - w * r[0]
        return Mat2(e * u + v * v * r[1], v * w * r[0], e * w, v * w * r[1])
    # m1 = ka a - kb b and m2 = ka a + kb b send (1 : 1) to a and (-1 : 1) to b.
    a, b = roots[-2:]
    ka = kb = 1  # bispherical, (X^2 - Y^2)^2: (+-1 : 1) double
    if web is WebType.INVERSE_PROLATE_SPHEROIDAL:  # X^2 (X^2 - Y^2): (0 : 1) double, (+-1 : 1)
        r = roots[0]
        ka, kb = _bracket(b, r), _bracket(r, a)  # then m2 is a multiple of r
    return Mat2(ka * a[0] - kb * b[0], ka * a[0] + kb * b[0], ka * a[1] - kb * b[1],
                ka * a[1] + kb * b[1])


# Forms I/II come from the Hessian pencil H - 12 t Q at a real root t of the
# resolvent R(t) = t^3 - 3 I t + J (discriminant 27 Delta), with I, J and H
# those of the cleared quartic.  At each root, H - 12 t Q is a constant
# times the square of a quadratic phi_t, and a substitution sending the
# roots of a real phi_t to 0 and infinity makes Q even,
# A U^4 + B U^2 V^2 + C V^4 with sign(B) = sign(t).  On X^4 + mu X^2 Y^2
# + s Y^4 the roots are t = 2 mu (phi_t = X Y) and, for s = 1, 6 - mu
# (phi_t = X^2 - Y^2) and -6 - mu (phi_t = X^2 + Y^2, not real); for
# s = -1 the other two are not real.  Real substitutions and positive
# scales multiply t by a positive factor and I by its square, so
#
#     s = sign(4 I - t^2),  mu^2 = 12 s t^2 / (4 I - t^2) = 12 s (3 I t - J) / (I t + J).
#
# A bi-cyclide (mu < -2) has the roots 2 mu < -6 - mu < 6 - mu; the
# outer two have real phi_t, the lower one the smaller |mu| iff the middle
# one, of the sign of R(0) = J, is negative.  A flat ring (|mu| < 2) has
# -6 - mu < 2 mu < 6 - mu, and the middle root gives mu in range, of sign
# sign(J) sign(Q), Q being definite.  A disk has one real root, and X <-> Y
# flips the sign of mu, so mu >= 0.  So the choice is the order of the
# roots and the sign of J, and mu is rational iff mu^2 is a rational square
# with t an integer (R is monic), or J = 0, where the roots are 0 (mu = 0)
# and +-sqrt(3 I) (mu = -6).  Only the chosen root is narrowed: to width
# 1/2, which leaves one integer candidate to test, then as far as mu and
# the frame need.


def _resolvent_roots(inv: Invariants) -> tuple[list[int], list[list[Fraction]]]:
    """R and its real roots, increasing, each a bracket [lo, hi] with
    lo < t <= hi and no other root; Delta gives their count, three or one.

    For Delta > 0, R' = 3 (t^2 - I) vanishes at +-sqrt(I), where
    R(-sqrt(I)) = J + 2 I sqrt(I) > 0 > R(sqrt(I)) = J - 2 I sqrt(I), so
    -2 sqrt(I) < t1 < -sqrt(I) < t2 < sqrt(I) < t3 < 2 sqrt(I).  Dyadic
    s <= sqrt(I) <= s' from isqrt(4^k I), with k grown until R(s) < 0 <
    R(-s'), split the roots, and 2^e > 2 sqrt(I) bounds them.  For
    Delta < 0 the one root is below Fujiwara's bound
    2 max(sqrt(3 |I|), (|J| / 2)^(1/3)) < 2^e in size, and of the sign of
    -J = -R(0)."""
    i, j = inv.i, inv.j
    poly = [j, -3 * i, 0, 1]
    if inv.delta < 0:
        e = max(((3 * abs(i)).bit_length() + 1) // 2 + 1, (abs(j).bit_length() + 4) // 3)
        return poly, [[Fraction(-1 << e), Fraction(0)] if j >= 0 else [Fraction(0), Fraction(1 << e)]]
    e, k = (i.bit_length() + 1) // 2 + 1, 0
    while True:
        s = math.isqrt(i << 2 * k)
        s_up = s + (s * s != i << 2 * k)
        if sign_at(poly, s, 1 << k) < 0 < sign_at(poly, -s_up, 1 << k):
            break
        k = 2 * k + 1
    low, high = Fraction(-s_up, 1 << k), Fraction(s, 1 << k)
    return poly, [[Fraction(-1 << e), low], [low, high], [high, Fraction(1 << e)]]


def _narrow(poly: list[int], root: list[Fraction], bits: int) -> None:
    """Narrow a root's bracket, in place, to relative width 2^-bits: away
    from 0, then in one step, as narrowing only raises min(|lo|, |hi|).  A
    root at exactly 0 never leaves 0 and has no relative width: its bracket
    becomes (0, 0)."""
    while root[0] != root[1]:
        lo, hi = root
        if lo < 0 <= hi and not poly[0]:
            root[:] = [Fraction(0), Fraction(0)]
            return
        if lo <= 0 <= hi:
            root[:] = refine_root(poly, lo, hi, (hi - lo) / 2 ** 16)
            continue
        size = min(abs(lo), abs(hi))
        if (hi - lo) * 2 ** bits > size:
            root[:] = refine_root(poly, lo, hi, size / 2 ** bits)
        return


def _pencil_parameter(web: WebType, inv: Invariants, lead: int) -> tuple:
    """R, the bracket of the chosen root t, and mu with its exactness, for
    four simple roots; lead is the sign of Q, used where Q is definite."""
    poly, roots = _resolvent_roots(inv)
    i, j = inv.i, inv.j
    s = 1 if inv.delta > 0 else -1
    if web is WebType.FLAT_RING_CYCLIDE:
        root, sign = roots[1], lead if j > 0 else -lead
    elif web is WebType.BI_CYCLIDE:
        root, sign = roots[2 if j > 0 else 0], -1
    else:
        root, sign = roots[0], 1
    lo, hi = root[:] = refine_root(poly, *root, Fraction(1, 2))
    k = math.floor(hi)
    if lo < k and sign_at(poly, k, 1) == 0:
        lo = hi = root[0] = root[1] = Fraction(k)
    if lo == hi:
        square = Fraction(12 * s * k * k, 4 * i - k * k)
    elif j == 0:
        square = Fraction(36)
    else:
        bits = 64
        while True:
            _narrow(poly, root, bits)
            ends = [(3 * i * p - j * q, i * p + j * q) for p, q in map(Fraction.as_integer_ratio, root)]
            if all(n * d * s > 0 for n, d in ends):
                low, high = sorted(Fraction(12 * s * n, d) for n, d in ends)
                if (high - low) * 2 ** 60 <= low:
                    break
            bits += 32
        return poly, root, sign * _float_sqrt((low + high) / 2), False
    num, den = square.numerator, square.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return poly, root, Fraction(sign * rn, rd), True
    return poly, root, sign * _float_sqrt(square), False


def _float_sqrt(x: Fraction) -> float:
    """The square root of a rational x > 0 as a double; one beyond double
    range is a finding."""
    k = (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(x * Fraction(2) ** (-2 * k)), k)
    except OverflowError:
        raise ClassificationError("the canonical parameter is irrational and beyond "
                                  "double range") from None


def _pencil_frame(cleared: BinaryQuartic, poly: list[int], root: list[Fraction], form: str,
                  bits: int) -> tuple[Mat2, tuple] | None:
    """An integer matrix carrying c Q to a multiple of
    X^4 + mu X^2 Y^2 +- Y^4, up to rounding at about 2^-bits, with its
    image of c Q: its columns are the roots of phi_t, with t narrowed to
    relative width 2^-bits, the second scaled by |A/C|^(1/4) for the
    images A, C of X^4 and Y^4.  None when phi_t does not show two distinct
    real roots at this precision.  A form-II frame puts first the root
    where Q has the sign of t, so that mu >= 0."""
    _narrow(poly, root, bits)
    lo, hi = root
    t = lo if lo == hi else (lo + hi) / 2
    q = cleared.as_tuple()
    p0, p1, p2, p3, p4 = (t.denominator * h - 12 * t.numerator * c
                          for h, c in zip(hessian(cleared), q))
    # phi_t = f0 X^2 + f1 X Y + f2 Y^2 from p = k phi_t^2, led by the larger end.
    if p0 == p4 == 0:
        f0, f1, f2 = 0, 1, 0
    elif abs(p0) >= abs(p4):
        f0, f1, f2 = 8 * p0 * p0, 4 * p0 * p1, 4 * p0 * p2 - p1 * p1
    else:
        f0, f1, f2 = 4 * p4 * p2 - p3 * p3, 4 * p4 * p3, 8 * p4 * p4
    disc = f1 * f1 - 4 * f0 * f2
    if disc <= 0:
        return None
    root_disc = math.isqrt(disc << 2 * bits)
    g = -(f1 << bits) - (root_disc if f1 >= 0 else -root_disc)
    r1, r2 = (g, f0 << bits + 1), (f2 << bits + 1, g)
    image = substitution_action(Mat2(r1[0], r2[0], r1[1], r2[1]), q)
    a, c = image[0], image[4]
    if not a or not c:
        return None
    if form == "II" and a * t < 0:  # swapping the columns reverses the image
        r1, r2, a, c, image = r2, r1, c, a, image[::-1]
    shift = bits + max(0, (abs(c).bit_length() - abs(a).bit_length()) // 4 + 1)
    scale = math.isqrt(math.isqrt((abs(a) << 4 * shift) // abs(c)))
    # Scaling the columns by 2^shift and scale multiplies the coefficient of
    # X^(4-i) Y^i by 2^(shift (4-i)) scale^i.
    moved = tuple((coeff << shift * (4 - i)) * scale ** i for i, coeff in enumerate(image))
    return Mat2(r1[0] << shift, r2[0] * scale, r1[1] << shift, r2[1] * scale), moved


def _witness(q: BinaryQuartic, matrix: Mat2, target: tuple,
             moved: tuple | None = None) -> tuple[GroupElement, float]:
    """The group element substituting by the matrix, rescaled to agree with
    the target at its largest coefficient, and its residual.

    All in integers: the integer matrix acts on the cleared quartic c Q.
    The image is homogeneous in c, so it cancels in the rescaling factor and
    in the residual.  moved, when given, is the image of c Q under the
    matrix, already at hand."""
    target = [t.as_integer_ratio() for t in target]
    den = math.lcm(*(d for _, d in target))
    target = [n * (den // d) for n, d in target]  # den times the target
    pivot = max(range(5), key=lambda k: abs(target[k]))
    try:
        g = from_gl2(matrix)
    except CktError as exc:
        raise ClassificationError(f"degenerate canonicalization matrix: {exc}") from None
    c, cleared, _ = q.cleared
    if moved is None:
        moved = substitution_action(matrix, cleared.as_tuple())  # c times g's image of Q
    if moved[pivot] == 0:
        raise ClassificationError("degenerate canonicalization matrix: "
                                  "the image vanishes at the target's largest coefficient")
    g = GroupElement.make(g.a0, g.a1, g.a2,
                          g.a3 * c * Fraction(target[pivot], den * moved[pivot]), 0, g.discrete)
    # With T = den t (the list target) and m the image, den times the
    # rescaled image misses T by |m T_p - T m_p| / |m_p|, and
    # den max(1, |t_p|) = max(den, |T_p|).
    error = max(abs(m * target[pivot] - t * moved[pivot]) for m, t in zip(moved, target))
    return g, error / (abs(moved[pivot]) * max(den, abs(target[pivot])))


# The witness precision doubles from 64 bits while the residual is above
# 1e-9, up to this cap.
_MAX_BITS = 4096


def canonical_form(q: BinaryQuartic,
                   structure: RootStructure | None = None) -> tuple[CanonicalForm, GroupElement]:
    """Canonical representative of the quartic's orbit and a witness group
    element carrying it there, verified to 1e-9 relative accuracy.

    The witness substitutes by a real matrix with rational entries.  For
    four simple roots (forms I/II) it sends the roots of the chosen real
    square phi_t of the Hessian pencil to 0 and infinity, and mu is read off
    the chosen root t of the resolvent, exactly when it is rational (see the
    notes above ``_resolvent_roots``).  The forms with a repeated root have
    fixed parameters, and their matrix sends the representative's roots onto
    the quartic's, which are rational or quadratic.  Every choice is exact;
    square roots in the matrix are rounded to a precision that doubles until
    the matrix is regular and the witness's exact residual meets 1e-9.  Pass
    the quartic's root structure when it is already at hand.
    """
    if q.is_zero:
        raise ClassificationError("the zero form has no canonical form")
    structure = structure or root_structure(q)
    web = classify_by_roots(q, structure)
    stratum = _STRATA[web]
    form = stratum.form
    _, cleared, inv = q.cleared
    if inv.delta:
        poly, root, parameter, exact = _pencil_parameter(web, inv, 1 if cleared.x4 > 0 else -1)
        frame = functools.partial(_pencil_frame, cleared, poly, root, form)
    else:
        parameter, exact = stratum.parameter, True
        frame = lambda bits: (_root_frame(web, structure, bits), None)
    target = _canonical_coeffs(form, parameter)
    bits, residual = 64, math.inf
    while True:
        framed = frame(bits)
        if framed is not None and framed[0].det():  # else two roots merged at these bits
            matrix, moved = framed
            witness, residual = _witness(q, matrix, target, moved)
            if residual <= 1e-9:
                return CanonicalForm(form, parameter, exact, residual), witness
        if bits >= _MAX_BITS:
            raise ClassificationError(
                f"the witness for {web.value} (form {form}) misses the representative "
                f"by {residual:.3g}")
        bits *= 2
