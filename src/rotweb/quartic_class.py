"""Binary-quartic invariant theory and the nine-way classification of
rotationally symmetric R-separable webs.

A rotational tensor's web is decided by the real binary quartic

    Q(X, Y) = M33 X^4 + L3 X^3 Y + H X^2 Y^2 + D3 X Y^3 + A33 Y^4,

equivalently by the root partition of q(z) = Q(z, 1) over the projective
line (a degree drop puts roots at infinity, which count as real).

Note on normalization: with the invariants I and J in the non-binomial
coefficient convention used here, the quartic discriminant is proportional
to 4 I^3 - J^2, and that is the Delta used throughout.  Covariant sign
conditions ("H > 0") are read as global semidefiniteness: nonnegative
everywhere and not identically zero.

Exactness: the pipeline runs on the cleared quartic c Q (the primitive
integer multiple, c > 0), formed once per quartic, and on the integer
kernel of ``exactmath``.  The root partition comes from the primitive
integer square-free factors of c Q(z, 1) and their Sturm counts; the
invariants, the covariants behind the signs (c Q's H, L and M are c^2 H,
c^4 L and c^4 M, so no sign moves) and the witness image are formed in
ints, and c is absorbed exactly into the witness's rescaling factor.  The
float roots start from an integer Taylor shift of each factor to a rational
centre and a power-of-two rescaling, so every double handed to the root
finder is the correctly rounded value of an exact rational, and the
parameter mu is pinned on the F-equation cleared to integers.  Every
univariate polynomial in the pipeline is one of the kernel's own integer
coefficient lists.
"""

from __future__ import annotations

import cmath
import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .ckt_core import CktError
from .exactmath import int_cleared, rat, rat_str, refine_root, sign_at, squarefree_decomposition
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

    @classmethod
    def from_tuple(cls, values: Sequence) -> BinaryQuartic:
        if len(values) != 5:
            raise ClassificationError("expected five quartic coefficients")
        return cls.make(*values)

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.x4, self.x3y, self.x2y2, self.xy3, self.y4)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.as_tuple())

    def cleared(self) -> tuple[Fraction, BinaryQuartic]:
        """A c > 0 and the primitive quartic c Q with int coefficients; the
        zero quartic has c = 1."""
        return self._cleared[:2]

    @functools.cached_property
    def _cleared(self) -> tuple[Fraction, BinaryQuartic, Invariants]:
        """c, c Q and the invariants of c Q formed in ints, computed once
        per quartic and kept on it."""
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


def form_mul(a: Sequence, b: Sequence) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def form_scale(a: Sequence, c) -> tuple:
    return tuple(x * c for x in a)


def form_sub(a: Sequence, b: Sequence) -> tuple:
    if len(a) != len(b):
        raise ClassificationError("cannot subtract forms of different degree")
    return tuple(x - y for x, y in zip(a, b))


def form_is_zero(a: Sequence) -> bool:
    return all(c == 0 for c in a)


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

    def scaled(self, c: Fraction) -> Invariants:
        """The invariants of c Q (c != 0): I, J and Delta have degrees 2, 3
        and 6 in the coefficients, and F is absolute.  Integer values come
        back as ints."""
        n, d = c.numerator, c.denominator
        values = (Fraction(v * n ** k, d ** k) for k, v in ((2, self.i), (3, self.j), (6, self.delta)))
        i, j, delta = (v.numerator if v.denominator == 1 else v for v in values)
        return Invariants(i, j, delta, self.f)


def _cleared_invariants(q: BinaryQuartic) -> tuple[Fraction, BinaryQuartic, Invariants]:
    """The c > 0 and cleared quartic c Q of ``BinaryQuartic.cleared``, with
    the invariants of c Q formed in ints."""
    return q._cleared


def invariants(q: BinaryQuartic) -> Invariants:
    """I, J, the discriminant Delta = 4 I^3 - J^2, and the absolute invariant
    F = I^3 / J^2 when J != 0.  They are formed in ints on the cleared
    quartic c Q, then divided once by c^2, c^3 and c^6 (F is absolute);
    integer values come back as ints."""
    c, _, inv = _cleared_invariants(q)
    return inv.scaled(1 / c)


def hessian(q: BinaryQuartic) -> tuple:
    """H(X, Y) = Q_XX Q_YY - Q_XY^2, a quartic covariant; identically zero
    iff Q has a quadruple root."""
    m, l, h, d, a = q.as_tuple()
    qxx = (12 * m, 6 * l, 2 * h)          # degree-2 form, X-descending
    qyy = (2 * h, 6 * d, 12 * a)
    qxy = (3 * l, 4 * h, 3 * d)
    return form_sub(form_mul(qxx, qyy), form_mul(qxy, qxy))


def covariant_l(q: BinaryQuartic, inv: Invariants | None = None) -> tuple:
    """L(X, Y) = I H(X, Y) - 6 J Q(X, Y), a quartic covariant.  Pass the
    quartic's invariants when they are already at hand."""
    inv = inv or invariants(q)
    return form_sub(form_scale(hessian(q), inv.i), form_scale(q.as_tuple(), 6 * inv.j))


def covariant_m(q: BinaryQuartic, inv: Invariants | None = None) -> tuple:
    """M(X, Y) = 12 H(X, Y)^2 - I Q(X, Y)^2, a degree-8 covariant.  Pass
    the quartic's invariants when they are already at hand."""
    inv = inv or invariants(q)
    h = hessian(q)
    return form_sub(form_scale(form_mul(h, h), 12),
                    form_scale(form_mul(q.as_tuple(), q.as_tuple()), inv.i))


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
    poly = list(reversed(q.cleared()[1].as_tuple()))
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
    either the fixed parameter and distinct roots of a representative with a
    repeated root, or the open range of mu for four simple roots."""

    partition: tuple
    form: str
    parameter: Fraction | None = None
    roots: tuple | None = None
    mu_range: tuple = (-math.inf, math.inf)


# Canonical roots are homogeneous points (x, y) for the root (x : y), in
# the order in which _float_roots gives the input's roots: by decreasing
# multiplicity, and a complex pair as z then conj(z), with Im z > 0.
_STRATA = {
    WebType.BI_CYCLIDE: _Stratum(((1, 1, 1, 1), ()), "I", mu_range=(-math.inf, -2)),
    WebType.FLAT_RING_CYCLIDE: _Stratum(((), (1, 1)), "I", mu_range=(-2, 2)),
    WebType.DISK_CYCLIDE: _Stratum(((1, 1), (1,)), "II"),
    WebType.INVERSE_PROLATE_SPHEROIDAL: _Stratum(((2, 1, 1), ()), "III", Fraction(-1),
                                                 ((0, 1), (1, 1), (-1, 1))),
    WebType.INVERSE_OBLATE_SPHEROIDAL: _Stratum(((2,), (1,)), "III", Fraction(1),
                                                ((0, 1), (1j, 1), (-1j, 1))),
    WebType.TOROIDAL: _Stratum(((), (2,)), "I", Fraction(2), ((1j, 1), (-1j, 1))),
    WebType.BISPHERICAL: _Stratum(((2, 2), ()), "I", Fraction(-2), ((1, 1), (-1, 1))),
    WebType.CARDIOID: _Stratum(((3, 1), ()), "IV", roots=((0, 1), (1, 0))),
    WebType.TANGENT_SPHERE: _Stratum(((4,), ()), "V", roots=((0, 1),)),
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


def classify_by_invariants(q: BinaryQuartic) -> tuple[WebType, list[dict]]:
    """The algebraic decision list over (Delta, H, L, M, I, J), evaluated
    strictly top to bottom; covariant inequalities are read semidefinitely.
    The invariants and each covariant sign, computed when a row first needs
    it, are read in integers on the cleared quartic c Q (c > 0), whose I, J,
    Delta, H, L and M are c^2 I, c^3 J, c^6 Delta, c^2 H, c^4 L and c^4 M,
    so every sign is that of Q's.  Returns the type and the audit trail of
    every condition evaluated."""
    if q.is_zero:
        raise ClassificationError("the zero form has no web type")
    _, cleared, inv = _cleared_invariants(q)
    h_sign = functools.cache(lambda: form_sign(hessian(cleared)))
    l_sign = functools.cache(lambda: form_sign(covariant_l(cleared, inv)))
    m_sign = functools.cache(lambda: form_sign(covariant_m(cleared, inv)))
    rows = [
        (WebType.DISK_CYCLIDE, "Delta < 0",
         lambda: inv.delta < 0),
        (WebType.BI_CYCLIDE, "Delta > 0 and H < 0 and M > 0",
         lambda: inv.delta > 0 and h_sign() is FormSign.NSD_NONZERO
         and m_sign() is FormSign.PSD_NONZERO),
        # Delta > 0 leaves four real roots or two complex pairs, and the row
        # above takes the first, so no covariant is needed here.
        (WebType.FLAT_RING_CYCLIDE, "Delta > 0",
         lambda: inv.delta > 0),
        (WebType.INVERSE_PROLATE_SPHEROIDAL, "Delta = 0 and L < 0",
         lambda: inv.delta == 0 and l_sign() is FormSign.NSD_NONZERO),
        (WebType.INVERSE_OBLATE_SPHEROIDAL, "Delta = 0 and L > 0",
         lambda: inv.delta == 0 and l_sign() is FormSign.PSD_NONZERO),
        # Triple-root quartics also satisfy L = 0 with a semidefinite Hessian,
        # so the next two rows carry the guard I, J not both zero (always true
        # on genuine toroidal/bispherical orbits, where I scales as a3^2 from
        # 16); without it they would swallow every cardioid quartic.
        (WebType.TOROIDAL, "L = 0 and H > 0 and not I = J = 0",
         lambda: l_sign() is FormSign.IDENTICALLY_ZERO and h_sign() is FormSign.PSD_NONZERO
         and not (inv.i == 0 and inv.j == 0)),
        (WebType.BISPHERICAL, "L = 0 and H < 0 and not I = J = 0",
         lambda: l_sign() is FormSign.IDENTICALLY_ZERO and h_sign() is FormSign.NSD_NONZERO
         and not (inv.i == 0 and inv.j == 0)),
        (WebType.CARDIOID, "I = J = 0 and H != 0",
         lambda: inv.i == 0 and inv.j == 0 and h_sign() is not FormSign.IDENTICALLY_ZERO),
        (WebType.TANGENT_SPHERE, "H = 0",
         lambda: h_sign() is FormSign.IDENTICALLY_ZERO),
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


def _float_roots(structure: RootStructure) -> list[tuple]:
    """Distinct roots over the projective line as homogeneous float points,
    (1, 0) for infinity, ordered by decreasing multiplicity.  Real roots are
    exactly real (the exact structure says how many there are) and complex
    roots come as exactly conjugate neighbours.  Roots are found and
    polished in the variable of ``_normalized`` and then written exactly as
    points with no coordinate above 1 in size, so roots of any size stay
    within double range."""
    roots = []
    if structure.infinity_multiplicity:
        roots.append((structure.infinity_multiplicity, (1, 0)))
    for factor, mult, nreal in structure.finite_factors:
        centre, k, scaled = _normalized(factor)
        found = sorted(_aberth(scaled), key=lambda w: abs(w.imag))
        for w in found[:nreal]:
            roots.append((mult, _point(centre, k, _polish(scaled, w.real).real)))
        pairs = sorted(found[nreal:], key=lambda w: -w.imag)[:len(found[nreal:]) // 2]
        for w in pairs:
            x, y = _point(centre, k, _polish(scaled, w))
            roots.extend([(mult, (x, y)), (mult, (x.conjugate(), y.conjugate()))])
    roots.sort(key=lambda item: -item[0])
    points = [point for _, point in roots]
    if any(_bracket(u, v) == 0 for u, v in itertools.combinations(points, 2)):
        raise ClassificationError("two roots coincide in floating point")
    return points


def _log2(num: int, den: int) -> float:
    """log2 |num / den| (den > 0) of a nonzero rational of any size, read
    from the reduced pair, as it would be from the ``Fraction``."""
    g = math.gcd(num, den)
    return math.log2(abs(num // g)) - math.log2(den // g)


def _normalized(factor: list[int]) -> tuple[tuple[int, int], int, list[int]]:
    """A centre n/q as the pair (n, q), a k, and an integer multiple of the
    monic g(w) = f(n/q + 2^k w) / 2^(k d), where f is the monic form of a
    primitive integer factor a of degree d with a_d > 0, all exact.  The
    centre is the root centroid when f is smaller in size there than at 0,
    and is 0 otherwise: roots are resolved relative to their distance from
    the centre, so a cluster of all the roots is taken about its centroid,
    and a root near 0 far from the others about 0.  2^k is near the
    geometric mean of the sizes of the nonzero roots of f(n/q + x), so the
    roots of g stay within double range unless their sizes differ by a
    factor beyond about 10^600.

    All in integers: with b_i = a_i q^(d - i) and c the Taylor shift of b
    by n, q^d a(n/q + y) is the sum of c_j q^j y^j, so the coefficient j
    of f(n/q + y) is c_j / (a_d q^(d - j)), and the centre test
    |f(n/q)| >= |f(0)| reads |c_0| >= |a_0| q^d."""
    d = len(factor) - 1
    lead = factor[-1]
    g = math.gcd(factor[-2], d * lead)
    n, q = -factor[-2] // g, d * lead // g
    coeffs = [c * q ** (d - i) for i, c in enumerate(factor)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            coeffs[j] += n * coeffs[j + 1]
    if abs(coeffs[0]) >= abs(factor[0]) * q ** d:
        n, q, coeffs = 0, 1, list(factor)
    low = next(i for i, c in enumerate(coeffs) if c)
    k = round(_log2(coeffs[low], lead * q ** (d - low)) / (d - low)) if low < d else 0
    # a_d q^d 2^(k d) g(w) for k >= 0, and a_d q^d g(w) for k < 0.
    return (n, q), k, [(c * q ** j) << (k * j if k >= 0 else -k * (d - j))
                       for j, c in enumerate(coeffs)]


def _aberth(poly: list[int]) -> list[complex]:
    """The roots of a square-free integer polynomial with a positive
    leading coefficient, by the simultaneous Aberth-Ehrlich iteration in
    doubles (Aberth 1973; Ehrlich 1967).  The starting points lie on
    circles whose radii come from the Newton polygon of log2 |coefficient|
    of the monic form (Bini 1996), so that roots of very different sizes
    each start near their own size, and each Newton correction is taken on
    the polynomial rescaled to the size of its point, so that no
    coefficient or value leaves double range.  A monic coefficient c_i / c_d
    is read exactly: its log from the reduced pair, and its mantissa as one
    correctly rounded int division."""
    lead = poly[-1]
    logs = {i: _log2(c, lead) for i, c in enumerate(poly) if c}
    hull: list[int] = []  # upper convex hull of the points (i, logs[i])
    for i in logs:
        while len(hull) > 1 and ((logs[hull[-1]] - logs[hull[-2]]) * (i - hull[-1])
                                 <= (logs[i] - logs[hull[-1]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(i)
    z = [0j] * hull[0]
    for i, j in zip(hull, hull[1:]):
        size = (logs[i] - logs[j]) / (j - i)
        if abs(size) > 1000:
            raise ClassificationError("the roots of a factor differ in size beyond double range")
        radius = 2.0 ** size
        z += [radius * cmath.exp(1j * (2 * math.pi * t / (j - i) + 0.4)) for t in range(j - i)]
    terms = []  # (i, m, x) with c_i / c_d = m 2^x and m about 1 in size, highest i first
    for i, c in reversed(list(enumerate(poly))):
        x = math.floor(logs[i]) + 1 if i in logs else 0
        terms.append((i, c / (lead << x) if x >= 0 else (c << -x) / lead, x))
    for _ in range(50):
        moved = False
        for j, zj in enumerate(z):
            e = math.frexp(abs(zj))[1]
            top = max(x + i * e for i, m, x in terms if m)
            u = complex(math.ldexp(zj.real, -e), math.ldexp(zj.imag, -e))
            p = dp = 0j
            for i, m, x in terms:
                dp = dp * u + p
                p = p * u + math.ldexp(m, x + i * e - top)
            scale = 2.0 ** e
            denom = dp - scale * p * sum(1 / (zj - zk) for zk in z if zk != zj)
            if denom:
                step = scale * p / denom
                z[j] = zj - step
                moved = moved or abs(step) > 1e-14 * abs(zj)
        if not moved:
            break
    return z


def _polish(ints: list[int], z: complex) -> complex:
    """Newton steps on a simple root of an integer polynomial, each
    computed exactly from its value and slope at z, until a step is below
    1e-10 |z|: float roots of clustered factors are too coarse for a 1e-9
    witness, and a value at a root can be far below or above double range.
    With z = (X + iY) / 2^s, the value times 2^(s d) and the slope times
    2^(s (d - 1)) are Gaussian integers.  The step is their quotient, one
    correctly rounded int division per part, so any integer multiple of the
    polynomial gives the same step."""
    d = len(ints) - 1
    for _ in range(8):
        (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        shift = max(xd, yd).bit_length() - 1
        x, y = xn << (shift - xd.bit_length() + 1), yn << (shift - yd.bit_length() + 1)
        re, im, dre, dim = ints[d], 0, 0, 0
        for i in range(d - 1, -1, -1):
            dre, dim = dre * x - dim * y + re, dre * y + dim * x + im
            re, im = re * x - im * y + (ints[i] << (shift * (d - i))), re * y + im * x
        norm = (dre * dre + dim * dim) << shift
        if not norm:
            break
        step = complex((re * dre + im * dim) / norm, (im * dre - re * dim) / norm)
        z -= step
        if abs(step) <= 1e-10 * abs(z):
            break
    return z


def _point(centre: tuple[int, int], k: int, w) -> tuple:
    """The homogeneous point of the root n/q + 2^k w, centre = (n, q),
    computed exactly and written as (z, 1) when |z| <= 1 and as (1, 1/z)
    otherwise; a real w gives a real point.  The root is (X + iY) / D in
    integers, and each coordinate is rounded once, by int true division."""
    n, q = centre
    (xn, xd), (yn, yd) = w.real.as_integer_ratio(), w.imag.as_integer_ratio()
    den = max(xd, yd)  # both are powers of two
    xn, yn = xn * (den // xd), yn * (den // yd)
    if k >= 0:
        xn, yn = xn << k, yn << k
    else:
        den <<= -k
    x, y, den = n * den + xn * q, yn * q, q * den
    norm = x * x + y * y
    far = norm > den * den
    if far:
        x, y, den = x * den, -y * den, norm
    z = complex(x / den, y / den) if isinstance(w, complex) else x / den
    return (1, z) if far else (z, 1)


def _bracket(u, v):
    """u0 v1 - u1 v0: the difference u - v of two finite points."""
    return u[0] * v[1] - u[1] * v[0]


def _frame(points) -> Mat2:
    """A matrix whose Moebius map sends 0, infinity and 1 to the given
    distinct points, in that order; with two points the image of 1 is free,
    and a lone real point gets its orthogonal point as the image of
    infinity."""
    if len(points) == 1:
        points = (points[0], (points[0][1], -points[0][0]))
    a, b = points[:2]
    s, t = 1, 1
    if len(points) == 3:
        c = points[2]
        s, t = _bracket(c, a), _bracket(b, c)
    return Mat2(s * b[0], t * a[0], s * b[1], t * a[1])


def _real_matrix(src, dst) -> Mat2 | None:
    """The real matrix, up to scale, whose Moebius map sends the source
    points onto the target points (up to three used), or None when that map
    is not real."""
    m = _frame(dst).mul(_frame(src).adjugate())
    entries = (m.alpha, m.beta, m.gamma, m.delta)
    pivot = complex(max(entries, key=abs))
    entries = [complex(e) / pivot for e in entries]
    if max(abs(e.imag) for e in entries) > 1e-7:
        return None
    return Mat2(*(e.real for e in entries))


def _generic_form(web: WebType, roots: list) -> tuple[float, Mat2]:
    """Parameter and matrix for four simple roots (forms I and II).  Each
    labeling (z1, z2, z3, z4) of the roots with z1 fixed has the
    cross-ratio lam = [z1 z3][z2 z4] / ([z1 z4][z2 z3]), which the canonical
    roots (a, -a, s/a, -s/a) of X^4 + mu X^2 Y^2 + s^2 Y^4 take for
    mu = 2 s (lam + 1) / (lam - 1) = 2 s ([z1 z3][z2 z4] + [z1 z4][z2 z3]) /
    ([z1 z2][z3 z4]), with s = 1 (form I) or i (form II).  A labeling
    qualifies when mu is real and in range and the Moebius map from the
    canonical roots onto the labeled ones is real; the smallest |mu| wins,
    then mu >= 0."""
    stratum = _STRATA[web]
    low, high = stratum.mu_range
    s = 1j if stratum.form == "II" else 1
    first, *rest = roots
    found = []
    for z2, z3, z4 in itertools.permutations(rest):
        # Each bracket is divided before any two are multiplied, so that no
        # product of small brackets underflows.
        b12, b34 = _bracket(first, z2), _bracket(z3, z4)
        mu = 2 * s * (_bracket(first, z3) / b12 * (_bracket(z2, z4) / b34)
                      + _bracket(first, z4) / b12 * (_bracket(z2, z3) / b34))
        if abs(mu.imag) > 1e-7 * max(1.0, abs(mu)) or not low < mu.real < high:
            continue
        # a^2 = (-mu + r) / 2 with r = sqrt(mu^2 - 4 s^2), which is taken as
        # c sqrt((mu/c)^2 - 4 (s/c)^2) to stay within double range, and
        # evaluated as 2 s^2 / (-mu - r) where -mu + r would cancel.
        c = max(1.0, abs(mu.real))
        r = c * cmath.sqrt((mu.real / c) ** 2 - 4 * (s / c) ** 2)
        a = cmath.sqrt((-mu.real + r) / 2 if mu.real * r.real <= 0 else 2 * s * s / (-mu.real - r))
        matrix = _real_matrix([(a, 1), (-a, 1), (s / a, 1)], [first, z2, z3])
        if matrix is not None:
            found.append((mu.real, matrix))
    if not found:
        raise ClassificationError(f"no real labeling of the roots reaches form "
                                  f"{stratum.form} for {web.value}")
    smallest = min(abs(mu) for mu, _ in found)
    return max((item for item in found if abs(item[0]) <= smallest * (1 + 1e-9) + 1e-12),
               key=lambda item: item[0])


def _pin_parameter(form: str, inv: Invariants, approx: float) -> tuple[Fraction | float, bool]:
    """Bracket the parameter of form I/II exactly on the F-equation
    I(mu)^3 - F J(mu)^2 = 0 (J(mu) = 0 when J = 0), with I(mu) and J(mu) the
    invariants of the representative, and bisect to width 1/(4 * 10^12).
    Returns the rational root in the bracket with denominator up to 10^6,
    or else the bracket's midpoint as a float.

    inv holds the integer invariants I, J of the cleared quartic, and the
    equation is read as J^2 I(mu)^3 - I^3 J(mu)^2, a positive multiple with
    integer coefficients, on which every sign test and the refinement run."""
    s = 1 if form == "I" else -1
    if inv.j == 0:
        poly = [0, 72 * s, 0, -2]  # J(mu) = 72 s mu - 2 mu^3
    else:
        # I(mu)^3 = 1728 s + 432 mu^2 + 36 s mu^4 + mu^6 with I(mu) = 12 s + mu^2,
        # J(mu)^2 = 5184 mu^2 - 288 s mu^4 + 4 mu^6.
        jj, iii = inv.j * inv.j, inv.i ** 3
        poly = int_cleared([1728 * s * jj, 0, 432 * jj - 5184 * iii, 0,
                            36 * s * jj + 288 * s * iii, 0, jj - 4 * iii])

    def sign(x: Fraction) -> int:
        return sign_at(poly, x.numerator, x.denominator)

    centre = Fraction(approx)
    for width in (Fraction(1, 10**12), Fraction(1, 10**9), Fraction(1, 10**6)):
        lo, hi = centre - width * max(1, abs(centre)), centre + width * max(1, abs(centre))
        if sign(lo) * sign(hi) <= 0:
            break
    else:
        return approx, False
    max_width = Fraction(1, 4 * 10**12) * min(1, abs(centre) or 1)
    lo, hi = refine_root(poly, lo, hi, max_width)
    candidate = ((lo + hi) / 2).limit_denominator(10**6) if lo != hi else lo
    if lo <= candidate <= hi and sign(candidate) == 0:
        return candidate, True
    return float((lo + hi) / 2), False


def _witness(q: BinaryQuartic, matrix: Mat2, target: tuple) -> tuple[GroupElement, float]:
    """The group element substituting by the matrix, rescaled to agree with
    the target at its largest coefficient, and its residual.

    All in integers: the matrix of doubles is multiplied by the power of two
    that clears it, and acts on the cleared quartic c Q.  The image is
    homogeneous in both scales, so they cancel in the rescaling factor and
    in the residual, and a0, a1, a2 and the discrete flag do not depend on
    the matrix's scale."""
    entries = [e.as_integer_ratio() for e in (matrix.alpha, matrix.beta, matrix.gamma, matrix.delta)]
    power = math.lcm(*(d for _, d in entries))
    matrix = Mat2(*(n * (power // d) for n, d in entries))
    target = [t.as_integer_ratio() for t in target]
    den = math.lcm(*(d for _, d in target))
    target = [n * (den // d) for n, d in target]  # den times the target
    pivot = max(range(5), key=lambda k: abs(target[k]))
    try:
        g = from_gl2(matrix)
    except CktError as exc:
        raise ClassificationError(f"degenerate canonicalization matrix: {exc}") from None
    c, cleared = q.cleared()
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


def canonical_form(q: BinaryQuartic,
                   structure: RootStructure | None = None) -> tuple[CanonicalForm, GroupElement]:
    """Canonical representative of the quartic's orbit and a witness group
    element carrying it there, verified to 1e-9 relative accuracy.

    The witness substitutes by the real Moebius map sending the
    representative's roots onto the quartic's float roots.  For four simple
    roots (forms I/II) the parameter mu comes from the cross-ratio of the
    chosen labeling and is then pinned exactly on the F-equation; the forms
    with a repeated root have fixed parameters.  Pass the quartic's root
    structure when it is already at hand.
    """
    if q.is_zero:
        raise ClassificationError("the zero form has no canonical form")
    structure = structure or root_structure(q)
    web = classify_by_roots(q, structure)
    stratum = _STRATA[web]
    form = stratum.form
    roots = _float_roots(structure)
    if stratum.roots is not None:
        parameter, exact = stratum.parameter, True
        matrix = _real_matrix(stratum.roots, roots)
        if matrix is None:
            raise ClassificationError(f"the root map for {web.value} is not real")
    else:
        approx, matrix = _generic_form(web, roots)
        parameter, exact = _pin_parameter(form, _cleared_invariants(q)[2], approx)
    target = _canonical_coeffs(form, parameter)
    witness, residual = _witness(q, matrix, target)
    if not residual <= 1e-9:
        raise ClassificationError(
            f"the witness for {web.value} (form {form}) misses the representative "
            f"by {residual:.3g}")
    return CanonicalForm(form, parameter, exact, residual), witness
