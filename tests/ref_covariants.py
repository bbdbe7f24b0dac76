"""Covariant forms of the binary quartic and the decision list read on them.

``classify_by_invariants`` reads the covariants' values at one point.  The
oracles here form L and M as whole binary forms (coefficients
X-degree-descending) and read each covariant condition of the decision list
as a global sign, with ``form_sign``'s square-free factors and Sturm counts.
"""

from typing import Sequence

from rotweb.quartic_class import (BinaryQuartic, ClassificationError, FormSign, Invariants,
                                  WebType, form_sign, hessian, invariants)


def form_mul(a: Sequence, b: Sequence) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def form_sub(a: Sequence, b: Sequence) -> tuple:
    assert len(a) == len(b), "forms of different degree"
    return tuple(x - y for x, y in zip(a, b))


def form_scale(a: Sequence, c) -> tuple:
    return tuple(x * c for x in a)


def form_is_zero(a: Sequence) -> bool:
    return all(c == 0 for c in a)


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


def classify_by_form_signs(q: BinaryQuartic) -> tuple[WebType, list[dict]]:
    """The decision list of ``classify_by_invariants`` with every covariant
    condition read as the global sign of the whole form: the same rows, row
    texts and audit."""
    if q.is_zero:
        raise ClassificationError("the zero form has no web type")
    _, cleared, inv = q.cleared
    h_sign = form_sign(hessian(cleared))
    l_sign = form_sign(covariant_l(cleared, inv))
    m_sign = form_sign(covariant_m(cleared, inv))
    rows = [
        (WebType.DISK_CYCLIDE, "Delta < 0",
         inv.delta < 0),
        (WebType.BI_CYCLIDE, "Delta > 0 and H < 0 and M > 0",
         inv.delta > 0 and h_sign is FormSign.NSD_NONZERO and m_sign is FormSign.PSD_NONZERO),
        (WebType.FLAT_RING_CYCLIDE, "Delta > 0",
         inv.delta > 0),
        (WebType.INVERSE_PROLATE_SPHEROIDAL, "Delta = 0 and L < 0",
         inv.delta == 0 and l_sign is FormSign.NSD_NONZERO),
        (WebType.INVERSE_OBLATE_SPHEROIDAL, "Delta = 0 and L > 0",
         inv.delta == 0 and l_sign is FormSign.PSD_NONZERO),
        (WebType.TOROIDAL, "L = 0 and H > 0 and not I = J = 0",
         l_sign is FormSign.IDENTICALLY_ZERO and h_sign is FormSign.PSD_NONZERO
         and not (inv.i == 0 and inv.j == 0)),
        (WebType.BISPHERICAL, "L = 0 and H < 0 and not I = J = 0",
         l_sign is FormSign.IDENTICALLY_ZERO and h_sign is FormSign.NSD_NONZERO
         and not (inv.i == 0 and inv.j == 0)),
        (WebType.CARDIOID, "I = J = 0 and H != 0",
         inv.i == 0 and inv.j == 0 and h_sign is not FormSign.IDENTICALLY_ZERO),
        (WebType.TANGENT_SPHERE, "H = 0",
         h_sign is FormSign.IDENTICALLY_ZERO),
    ]
    audit: list[dict] = []
    for web, condition, matched in rows:
        audit.append({"web": web.value, "condition": condition, "matched": matched})
        if matched:
            return web, audit
    raise ClassificationError("no algebraic condition matched", audit)
