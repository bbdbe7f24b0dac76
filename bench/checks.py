"""Output checks that rest on the mathematics, not on saved program output.

Quartic invariants, root partitions and the group action are recomputed
here from their defining formulas; closedness of a compatibility one-form is
checked by exact second-order Taylor jets at rational points.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# Binary quartics (x4, x3y, x2y2, xy3, y4)


def invariants_ij(q) -> tuple:
    """I and J in the non-binomial coefficient convention."""
    m, l, h, d, a = q
    i = 12 * a * m - 3 * l * d + h * h
    j = 72 * a * m * h - 27 * a * l * l - 27 * d * d * m + 9 * d * l * h - 2 * h ** 3
    return i, j


def same_absolute_invariant(q1, q2, exact: bool) -> bool:
    """F = I^3 / J^2 agrees (J = 0 is itself invariant, so it must agree too)."""
    i1, j1 = invariants_ij(q1)
    i2, j2 = invariants_ij(q2)
    if exact:
        if j1 == 0 or j2 == 0:
            return j1 == 0 and j2 == 0 and (i1 == 0) == (i2 == 0)
        return i1 ** 3 * j2 ** 2 == i2 ** 3 * j1 ** 2
    f1 = float(Fraction(i1) ** 3 / Fraction(j1) ** 2) if j1 else None
    i2, j2 = float(i2), float(j2)
    if f1 is None or abs(j2) < 1e-12:
        return f1 is None and abs(j2) < 1e-9
    f2 = i2 ** 3 / j2 ** 2
    return abs(f1 - f2) <= 1e-9 * max(1.0, abs(f1))


def numeric_partition(q, tol: float = 1e-3) -> tuple:
    """Root partition over RP^1 from numpy's companion-matrix roots: sorted
    real multiplicities (infinity included) and complex-pair multiplicities.
    Roots closer than tol (relative) are one root: a root of multiplicity m
    comes back spread over about eps^(1/m), 1e-4 for m = 4."""
    coeffs = [float(c) for c in q]
    inf = 0
    while inf < 4 and q[inf] == 0:
        inf += 1
    roots = list(np.roots(coeffs[inf:])) if inf < 4 else []
    scale = max([1.0] + [abs(r) for r in roots])
    clusters: list = []
    for r in roots:
        for cluster in clusters:
            if abs(cluster[0] - r) <= tol * scale:
                cluster.append(r)
                break
        else:
            clusters.append([r])
    reals = [inf] if inf else []
    pairs = []
    for cluster in clusters:
        centre = sum(cluster) / len(cluster)
        if abs(centre.imag) <= tol * scale:
            reals.append(len(cluster))
        elif centre.imag > 0:
            pairs.append(len(cluster))
    return tuple(sorted(reals, reverse=True)), tuple(sorted(pairs, reverse=True))


def canonical_coeffs(form: str, parameter) -> tuple:
    """Representatives I = (1, 0, mu, 0, 1), II = (1, 0, mu, 0, -1),
    III = (1, 0, nu, 0, 0), IV = (0, 1, 0, 0, 0), V = (1, 0, 0, 0, 0)."""
    p = parameter if parameter is not None else 0
    return {
        "I": (1, 0, p, 0, 1),
        "II": (1, 0, p, 0, -1),
        "III": (1, 0, p, 0, 0),
        "IV": (0, 1, 0, 0, 0),
        "V": (1, 0, 0, 0, 0),
    }[form]


def _taylor(coeffs, x, upto: int) -> list:
    """[P(x), P'(x), P''(x)/2!, ...] for P given low-degree-first."""
    out = []
    current = list(coeffs)
    factorial = 1
    for n in range(upto + 1):
        if n:
            factorial *= n
        value = 0
        for c in reversed(current):
            value = value * x + c
        out.append(value / factorial)
        current = [c * k for k, c in enumerate(current)][1:]
    return out


def act_on_quartic(g: dict, q) -> tuple:
    """The group element (a0, a1, a2, a3, discrete) applied to a quartic
    (M33, L3, H, D3, A33), exactly; a4 only moves C33."""
    a0, a1, a2, a3 = (Fraction(g[k]) for k in ("a0", "a1", "a2", "a3"))
    m33, l3, h, d3, a33 = (Fraction(c) for c in q)
    if g["discrete"]:
        m33, l3, h, d3, a33 = a33, d3, h, l3, m33
    p0, p1, p2, p3, p4 = _taylor([m33, -l3, h, -d3, a33], a0, 4)
    s = a3 / (a2 * a2)
    return (
        s * p0,
        s * (-4 * a1 * p0 - a2 * p1),
        s * (6 * a1 ** 2 * p0 + 3 * a1 * a2 * p1 + a2 ** 2 * p2),
        s * (-4 * a1 ** 3 * p0 - 3 * a1 ** 2 * a2 * p1 - 2 * a1 * a2 ** 2 * p2 - a2 ** 3 * p3),
        s * (a1 ** 4 * p0 + a1 ** 3 * a2 * p1 + a1 ** 2 * a2 ** 2 * p2
             + a1 * a2 ** 3 * p3 + a2 ** 4 * p4),
    )


def witness_error(g: dict, q, target) -> float:
    """Largest coefficient error of g.q against the target, relative to
    max(1, largest target coefficient)."""
    moved = [float(c) for c in act_on_quartic(g, q)]
    target = [float(c) for c in target]
    return max(abs(a - b) for a, b in zip(moved, target)) / max([1.0] + [abs(c) for c in target])


# ---------------------------------------------------------------------------
# Exact linear algebra on short rational vectors


def rank(rows) -> int:
    rows = [[Fraction(c) for c in row] for row in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def same_span(rows_a, rows_b) -> bool:
    ra, rb = rank(rows_a), rank(rows_b)
    return ra == rb == rank(list(rows_a) + list(rows_b))


# ---------------------------------------------------------------------------
# Second-order jets in (dx, dy, dz) over the rationals


class Jet:
    """Truncated Taylor expansion of order <= 2 at a fixed point."""

    __slots__ = ("t",)

    def __init__(self, terms: dict):
        self.t = terms

    @staticmethod
    def lift(value) -> Jet:
        return value if isinstance(value, Jet) else Jet({(0, 0, 0): value})

    def __add__(self, other):
        out = dict(self.t)
        if isinstance(other, Jet):
            for e, c in other.t.items():
                out[e] = out.get(e, 0) + c
        else:
            out[(0, 0, 0)] = out.get((0, 0, 0), 0) + other
        return Jet(out)

    __radd__ = __add__

    def __neg__(self):
        return Jet({e: -c for e, c in self.t.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet({e: c * other for e, c in self.t.items()})
        out: dict = {}
        for e1, c1 in self.t.items():
            for e2, c2 in other.t.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                if e[0] + e[1] + e[2] <= 2:
                    out[e] = out.get(e, 0) + c1 * c2
        return Jet(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Jet.lift(1)
        for _ in range(n):
            out = out * self
        return out

    def value(self):
        return self.t.get((0, 0, 0), 0)

    def reciprocal(self) -> Jet:
        """1/u = (1/u0) (1 - e + e^2) with e = u/u0 - 1, exact to order 2."""
        inv = 1 / Fraction(self.value())
        e = self * inv - 1
        return (1 - e + e * e) * inv

    def __truediv__(self, other):
        return self * Jet.lift(other).reciprocal()

    def __rtruediv__(self, other):
        return Jet.lift(other) * self.reciprocal()

    def diff(self, var: int) -> Jet:
        out = {}
        for e, c in self.t.items():
            if e[var]:
                lowered = list(e)
                lowered[var] -= 1
                out[tuple(lowered)] = c * e[var]
        return Jet(out)


def coordinate_jets(point) -> list:
    out = []
    for i in range(3):
        unit = tuple(int(k == i) for k in range(3))
        out.append(Jet({(0, 0, 0): Fraction(point[i]), unit: Fraction(1)}))
    return out


def _sym(v, w) -> list:
    return [[(v[i] * w[j] + v[j] * w[i]) * Fraction(1, 2) for j in range(3)] for i in range(3)]


def rotational_tensor(params, xyz) -> list:
    """K = M33 I3.I3 + L3 D.I3 + H D.D + C33 R3.R3 + D3 D.X3 + A33 X3.X3 as jets."""
    x, y, z = xyz
    zero, one = Jet({}), Jet.lift(1)
    x3 = [zero, zero, one]
    r3 = [-y, x, zero]
    d = [x, y, z]
    i3 = [2 * x * z, 2 * y * z, z * z - x * x - y * y]
    factors = [(i3, i3), (d, i3), (d, d), (r3, r3), (d, x3), (x3, x3)]
    k = [[zero] * 3 for _ in range(3)]
    for weight, (v, w) in zip(params, factors):
        if weight:
            piece = _sym(v, w)
            k = [[k[i][j] + piece[i][j] * Fraction(weight) for j in range(3)] for i in range(3)]
    return k


def compatibility_curl(params, v_builder, energy, point) -> list:
    """The three components of d omega at the point, for
    omega = (E - V) k_flat - K dV with k_i = (d_i tr K + 2 d_j K_ji) / 5."""
    xyz = coordinate_jets(point)
    v = v_builder(*xyz)
    k = rotational_tensor(params, xyz)
    trace = k[0][0] + k[1][1] + k[2][2]
    kvec = []
    for i in range(3):
        acc = trace.diff(i)
        for j in range(3):
            acc = acc + k[j][i].diff(j) * 2
        kvec.append(acc * Fraction(1, 5))
    dv = [v.diff(j) for j in range(3)]
    omega = []
    for i in range(3):
        acc = (energy - v) * kvec[i]
        for j in range(3):
            acc = acc - k[i][j] * dv[j]
        omega.append(acc)
    return [omega[j].diff(i).value() - omega[i].diff(j).value()
            for i, j in ((0, 1), (0, 2), (1, 2))]
