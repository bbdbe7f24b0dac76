import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotweb.ckt_core import ckv_by_name
from rotweb.exactmath import (DEGREE_LIMIT, ExactMathError, Poly, RationalFunction, _gcd,
                              isolate_real_roots, rat, rat_str, rational_roots, real_root_count,
                              refine_root, sign_at, squarefree_decomposition)
from rotweb.linalg import char_poly
from rotweb.quartic_class import WebType, hessian

from conftest import companion_real_root_count, degree_in, evaluate, rand_fraction
from ref_covariants import covariant_l, covariant_m
from ref_univariate import (UniPoly, ints, product, ref_divmod, ref_gcd, ref_isolate, ref_monic,
                            ref_rational_roots, ref_real_root_count, ref_refine, ref_sign,
                            ref_squarefree_decomposition, ref_squarefree_part, squarefree_ints)
from test_canonical_form import extreme_quartic, partition_quartic
from test_ckt_core import lie_operator


def up(*coeffs):
    return UniPoly(coeffs)


def gcd_of(p, q):
    """The kernel's gcd of two UniPolys, as a UniPoly."""
    return UniPoly(_gcd(ints(p), ints(q)))


def check_isolation(p, rationals, irrational=()) -> int:
    """Assert the root contract of p, whose distinct real roots are the given
    rationals and the irrationals sign * sqrt(c) for each (sign, c), c not a
    square: one increasing, disjoint interval (lo, hi], lo < hi, around each
    root of its square-free part, the rational roots exactly, and the count.
    Returns how many nonzero roots sit at a right end, that is, were hit by a
    midpoint."""
    def below(x, root):  # x < root
        if isinstance(root, Fraction):
            return x < root
        sign, c = root
        return x < 0 or x * x < c if sign > 0 else x < 0 and x * x > c

    rationals = sorted(Fraction(r) for r in rationals)
    known = rationals + list(irrational)
    intervals = isolate_real_roots(squarefree_ints(p))
    assert len(intervals) == len(known) == real_root_count(ints(p))
    for lo, hi in intervals:
        assert lo < hi
        assert sum(below(lo, r) and not below(hi, r) for r in known) == 1
    assert all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
    assert rational_roots(ints(p)) == rationals
    return sum(hi != 0 and hi in rationals for _, hi in intervals)


class TestRational:
    def test_parse_and_format(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-7") == Fraction(-7)
        assert rat_str(Fraction(3, 4)) == "3/4"
        assert rat_str(Fraction(8, 4)) == "2"

    def test_rejects_garbage(self):
        with pytest.raises(ExactMathError):
            rat("one half")


class TestPolyGcd:
    """The primitive gcd behind Yun's algorithm."""

    def test_shared_linear_factor(self):
        assert gcd_of(up(-1, 0, 1), up(-1, 1)) == up(-1, 1)

    def test_derivative_pair(self):
        # gcd(z^4 + 2 z^2 + 1, 4 z^3 + 4 z) = z^2 + 1
        assert gcd_of(up(1, 0, 2, 0, 1), up(0, 4, 0, 4)) == up(1, 0, 1)

    def test_monomials(self):
        assert gcd_of(up(0, 0, 0, 1), up(0, 0, 1)) == up(0, 0, 1)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
           st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    def test_gcd_divides_both(self, a, b):
        p, q = UniPoly(a), UniPoly(b)
        if p.is_zero and q.is_zero:
            return
        g = gcd_of(p, q)
        assert g.lead > 0
        for poly in (p, q):
            if not poly.is_zero:
                assert ref_divmod(poly, g)[1].is_zero
        assert g.degree <= min(d for d in (p.degree, q.degree) if d >= 0)


def reference_triples(p):
    """The square-free factors of ref_squarefree_decomposition, with their
    multiplicities and ref_real_root_count."""
    return [(f, m, ref_real_root_count(f)) for f, m in ref_squarefree_decomposition(p)]


def monic_triples(a):
    """The triples of squarefree_decomposition with monic factors."""
    return [(ref_monic(UniPoly(f)), m, n) for f, m, n in squarefree_decomposition(a)]


class TestSquarefree:
    def test_perfect_square(self):
        assert squarefree_decomposition(ints(up(1, 0, 2, 0, 1))) == [([1, 0, 1], 2, 0)]

    def test_mixed_multiplicities(self):
        # z^3 (z - 1)
        factors = squarefree_decomposition(ints(up(0, 0, 0, -1, 1)))
        assert ([0, 1], 3, 1) in factors and ([-1, 1], 1, 1) in factors

    def test_two_double_factors(self):
        # z^4 + 2 z^3 + z^2 = z^2 (z + 1)^2: one square-free factor z(z + 1)
        # of multiplicity 2 (equal-multiplicity factors stay grouped).
        factors = squarefree_decomposition(ints(up(0, 0, 1, 2, 1)))
        assert factors == [([0, 1, 1], 2, 2)]
        assert real_root_count(factors[0][0]) == 2

    def test_zero_raises(self):
        with pytest.raises(ExactMathError):
            squarefree_decomposition([])

    def test_reassembly_on_random_products(self):
        rng = random.Random(7)
        for _ in range(1000):
            p = UniPoly([rng.choice([1, 2, 3])])
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    factor = up(rng.randint(-4, 4), 1)
                else:
                    factor = up(rng.randint(-4, 4), rng.randint(-4, 4), 1)
                for _ in range(rng.randint(1, 3)):
                    p = p * factor
            factors = squarefree_decomposition(ints(p))
            assert ref_monic(product(f for f, mult, _ in factors for _ in range(mult))) == ref_monic(p)

    def test_triples_match_the_reference(self):
        # Square-free inputs (read off one Sturm sequence), products with
        # repeated factors (Yun's algorithm), either sign of the leading
        # coefficient, linear factors and lone linear and constant inputs.
        rng = random.Random(21)
        kinds = {"squarefree": 0, "repeated": 0, "negative": 0, "linear": 0}
        for trial in range(600):
            p = up(rng.choice((-1, 1)) * rng.randint(1, 5))
            for _ in range(trial % 4):
                degree = rng.choice((1, 1, 2, 3))
                factor = UniPoly([rng.randint(-6, 6) for _ in range(degree)] + [rng.randint(1, 4)])
                for _ in range(1 if trial % 3 else rng.randint(1, 3)):
                    p = p * factor
            expected = reference_triples(p)
            got = squarefree_decomposition(ints(p))
            assert monic_triples(ints(p)) == expected, p
            for factor, _, nreal in got:
                assert factor[-1] > 0 and nreal == real_root_count(factor)
            kinds["squarefree"] += p.degree > 0 and [m for _, m, _ in expected] == [1]
            kinds["repeated"] += any(m > 1 for _, m, _ in expected)
            kinds["negative"] += p.degree > 0 and p.lead < 0
            kinds["linear"] += any(f.degree == 1 for f, _, _ in expected)
        assert min(kinds.values()) >= 100, kinds
        assert squarefree_decomposition([-3]) == []
        assert squarefree_decomposition([6, -4]) == [([-3, 2], 1, 1)]


class TestRealRootCount:
    @pytest.mark.parametrize("coeffs,count", [
        ((-2, 0, 1), 2),        # z^2 - 2
        ((1, 0, 1), 0),         # z^2 + 1
        ((4, 0, -5, 0, 1), 4),  # (z^2 - 1)(z^2 - 4)
        ((5,), 0),
    ])
    def test_examples(self, coeffs, count):
        assert real_root_count(ints(up(*coeffs))) == count

    def test_tolerates_repeated_roots(self):
        assert real_root_count(ints(up(1, 0, 2, 0, 1) * up(1, 0, 2, 0, 1))) == 0
        assert real_root_count(ints(up(0, 0, 1))) == 1

    def test_zero_raises(self):
        with pytest.raises(ExactMathError):
            real_root_count([])

    def test_against_companion_oracle(self):
        rng = random.Random(11)
        tried = 0
        while tried < 1000:
            coeffs = [rng.randint(-20, 20) for _ in range(4)] + [rng.randint(1, 20)]
            p = UniPoly(coeffs)
            if not ref_gcd(p, p.derivative()).degree == 0:
                continue
            tried += 1
            assert real_root_count(ints(p)) == companion_real_root_count(coeffs)


class TestRootIsolation:
    def test_isolates_known_roots(self):
        p = up(4, 0, -5, 0, 1)  # roots -2, -1, 1, 2
        intervals = isolate_real_roots(ints(p))
        assert len(intervals) == 4
        for (lo, hi), root in zip(intervals, (-2, -1, 1, 2)):
            assert lo <= root <= hi or lo < root <= hi

    def test_exact_rational_roots(self):
        p = up(-6, 11, -6, 1)  # (z-1)(z-2)(z-3)
        assert rational_roots(ints(p)) == [1, 2, 3]
        assert rational_roots(ints(up(Fraction(-1, 2), 1))) == [Fraction(1, 2)]

    def test_irrational_roots_not_reported(self):
        assert rational_roots(ints(up(-2, 0, 1))) == []

    def test_large_denominators(self):
        a, b = Fraction(1, 10**7 + 1), Fraction(-5, 2**70)
        assert rational_roots(ints(up(-a, 1))) == [a]
        assert rational_roots(ints(up(-b, 1))) == [b]
        # sqrt(2) and -sqrt(2) sit between and around them and are not reported.
        assert rational_roots(ints(up(-a, 1) * up(-b, 1) * up(-2, 0, 1))) == [b, a]

    def test_repeated_root_once(self):
        r = Fraction(3, 7)
        assert rational_roots(ints(up(-r, 1) * up(-r, 1) * up(-r, 1) * up(1, 1))) == [-1, r]

    def test_zero_and_constant(self):
        assert rational_roots(ints(up(0, -1, 0, 1))) == [-1, 0, 1]
        assert rational_roots(ints(up(0, 0, 5))) == [0]
        assert rational_roots(ints(up(Fraction(7, 3)))) == []
        with pytest.raises(ExactMathError):
            rational_roots([])

    def test_random_products_of_factors(self):
        rng = random.Random(17)
        for _ in range(40):
            roots = {Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
                     for _ in range(rng.randint(0, 3))}
            p = up(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for r in roots:
                for _ in range(rng.randint(1, 2)):
                    p = p * up(-r, 1)
            if rng.random() < 0.5:
                p = p * up(-rng.choice((2, 3, 5, 7)), 0, 1)  # two irrational roots
            if rng.random() < 0.5:
                p = p * up(rng.randint(1, 9), 0, 1)  # no real roots
            assert rational_roots(ints(p)) == sorted(roots)

    def test_midpoints_that_are_roots(self):
        # z^3 - z: the Cauchy bound is 2, so the midpoints 0 and -1 are roots,
        # and they come back as the right ends of their intervals.
        p = ints(up(0, -1, 0, 1))
        assert isolate_real_roots(p) == [(-2, -1), (-1, 0), (0, 2)]
        assert real_root_count(p) == 3
        assert rational_roots(p) == [-1, 0, 1]

    def test_root_at_lo_is_not_a_candidate(self):
        # z (z^2 - 1000 z + 1): 0 is the first midpoint, and the irrational
        # root near 1/1000 is isolated in an interval (0, hi] narrowed to
        # width 1/2, where floor(hi) = 0 is the root below, not this one.
        p = ints(up(0, 1, -1000, 1))
        assert isolate_real_roots(p)[1][0] == 0
        assert rational_roots(p) == [0]

    def test_refine_from_a_root_at_lo(self):
        # z^3 - 2 z isolates sqrt(2) in (0, 3], and 0 is the root below it.
        p = ints(up(0, -2, 0, 1))
        lo, hi = isolate_real_roots(p)[2]
        assert (lo, hi) == (0, 3)
        lo, hi = refine_root(p, lo, hi, Fraction(1, 10**6))
        assert hi - lo <= Fraction(1, 10**6)
        assert lo * lo < 2 < hi * hi and lo > 0

    def test_roots_at_bisection_midpoints(self):
        # Roots on the grid k/4 with B = 1 + max |e_i(roots)| dyadic: for
        # (z + 3)(z - 1), B = 4 and both roots are midpoints.  Over all these
        # root sets, dozens of nonzero roots are hit by a midpoint.
        grid = [Fraction(k, 4) for k in range(-4, 5)]
        hits = 0
        for n in range(1, 5):
            for i, roots in enumerate(itertools.combinations(grid, n)):
                p = up(1)
                for r in roots:
                    for _ in range(1 + i % 3):
                        p = p * up(-r, 1)
                hits += check_isolation(p, roots)
        assert hits >= 50

    def test_random_dyadic_products(self):
        rng = random.Random(29)
        for _ in range(200):
            j = rng.randint(0, 6)
            rationals = {Fraction(rng.randint(-64, 64), 2 ** j) for _ in range(rng.randint(0, 5))}
            p = up(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
            for r in rationals:
                for _ in range(rng.randint(1, 3)):
                    p = p * up(-r, 1)
            irrational = ()
            if rng.random() < 0.5:
                c = rng.choice((2, 3, 5, 7))
                p = p * up(-c, 0, 1)
                irrational = ((-1, c), (1, c))
            if rng.random() < 0.5:
                p = p * up(rng.randint(1, 9), 0, 1)  # no real roots
            check_isolation(p, rationals, irrational)

    def test_bisection_deeper_than_the_recursion_limit(self):
        # Two roots 10^-400 apart lie some 1330 bisection levels below the
        # Cauchy bound, deeper than Python's default recursion limit.
        a, b = Fraction(1, 10**400), Fraction(2, 10**400)
        p = ints(up(a * b, -(a + b), 1))
        assert len(isolate_real_roots(p)) == 2
        assert rational_roots(p) == [a, b]

    def test_refine_narrows(self):
        p = ints(up(-2, 0, 1))
        lo, hi = isolate_real_roots(p)[1]  # the positive root sqrt(2)
        lo2, hi2 = refine_root(p, lo, hi, Fraction(1, 10**6))
        assert hi2 - lo2 <= Fraction(1, 10**6)
        assert lo <= lo2 <= hi2 <= hi
        assert lo2 <= Fraction(141421356, 10**8) <= hi2


def assert_same_as_reference(p, intervals=True):
    """The integer kernel gives exactly what the Fraction kernel gave: the
    same monic factors, multiplicities and counts, gcd and square-free part,
    and unless intervals is false the same isolating intervals, refinements
    and rational roots."""
    a = ints(p)
    factors = monic_triples(a)
    assert factors == reference_triples(p)
    assert [real_root_count(ints(f)) for f, _, _ in factors] == [n for _, _, n in factors]
    assert real_root_count(a) == ref_real_root_count(p)
    assert ref_monic(gcd_of(p, p.derivative())) == ref_gcd(p, p.derivative())
    sf = ref_squarefree_part(p)
    assert ref_monic(UniPoly(squarefree_ints(p))) == sf
    if not intervals:
        return
    found = isolate_real_roots(ints(sf))
    assert found == ref_isolate(sf)
    half_step = Fraction(1, 2 * abs(ints(sf)[-1]))
    for lo, hi in found:
        for width in (Fraction(1, 10**12), (hi - lo) / 2**200, half_step):
            assert refine_root(ints(sf), lo, hi, width) == ref_refine(sf, lo, hi, width)
    assert rational_roots(a) == ref_rational_roots(p)


def quartic_and_covariants(q) -> dict:
    """q(z) and its H, L and M covariants at Y = 1, by name, leaving out the
    ones that vanish."""
    forms = {"Q": q.as_tuple(), "H": hessian(q), "L": covariant_l(q), "M": covariant_m(q)}
    return {name: UniPoly(reversed(f)) for name, f in forms.items() if any(f)}


class TestReferenceParity:
    @pytest.mark.parametrize("web", list(WebType), ids=lambda w: w.value)
    def test_stratified_quartics_and_covariants(self, web):
        rng = random.Random(f"parity-{web.value}")
        for _ in range(12):
            for p in quartic_and_covariants(partition_quartic(rng, web)).values():
                assert_same_as_reference(p)

    @pytest.mark.parametrize("web", list(WebType), ids=lambda w: w.value)
    def test_extreme_magnitudes(self, web):
        # Coefficient heights up to about 10^400 in the quartic and 10^1000
        # in M.  Bisecting down from M's Cauchy bound, some 10^900 above
        # its roots, takes seconds per polynomial in either kernel, so the
        # interval checks stop at L.
        rng = random.Random(f"parity-extreme-{web.value}")
        for _ in range(2):
            for name, p in quartic_and_covariants(extreme_quartic(rng, web)).items():
                assert_same_as_reference(p, intervals=name != "M")

    @pytest.mark.parametrize("name", ["X3", "R3", "D", "I3"])
    def test_lie_operator_char_polys(self, name):
        # The product of the diagonal blocks' polynomials.
        p = product(char_poly(lie_operator(ckv_by_name(name))))
        assert p.degree == 35
        assert_same_as_reference(p)


def irreducible_quadratic(rng, digits, real):
    """z^2 - 2 r z + r^2 - s^2 d for rationals r, s of the given size and a
    non-square d: roots r +- s sqrt(d), real when d > 0."""
    r = Fraction(rng.randint(-10**digits, 10**digits), rng.randint(1, 10**digits))
    s = Fraction(rng.randint(1, 10**digits), rng.randint(1, 10**digits))
    d = rng.choice((2, 3, 5, 6, 7)) * (1 if real else -1)
    return up(r * r - s * s * d, -2 * r, 1)


def kernel_sign_at(p, x):
    """sign_at on the kernel's polynomial for p, at the rational x."""
    x = Fraction(x)
    return sign_at(ints(p), x.numerator, x.denominator)


class TestExtremeHeights:
    def test_root_counts_of_constructed_products(self):
        # Distinct rational roots and irreducible quadratics with p/q of up
        # to 120 digits, each to a power up to 3, times 10^(+-400).
        rng = random.Random(400)
        highest = 0
        for _ in range(40):
            digits = rng.randint(1, 120)
            roots = {Fraction(rng.randint(-10**digits, 10**digits), rng.randint(1, 10**digits))
                     for _ in range(rng.randint(0, 3))}
            real = [rng.random() < 0.5 for _ in range(rng.randint(0, 2))]
            quadratics = {repr(q): q for q in (irreducible_quadratic(rng, digits, r) for r in real)}
            p = up(Fraction(10) ** rng.randint(-400, 400) * rng.choice((-1, 1)))
            for factor in [up(-r, 1) for r in roots] + list(quadratics.values()):
                for _ in range(rng.randint(1, 3)):
                    p = p * factor
            highest = max(highest, *(max(abs(c.numerator), c.denominator) for c in p.coeffs))
            count = len(roots) + sum(2 for q in quadratics.values() if q.coeffs[1] ** 2 > 4 * q.coeffs[0])
            assert real_root_count(ints(p)) == len(isolate_real_roots(squarefree_ints(p))) == count
            assert rational_roots(ints(p)) == sorted(roots)
            for x in list(roots) + [Fraction(rng.randint(-10**digits, 10**digits), rng.randint(1, 10**digits))
                                    for _ in range(5)]:
                assert kernel_sign_at(p, x) == ref_sign(p.eval(x))
        assert highest > 10**400

    def test_sign_at_random_points(self):
        rng = random.Random(401)
        for _ in range(200):
            p = UniPoly([Fraction(rng.randint(-10**k, 10**k), rng.randint(1, 10**k))
                         for k in (rng.randint(0, 400) for _ in range(rng.randint(1, 9)))])
            for x in (Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)), rng.randint(-5, 5)):
                assert kernel_sign_at(p, x) == ref_sign(p.eval(x))


class TestPoly:
    def test_arith_and_diff(self):
        x, y, z = (Poly.variable(i, 3) for i in range(3))
        p = (x + y) * (x - y) + z * z
        assert p == x * x - y * y + z * z
        assert p.diff(0) == 2 * x
        assert evaluate(p, (2, 1, 3)) == Fraction(12)

    def test_extend(self):
        x = Poly.variable(0, 3)
        assert x.extend(5).nvars == 5
        assert x.extend(5).coeff((1, 0, 0, 0, 0)) == 1

    @given(st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
                              st.integers(-5, 5)), max_size=6))
    def test_add_commutes(self, items):
        p = Poly.from_terms({e: c for e, c in items[: len(items) // 2]}, 3)
        q = Poly.from_terms({e: c for e, c in items[len(items) // 2:]}, 3)
        assert p + q == q + p
        assert (p - q) + q == p


class RefPoly:
    """Tuple-keyed reference for the packed-key kernel: exponent tuples to
    nonzero Fraction coefficients, every operation spelled out directly."""

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c}

    def _combine(self, other, sign):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + sign * c
        return RefPoly(self.nvars, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return RefPoly(self.nvars, out)

    def __pow__(self, n):
        result = RefPoly(self.nvars, {(0,) * self.nvars: 1})
        for _ in range(n):
            result = result * self
        return result

    def diff(self, var):
        out = {}
        for e, c in self.terms.items():
            if e[var]:
                d = e[:var] + (e[var] - 1,) + e[var + 1:]
                out[d] = out.get(d, 0) + c * e[var]
        return RefPoly(self.nvars, out)

    def extend(self, nvars):
        pad = (0,) * (nvars - self.nvars)
        return RefPoly(nvars, {e + pad: c for e, c in self.terms.items()})

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var):
        return max((e[var] for e in self.terms), default=-1)

    def eval(self, point):
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for value, k in zip(point, e):
                term *= Fraction(value) ** k
            total += term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        names = ["x", "y", "z"] + [f"t{i}" for i in range(self.nvars - 3)]
        parts = []
        for e, c in sorted(self.terms.items()):
            factors = [] if c == 1 and any(e) else [rat_str(c)]
            factors += [name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k]
            parts.append("*".join(factors))
        return " + ".join(parts)


def assert_same(p, ref):
    assert p.nvars == ref.nvars
    assert dict(p.exponent_items()) == ref.terms
    for c in p.terms.values():
        # Nonzero, and integer-valued coefficients are stored as ints.
        assert c != 0 and (type(c) is int or c.denominator != 1)


COEFFS = st.one_of(st.integers(-6, 6),
                   st.fractions(min_value=-6, max_value=6, max_denominator=5))


@st.composite
def poly_pairs(draw, max_exp=3, nvars=None):
    """Two random polynomials in 3 or 9 variables, with their references."""
    nvars = nvars or draw(st.sampled_from([3, 9]))
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    out = []
    for _ in range(2):
        mapping = draw(st.dictionaries(exps, COEFFS, max_size=5))
        out += [Poly.from_terms(mapping, nvars), RefPoly(nvars, mapping)]
    return out


class TestPackedKernel:
    @given(poly_pairs(), st.integers(0, 3))
    def test_ring_operations(self, pair, n):
        p, rp, q, rq = pair
        assert_same(p + q, rp + rq)
        assert_same(p - q, rp - rq)
        assert_same(p * q, rp * rq)
        assert_same(p ** n, rp ** n)
        assert_same(p * Fraction(3, 2), rp * RefPoly(p.nvars, {(0,) * p.nvars: Fraction(3, 2)}))
        assert (p * q == q * p) and ((p - q) + q == p)

    @given(poly_pairs(), st.data())
    def test_calculus_and_queries(self, pair, data):
        p, rp, _, _ = pair
        for var in range(p.nvars):
            assert_same(p.diff(var), rp.diff(var))
            assert degree_in(p, var) == rp.degree_in(var)
        assert_same(p.extend(p.nvars + 2), rp.extend(p.nvars + 2))
        assert p.extend(p.nvars + 2).degree() == p.degree() == rp.degree()
        for exps, c in rp.terms.items():
            assert p.coeff(exps) == c
        assert p.coeff((4,) * p.nvars) == 0
        point = data.draw(st.lists(COEFFS, min_size=p.nvars, max_size=p.nvars))
        assert evaluate(p, point) == rp.eval(point)
        assert p.sorted_terms() == sorted(rp.terms.items())
        assert str(p) == str(rp)

    @given(poly_pairs(), st.data())
    def test_restrict_matches_eval(self, pair, data):
        p = pair[0]
        var = data.draw(st.integers(0, p.nvars - 1))
        value = data.draw(st.one_of(st.sampled_from([0, 1, -1]), COEFFS))
        r = p.restrict(var, value)
        assert r.nvars == p.nvars and degree_in(r, var) <= 0
        # The packed keys are well formed: the same as building from tuples.
        assert r == Poly.from_terms(dict(r.exponent_items()), p.nvars)
        for c in r.terms.values():
            assert c != 0 and (type(c) is int or c.denominator != 1)
        point = data.draw(st.lists(COEFFS, min_size=p.nvars, max_size=p.nvars))
        on_plane = point[:var] + [value] + point[var + 1:]
        assert evaluate(r, point) == evaluate(p, on_plane)

    @given(poly_pairs(max_exp=2**30, nvars=3), poly_pairs(max_exp=2**28, nvars=9))
    def test_wide_exponents(self, small, wide):
        for p, rp, q, rq in (small, wide):
            if rp.degree() + rq.degree() > DEGREE_LIMIT and rp.terms and rq.terms:
                with pytest.raises(ExactMathError, match=str(DEGREE_LIMIT)):
                    p * q
            else:
                assert_same(p * q, rp * rq)
            for var in range(p.nvars):
                assert_same(p.diff(var), rp.diff(var))
                assert degree_in(p, var) == rp.degree_in(var)
            assert_same(p.extend(12), rp.extend(12))
            assert p.degree() == rp.degree()
            assert str(p) == str(rp)


def oracle_mul(p, q):
    """The double loop of ``Poly.__mul__`` before products went through
    ``Poly.dot``: the reference for ``dot``, which ``__mul__`` now calls."""
    a, b = p.terms, q.terms
    if not a or not b:
        return Poly(p.nvars)
    terms: dict = {}
    get = terms.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            terms[e] = get(e, 0) + c1 * c2
    return Poly(p.nvars, {e: c if c.__class__ is int else c.numerator if c.denominator == 1 else c
                          for e, c in terms.items() if c})


def random_poly(rng, nvars, fractions, max_terms=6, max_exp=3):
    """A seeded polynomial with up to max_terms terms, zero one time in six."""
    if rng.random() < 1 / 6:
        return Poly(nvars)
    coeff = (lambda: rand_fraction(rng, -6, 6, 5)) if fractions else (lambda: rng.randint(-6, 6))
    return Poly.from_terms({tuple(rng.randint(0, max_exp) for _ in range(nvars)): coeff()
                            for _ in range(rng.randint(1, max_terms))}, nvars)


class TestDot:
    def test_matches_the_multiplication_oracle(self):
        rng = random.Random(1707)
        for trial in range(400):
            nvars = (3, 9)[trial % 2]
            fractions = trial % 4 >= 2
            products = [(rng.choice((1, -1, 2, -2)), random_poly(rng, nvars, fractions),
                         random_poly(rng, nvars, fractions)) for _ in range(rng.randint(0, 5))]
            expected = Poly(nvars)
            for s, a, b in products:
                expected = expected + oracle_mul(a, b) * s
            got = Poly.dot(nvars, products)
            assert got == expected and got.nvars == nvars
            for c in got.terms.values():
                assert c != 0 and (type(c) is int or c.denominator != 1)
            if len(products) == 1 and products[0][0] == 1:
                assert products[0][1] * products[0][2] == expected

    def test_empty_and_zero_products(self):
        x = Poly.variable(0, 9)
        assert Poly.dot(9, []) == Poly(9) and Poly.dot(9, []).nvars == 9
        assert Poly.dot(9, [(1, x, Poly(9)), (0, x, x), (2, Poly(9), x)]).is_zero
        # Terms that cancel across products leave no zero coefficient behind.
        assert Poly.dot(9, [(1, x, x), (-1, x, x)]).terms == {}

    def test_mismatched_variable_sets_raise(self):
        x3, x9 = Poly.variable(0, 3), Poly.variable(0, 9)
        for products in ([(1, x3, x9)], [(1, x9, x3)], [(1, x9, x9), (1, x3, x3)]):
            with pytest.raises(ExactMathError, match="different variable sets"):
                Poly.dot(9, products)

    def test_product_past_the_degree_limit_raises(self):
        x, y = Poly.variable(0, 3), Poly.variable(1, 3)
        top = x ** DEGREE_LIMIT
        assert Poly.dot(3, [(1, top, Poly.const(5, 3))]) == top * 5
        with pytest.raises(ExactMathError, match="degree limit 4294967295"):
            Poly.dot(3, [(1, x, y), (-1, top, y)])


class TestDegreeLimit:
    def test_limit_is_accepted(self):
        x = Poly.variable(0, 3)
        top = x ** DEGREE_LIMIT
        assert DEGREE_LIMIT == 2**32 - 1
        assert top.degree() == degree_in(top, 0) == DEGREE_LIMIT
        assert top.diff(0).coeff((DEGREE_LIMIT - 1, 0, 0)) == DEGREE_LIMIT
        mixed = Poly.from_terms({(DEGREE_LIMIT - 7, 0, 7): 1}, 3)
        assert mixed.degree() == DEGREE_LIMIT and degree_in(mixed, 2) == 7
        assert degree_in((Poly.variable(8, 9) ** DEGREE_LIMIT).extend(12), 8) == DEGREE_LIMIT

    def test_product_past_the_limit_raises(self):
        x, y = Poly.variable(0, 3), Poly.variable(1, 3)
        with pytest.raises(ExactMathError, match="degree limit 4294967295"):
            x ** DEGREE_LIMIT * y
        with pytest.raises(ExactMathError, match="degree limit 4294967295"):
            x ** (DEGREE_LIMIT + 1)
        with pytest.raises(ExactMathError, match="degree limit 4294967295"):
            Poly.from_terms({(2**31, 0, 0): 1}, 3) * Poly.from_terms({(0, 0, 2**31): 1}, 3)

    @pytest.mark.parametrize("exps", [(-1, 0, 0), (0, 2, -1), (DEGREE_LIMIT + 1, 0, 0),
                                      (2**31, 2**31, 0), (1, 0), (1, 0, 0, 0)])
    def test_from_terms_rejects_bad_exponents(self, exps):
        with pytest.raises(ExactMathError):
            Poly.from_terms({exps: 1}, 3)


class TestRationalFunction:
    def test_cross_multiplication_equality(self):
        x = Poly.variable(0, 3)
        one = Poly.const(1, 3)
        a = RationalFunction(x * x - one, x - one)
        b = RationalFunction((x + one) * (x - one) * (x + one), (x - one) * (x + one))
        assert a == b

    def test_derivative_quotient_rule(self):
        x = Poly.variable(0, 3)
        f = RationalFunction(Poly.const(1, 3), x)
        df = f.diff(0)
        assert df == RationalFunction(Poly.const(-1, 3), x * x)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ExactMathError):
            RationalFunction(Poly.const(1, 3), Poly.zero(3))
