"""Exact arithmetic kernel: rationals, sparse multivariate polynomials,
rational functions, and a univariate kernel with real-root machinery.

Every classification decision downstream is a sign or vanishing test, so
everything here is exact.  Coefficients are Python ints or
``fractions.Fraction``; integer-valued coefficients are stored as ints
because plain int arithmetic is much faster than Fraction arithmetic.
Multivariate monomials are keyed by packed exponent ints, which limits
total degrees to 2^32 - 1.

A univariate polynomial is a primitive integer coefficient list, low degree
first (``int_cleared`` clears rational coefficients to one).  The kernel
(``squarefree_decomposition``, ``real_root_count``, ``isolate_real_roots``,
``refine_root``, ``rational_roots`` and ``sign_at``) takes and gives those
lists.  Gcds and Yun's square-free decomposition use primitive
pseudo-remainder sequences and exact integer quotients by primitive
divisors (Gauss's lemma); Sturm sequences use a sign-keeping primitive PRS
(Collins 1967; Brown and Traub 1971); a sign at p/q is the sign of
q^n P(p/q), by homogeneous integer Horner.  Real roots are counted by the
Sturm sequence of the polynomial itself and isolated by bisecting a
square-free polynomial at plain midpoints, in half-open intervals (lo, hi],
which quadratic interval refinement narrows to bisection's own answers.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import floor, gcd, isqrt, lcm
from typing import Iterable, Sequence


class ExactMathError(ValueError):
    """Domain error raised by the exact-arithmetic layer."""


def rat(value: int | str | Fraction) -> Fraction:
    """Parse a rational from an int, Fraction, or a string "p/q" / "p"."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactMathError(f"not a rational: {value!r}") from exc
    raise ExactMathError(f"cannot convert {type(value).__name__} to rational")


def rat_str(value: int | Fraction) -> str:
    """Format a rational as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return _int_str(value.numerator)
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def _int_str(n: int) -> str:
    """str(n) for an int of any size: Python refuses str() beyond a digit
    limit (at least 640 digits, 4300 by default), so a longer int is split
    at a power of ten and written in halves."""
    if n.bit_length() < 2000:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    half = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10 ** half)
    return _int_str(high) + _int_str(low).zfill(half)


def _norm(c):
    # Keep integer-valued coefficients as ints (fast path).  A class test,
    # because isinstance against Fraction goes through ABCMeta.
    if c.__class__ is Fraction and c.denominator == 1:
        return c.numerator
    return c


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials

# A monomial is stored as one int key: the exponent of variable i sits in
# bits [32 i, 32 i + 32) and the total degree above the nvars variable
# fields.  Multiplying monomials is then one int addition, and comparing keys
# compares total degrees first.  Every exponent is at most the total degree,
# so keeping the total degree within DEGREE_LIMIT keeps every field from
# carrying into the next one (Monagan & Pearce, CASC 2007).
_BITS = 32
_MASK = (1 << _BITS) - 1
DEGREE_LIMIT = _MASK


def _pack(exps: Sequence[int], nvars: int) -> int:
    if len(exps) != nvars:
        raise ExactMathError(f"exponent vector {tuple(exps)} does not have {nvars} entries")
    if min(exps, default=0) < 0:
        raise ExactMathError(f"negative exponent in {tuple(exps)}")
    key = sum(exps)
    if key > DEGREE_LIMIT:
        raise ExactMathError(f"total degree {key} exceeds the degree limit {DEGREE_LIMIT} = 2^32 - 1")
    for k in reversed(exps):
        key = key << _BITS | k
    return key


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> (_BITS * i)) & _MASK for i in range(nvars))


class Poly:
    """Sparse polynomial over the rationals in a fixed number of variables.

    ``terms`` maps packed exponent keys (see ``_pack``) to nonzero
    coefficients; ``exponent_items`` gives them back as exponent tuples.
    Total degrees are limited to DEGREE_LIMIT = 2^32 - 1, and a product past
    it raises.  Variables 0, 1, 2 are the Cartesian coordinates x, y, z
    throughout the package; additional variables act as inert symbolic
    parameters.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls, nvars: int = 3) -> Poly:
        return cls(nvars)

    @classmethod
    def const(cls, value, nvars: int = 3) -> Poly:
        value = _norm(Fraction(value) if not isinstance(value, (int, Fraction)) else value)
        if value == 0:
            return cls(nvars)
        return cls(nvars, {0: value})

    @classmethod
    def variable(cls, index: int, nvars: int = 3) -> Poly:
        if not 0 <= index < nvars:
            raise ExactMathError(f"variable index {index} out of range for {nvars} variables")
        return cls(nvars, {1 << (_BITS * index) | 1 << (_BITS * nvars): 1})

    @classmethod
    def from_terms(cls, mapping: dict, nvars: int = 3) -> Poly:
        """Build from a mapping of exponent tuples to coefficients."""
        terms = {}
        for exps, coeff in mapping.items():
            coeff = _norm(coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff))
            if coeff != 0:
                terms[_pack(exps, nvars)] = coeff
        return cls(nvars, terms)

    def exponent_items(self) -> Iterable[tuple[tuple[int, ...], int | Fraction]]:
        """(exponent tuple, coefficient) pairs, in no particular order."""
        nvars = self.nvars
        return ((_unpack(key, nvars), c) for key, c in self.terms.items())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other, self.nvars)
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def _check(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise ExactMathError("polynomials live in different variable sets")

    def _shift(self, var: int) -> int:
        if not 0 <= var < self.nvars:
            raise ExactMathError(f"variable index {var} out of range for {self.nvars} variables")
        return _BITS * var

    def _combine(self, other, op) -> Poly:
        """self op other for op = operator.add or operator.sub, on a copy of
        self's term table."""
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other, self.nvars)
        self._check(other)
        terms = dict(self.terms)
        get = terms.get
        for key, coeff in other.terms.items():
            new = op(get(key, 0), coeff)
            if not new:
                del terms[key]
            else:
                terms[key] = new if new.__class__ is int else _norm(new)
        return Poly(self.nvars, terms)

    def __add__(self, other) -> Poly:
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> Poly:
        return self._combine(other, operator.sub)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _norm(other)
            if other == 0:
                return Poly(self.nvars)
            return Poly(self.nvars, {e: _norm(c * other) for e, c in self.terms.items()})
        return Poly.dot(self.nvars, [(1, self, other)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other: a Poly when other is a nonzero constant, and a
        RationalFunction when other is a nonconstant Poly or a
        RationalFunction."""
        if isinstance(other, RationalFunction):
            return RationalFunction(self) / other
        if isinstance(other, Poly):
            self._check(other)
            if other.degree() > 0:
                return RationalFunction(self, other)
            other = other.terms.get(0, 0)
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ExactMathError("division by zero")
        return self * (1 / Fraction(other))

    @staticmethod
    def dot(nvars: int, products: Iterable[tuple]) -> Poly:
        """The sum of s a b over the (s, a, b) triples of ``products``, with
        s a rational and a, b polynomials in nvars variables, accumulated into
        one term table: no intermediate product or partial sum is built."""
        shift = _BITS * nvars
        terms: dict = {}
        get = terms.get
        for s, a, b in products:
            if a.nvars != nvars or b.nvars != nvars:
                raise ExactMathError("polynomials live in different variable sets")
            ta, tb = a.terms, b.terms
            if not ta or not tb or not s:
                continue
            # A constant factor leaves the other's degree, which every
            # constructor keeps within DEGREE_LIMIT, so only a product of
            # two nonconstant factors is checked.
            if not (len(ta) == 1 and 0 in ta or len(tb) == 1 and 0 in tb):
                degree = (max(ta) >> shift) + (max(tb) >> shift)
                if degree > DEGREE_LIMIT:
                    raise ExactMathError(f"product of total degree {degree} exceeds the degree "
                                         f"limit {DEGREE_LIMIT} = 2^32 - 1")
            for e1, c1 in ta.items():
                if s != 1:
                    c1 = c1 * s
                for e2, c2 in tb.items():
                    e = e1 + e2
                    terms[e] = get(e, 0) + c1 * c2
        return Poly(nvars, {e: c if c.__class__ is int else _norm(c) for e, c in terms.items() if c})

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ExactMathError("negative polynomial power")
        result = Poly.const(1, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, var: int) -> Poly:
        # Distinct monomials keep distinct derivatives, so nothing accumulates.
        shift = self._shift(var)
        unit = 1 << shift | 1 << (_BITS * self.nvars)
        terms = {}
        for key, coeff in self.terms.items():
            k = (key >> shift) & _MASK
            if k:
                terms[key - unit] = _norm(coeff * k)
        return Poly(self.nvars, terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.terms) >> (_BITS * self.nvars)

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.terms.get(_pack(exps, self.nvars), 0))

    def restrict(self, var: int, value) -> Poly:
        """Substitute the constant ``value`` for variable ``var``; the result
        keeps the same variable set, with ``var`` no longer occurring."""
        shift = self._shift(var)
        value = _norm(rat(value))
        deg_shift = _BITS * self.nvars
        terms: dict = {}
        get = terms.get
        for key, coeff in self.terms.items():
            k = (key >> shift) & _MASK
            if k:
                if not value:
                    continue
                key -= k << shift | k << deg_shift
                coeff = coeff * value ** k
            terms[key] = get(key, 0) + coeff
        return Poly(self.nvars, {e: _norm(c) for e, c in terms.items() if c})

    def extend(self, nvars: int) -> Poly:
        """Embed into a larger variable set (new variables appended)."""
        if nvars < self.nvars:
            raise ExactMathError("cannot shrink variable set")
        if nvars == self.nvars:
            return self
        old = _BITS * self.nvars
        low = (1 << old) - 1
        up = _BITS * (nvars - self.nvars)
        return Poly(nvars, {(e & low) | (e & ~low) << up: c for e, c in self.terms.items()})

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        coeffs = self.terms.values()
        return Fraction(gcd(*(c.numerator for c in coeffs)), lcm(*(c.denominator for c in coeffs)))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms as (exponent tuple, coefficient), lexicographic in the tuples."""
        return sorted(self.exponent_items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = ["x", "y", "z"] + [f"t{i}" for i in range(max(0, self.nvars - 3))]
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [] if coeff == 1 and any(exps) else [rat_str(coeff)]
            for name, k in zip(names, exps):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# The univariate kernel over the integers

# A polynomial is a list of ints with no trailing zero; [] is the zero
# polynomial.  Remainders are pseudo-remainders and quotients are exact, so
# no rational is divided until an interval end or a root is handed back.


def int_cleared(coeffs: Sequence) -> list[int]:
    """The primitive integer polynomial c p with c > 0 of rational (int or
    Fraction) coefficients, low degree first, with trailing zeros dropped:
    it has the roots and the signs of p."""
    den = lcm(*(c.denominator for c in coeffs))
    a = [c.numerator * (den // c.denominator) for c in coeffs]
    while a and not a[-1]:
        a.pop()
    return _primitive(a)


def _primitive(a: list[int]) -> list[int]:
    """a divided by its positive content."""
    g = gcd(*a)
    return a if g <= 1 else [c // g for c in a]


def _positive(a: list[int]) -> list[int]:
    return a if a[-1] > 0 else [-c for c in a]


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    out = [x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
    while out and not out[-1]:
        out.pop()
    return out


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a by a nonzero b.
    Each step multiplies a by |lc b| / g and subtracts a multiple of b that
    cancels the leading term, g being the gcd of the two leading
    coefficients; the multiplier is positive, so every sign is kept."""
    n = len(b) - 1
    lead = b[-1]
    while len(a) > n:
        top = a[-1]
        if not top:
            a = a[:-1]
            continue
        g = gcd(top, lead)
        s, t = abs(lead) // g, top // g if lead > 0 else -top // g
        k = len(a) - 1 - n
        if s == 1:
            a = a[:k] + [x - t * y for x, y in zip(a[k:-1], b)]
        else:
            a = [s * x for x in a[:k]] + [s * x - t * y for x, y in zip(a[k:-1], b)]
    while a and not a[-1]:
        a = a[:-1]
    return a


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b, for a primitive b that divides a over the rationals: the
    quotient has integer coefficients by Gauss's lemma."""
    a = list(a)
    n = len(b) - 1
    lead = b[-1]
    q = [0] * (len(a) - n)
    for k in range(len(a) - 1 - n, -1, -1):
        c = a[k + n] // lead
        if c:
            q[k] = c
            a[k:k + n] = [x - c * y for x, y in zip(a[k:k + n], b)]
    return q


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd with a positive leading coefficient, by the
    primitive pseudo-remainder sequence; a and b are not both zero."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    return _positive(_primitive(a))


def _sturm(p: list[int]) -> list[list[int]]:
    """The Sturm sequence of p up to positive factors: p, p', then each
    negated pseudo-remainder divided by its positive content.  It is a
    pseudo-remainder sequence of p and p', so it ends at gcd(p, p') up to a
    nonzero constant."""
    seq = [p]
    r = _primitive(_derivative(p))
    while r:
        seq.append(r)
        r = _primitive([-c for c in _prem(seq[-2], r)])
    return seq


def sign_at(a: list[int], num: int, den: int) -> int:
    """The sign of a at num/den with den > 0: the sign of the integer
    den^n a(num/den), by homogeneous Horner."""
    coeffs = reversed(a)
    value, power = next(coeffs, 0), 1
    for c in coeffs:
        power *= den
        value = value * num + c * power
    return (value > 0) - (value < 0)


def _variations(values: Iterable[int]) -> int:
    """The sign changes along a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations_at(seq: list[list[int]], num: int, den: int) -> int:
    return _variations(sign_at(a, num, den) for a in seq)


def _root_count(seq: list[list[int]]) -> int:
    """V(-infinity) - V(infinity) of a Sturm sequence; at -infinity a
    member of odd degree, that is of even length, flips."""
    return _variations(a[-1] if len(a) % 2 else -a[-1] for a in seq) - _variations(a[-1] for a in seq)


def _check_nonzero(a: list[int], what: str) -> None:
    if not a:
        raise ExactMathError(f"{what} of the zero polynomial")


def real_root_count(a: list[int]) -> int:
    """Number of distinct real roots of a nonzero a, by the Sturm sequence
    of a itself.

    The sequence ends at g = gcd(a, a'), and dividing every member by g
    changes no sign variation at either infinity, so a repeated root is
    counted once.
    """
    _check_nonzero(a, "root count")
    return _root_count(_sturm(a))


def squarefree_decomposition(p: list[int]) -> list[tuple[list[int], int, int]]:
    """(factor, multiplicity, real root count) triples of a nonzero p: the
    factors primitive, square-free, pairwise coprime and with positive
    leading coefficients, their product p up to a constant (none for a
    constant p).

    The Sturm sequence of p ends at gcd(p, p') up to a constant.  If that
    is constant, p is square-free, and its count is read off the same
    sequence.  Otherwise Yun's algorithm continues from the gcd: b and
    c = d + b' are always divided by the same primitive polynomial, exactly,
    so they stay integral and in step.
    """
    _check_nonzero(p, "square-free decomposition")
    if len(p) == 1:
        return []
    p = _primitive(p)
    seq = _sturm(p)
    if len(seq[-1]) == 1:
        return [(_positive(p), 1, _root_count(seq))]
    dp = _derivative(p)
    g = _positive(seq[-1])
    b = _quotient(p, g)
    d = _sub(_quotient(dp, g), _derivative(b))
    factors = []
    mult = 1
    while len(b) > 1:
        a = _gcd(b, d)
        if len(a) > 1:
            factors.append((a, mult, real_root_count(a)))
        b = _quotient(b, a)
        d = _sub(_quotient(d, a), _derivative(b))
        mult += 1
    return factors


# Bisection keeps both ends of an interval as integers over one positive
# denominator, doubled at each midpoint, so no step reduces a Fraction.


def isolate_real_roots(sf: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi], lo < hi, one for each real root of a
    nonzero square-free sf, increasing and disjoint.  A root may sit at hi,
    and lo may be the root of the interval below.

    For square-free sf, V(a) = V(a+) at a root a, so V(lo) - V(hi) counts
    the roots in (lo, hi] even when lo or hi is a root.  The bisection tree
    can be thousands of levels deep when the Cauchy bound is far above the
    root separation, so it is walked with a stack, lower half first, rather
    than by recursion.
    """
    _check_nonzero(sf, "root isolation")
    seq = _sturm(sf)
    out: list[tuple[Fraction, Fraction]] = []
    # Cauchy bound: every real root lies strictly inside (-bound, bound).
    bound = 1 + Fraction(max((abs(c) for c in sf[:-1]), default=0), abs(sf[-1]))
    b, den = bound.numerator, bound.denominator
    stack = [(-b, b, den, _variations_at(seq, -b, den), _variations_at(seq, b, den))]
    while stack:
        lo, hi, den, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            out.append((Fraction(lo, den), Fraction(hi, den)))
        elif vlo > vhi:
            mid, den = lo + hi, 2 * den
            vmid = _variations_at(seq, mid, den)
            stack += [(mid, 2 * hi, den, vmid, vhi), (2 * lo, mid, den, vlo, vmid)]
    return out


def refine_root(a: list[int], lo: Fraction, hi: Fraction,
                max_width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval (lo, hi] of a square-free a to what
    bisection returns.  Bisection stops at the first level m where the
    width (hi - lo) / 2^m is at most max_width, so the answer is (r, r)
    when the root r is hi or a point of the level-m grid
    lo + k (hi - lo) / 2^m, and else the level-m cell (lo', hi'] that
    holds r.

    That cell is found by quadratic interval refinement on the grid
    (Abbott 2006).  The secant through the values at the cell's ends
    guesses the root, and the signs at the guess and at the point 1/n of
    the cell beyond it, on the root's side, narrow the cell; n squares
    when the root lies between those two points and falls to its square
    root, not below 2, when it does not.  The value at lo only steers the
    secant: lo may be the root of a neighbouring interval.
    """
    den = lcm(lo.denominator, hi.denominator)
    low, high = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    width, span = high - low, max_width.numerator * den
    m = max(0, (width * max_width.denominator).bit_length() - span.bit_length())
    if width * max_width.denominator > span << m:
        m += 1
    # Grid point k is x / den with x = base + k width.  Every point has that
    # den, so den^n a(x / den) is the sum of a_i den^(n-i) x^i.
    base, den = low << m, den << m
    scaled, power = [], 1
    for c in reversed(a):
        scaled.append(c * power)
        power *= den

    def value(k: int) -> int:
        x, v = base + k * width, 0
        for c in scaled:
            v = v * x + c
        return v

    ka, kb = 0, 1 << m
    fa, fb = value(ka), value(kb)
    if fb == 0:
        return hi, hi
    above = fb > 0  # the sign above the root
    n = 4
    while kb - ka > 1:
        step = (kb - ka) // n or 1
        k = ka + (kb - ka) * fa // (fa - fb)
        for _ in range(2):
            if ka < k < kb:
                f = value(k)
                if f == 0:
                    root = Fraction(base + k * width, den)
                    return root, root
                if (f > 0) == above:
                    kb, fb = k, f
                else:
                    ka, fa = k, f
            k = ka + step if k == ka else kb - step
        n = n * n if kb - ka <= step else max(2, isqrt(n))
    return Fraction(base + ka * width, den), Fraction(base + kb * width, den)


def rational_roots(a: list[int]) -> list[Fraction]:
    """The distinct rational roots of a nonzero a, increasing, each verified
    exactly.

    The square-free part s = a / gcd(a, a') is primitive, so every rational
    root is k / c for an integer k, with c = |lc s|.  Each isolating
    interval (lo, hi] is narrowed below 1 / (2 c), which leaves one
    candidate k / c in it to test, unless the narrowing hit the root
    exactly; lo itself may be the root below, so it is not a candidate.
    """
    _check_nonzero(a, "rational roots")
    a = _primitive(a)
    sf = _quotient(a, _gcd(a, _derivative(a)))
    c = abs(sf[-1])
    roots = []
    for lo, hi in isolate_real_roots(sf):
        lo, hi = refine_root(sf, lo, hi, Fraction(1, 2 * c))
        if lo == hi:
            roots.append(lo)
            continue
        k = floor(hi * c)
        if lo < Fraction(k, c) and sign_at(sf, k, c) == 0:
            roots.append(Fraction(k, c))
    return roots


# ---------------------------------------------------------------------------
# Rational functions


class RationalFunction:
    """Quotient of two multivariate polynomials.

    Reduced by content only (no multivariate gcd); equality is tested by
    cross-multiplication, so representations need not be canonical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(1, num.nvars)
        if den.is_zero:
            raise ExactMathError("rational function with zero denominator")
        if num.nvars != den.nvars:
            raise ExactMathError("numerator and denominator variable sets differ")
        if num.is_zero:
            den = Poly.const(1, num.nvars)
        else:
            c = den.content()
            lead = max(den.exponent_items())[1]
            if lead < 0:
                c = -c
            if c != 1:
                inv = 1 / Fraction(c)
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def const(cls, value, nvars: int = 3) -> RationalFunction:
        return cls(Poly.const(value, nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other, self.nvars)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFunction(other if isinstance(other, Poly) else Poly.const(other, self.nvars))
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFunction(other if isinstance(other, Poly) else Poly.const(other, self.nvars))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num * other, self.den)
        if isinstance(other, Poly):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ExactMathError("division by zero")
            return RationalFunction(self.num, self.den * other)
        if isinstance(other, Poly):
            other = RationalFunction(other)
        if other.num.is_zero:
            raise ExactMathError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RationalFunction.const(other, self.nvars) / self

    def __pow__(self, n: int) -> RationalFunction:
        if n < 0:
            return RationalFunction.const(1, self.nvars) / (self ** (-n))
        return RationalFunction(self.num ** n, self.den ** n)

    def diff(self, var: int) -> RationalFunction:
        return RationalFunction(
            self.num.diff(var) * self.den - self.num * self.den.diff(var),
            self.den * self.den,
        )

    def __str__(self) -> str:
        if self.den == Poly.const(1, self.nvars):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__
