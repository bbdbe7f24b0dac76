import random
from fractions import Fraction

import pytest

from rotweb import linalg, separability
from rotweb.ckt_core import (CktError, OneForm, SymTensorField, ckv_by_name, metric, symmetric_product,
                             verify_ckt)
from rotweb.exactmath import Poly, RationalFunction, rat
from rotweb.expr import ExprError
from rotweb.quartic_class import WebType
from rotweb.rotational import RotParams, assemble_rotational
from rotweb.separability import (Potential, _curl_images, _curl_numerators,
                                 _form_numerators, _potential_parts, classify_potential,
                                 is_closed, parse_potential, solve_compatible)

from conftest import evaluate, oracle_contraction, rand_fraction, symbolic_rotational
from test_ckt_core import killing_obstruction
from test_linalg import dense_nullspace

EXAMPLE_POTENTIAL = "-4/((x^2+y^2+z^2-1)^2 + 4*z^2)"

# (numerator, denominator) pairs with non-integer, non-primitive coefficients
# in both, one with a negative leading denominator coefficient.  The last is
# the worked example moved along the axis by 1/2: at E = 0 its compatible
# family has a member with every parameter but C33 nonzero.
CLEARED = [("3/7*x^2+1/2", "-2/3*z^2-5/4"), ("9/4*z", "x^2+y^2+1/9"),
           ("3/7", "x^2+y^2+z^2+1/2"), ("-5/6*x*z+2/9", "1/4*x^2-3/8*y*z"),
           ("-4/3", "(x^2+y^2+(z-1/2)^2-1)^2+4*(z-1/2)^2")]
CLEARED_POTENTIALS = [f"({num})/({den})" for num, den in CLEARED]


def raw_quotient(num: Poly, den: Poly) -> RationalFunction:
    """num/den as given, without the content normalization of
    RationalFunction."""
    v = object.__new__(RationalFunction)
    v.num, v.den = num, den
    return v


def one_form(*polys):
    return OneForm(tuple(RationalFunction(p) for p in polys))


def compatibility_form(p: RotParams, pot: Potential) -> OneForm:
    """The compatibility one-form (E - V) k_flat - K dV for the rotational
    tensor of p; its exact closedness characterizes fixed-energy separation.

    The relative weight of the two terms is pinned mechanically: with k
    normalized by d_(i K_jk) = k_(i g_jk), this combination (and no other
    rational weighting) makes the closedness condition reproduce the known
    two-parameter compatible family of the benchmark potential
    -4 c^2 / ((x^2+y^2+z^2-c^2)^2 + 4 c^2 z^2) at every scale c, and it
    reduces to d(K dV) = 0 when the class is Killing-representable with a
    constant E - V.  Built tensor by tensor, it is the oracle of the
    solver's linearity certificate.
    """
    parts = _potential_parts(pot.v, pot.energy)
    d = parts[3]
    den = Poly.dot(d.nvars, [(rat(pot.energy).denominator, d, d)])
    return OneForm(tuple(RationalFunction(num, den) for num in member_numerators(p, parts)))


def member_numerators(p: RotParams, parts) -> list[Poly]:
    """The numerators P_i over D^2 of b omega for the tensor of p, given
    the potential's parts; the tensor must pass the conformal Killing check,
    which gives its vector k."""
    k = assemble_rotational(p)
    holds, kvec = verify_ckt(k)
    if not holds:
        raise CktError("rotational tensor failed the conformal Killing check")
    grad, weight, _, _ = parts
    return _form_numerators(k, grad, kvec, weight)


def poincare_potential(omega: OneForm) -> Poly:
    """For a closed one-form with polynomial components, an exact polynomial
    potential with d(potential) = omega (radial homotopy integral)."""
    assert all(c.den == Poly.const(1, 3) for c in omega.components) and is_closed(omega)
    x = [Poly.variable(i, 3) for i in range(3)]
    inner = Poly.dot(3, [(1, x[i], omega[i].num) for i in range(3)])
    return Poly.from_terms({exps: Fraction(coeff, sum(exps))
                            for exps, coeff in inner.exponent_items()}, 3)


class TestParsePotential:
    def test_round_trip_value(self):
        v = parse_potential("(x^2 + y^2 - 1/2) / (z + 2)")
        assert evaluate(v, (1, 1, 0)) == Fraction(3, 4)

    def test_rejects_unknown_symbols(self):
        with pytest.raises(ExprError):
            parse_potential("x + w")

    def test_rejects_malformed(self):
        with pytest.raises(ExprError):
            parse_potential("x +")


class TestCompatibilityForm:
    def test_zero_potential_gives_k_flat(self, rng):
        p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
        pot = Potential.from_expression("0", 1)
        omega = compatibility_form(p, pot)
        _, k = verify_ckt(assemble_rotational(p))
        for i in range(3):
            assert omega[i] == RationalFunction(k[i])

    @pytest.mark.parametrize("text", CLEARED_POTENTIALS + [EXAMPLE_POTENTIAL])
    def test_matches_the_rational_function_route(self, rng, text):
        pot = Potential.from_expression(text, Fraction(-5, 3))
        p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
        k = assemble_rotational(p)
        _, kvec = verify_ckt(k)
        n, d = pot.v.num, pot.v.den
        dv = [n.diff(j) * d - n * d.diff(j) for j in range(3)]   # over d^2
        omega = compatibility_form(p, pot)
        for i in range(3):
            k_dv = RationalFunction(sum((dv[j] * k[i][j] for j in range(3)), Poly.zero(3)), d * d)
            assert omega[i] == (RationalFunction.const(pot.energy) - pot.v) * kvec[i] - k_dv

    def test_rotationally_symmetric_potential_annihilated_by_r3_square(self):
        pot = Potential.from_expression("x^2 + y^2", 5)
        omega = compatibility_form(RotParams.make(c33=1), pot)
        # k vanishes for R3.R3 and K dV is killed by rotational invariance.
        assert omega.is_zero


class TestIsClosed:
    def test_exact_form(self):
        x, y, z = (Poly.variable(i, 3) for i in range(3))
        assert is_closed(one_form(2 * x, 2 * y, 2 * z))

    def test_curl_detected(self):
        x, y, _ = (Poly.variable(i, 3) for i in range(3))
        assert not is_closed(one_form(-y, x, Poly.zero(3)))

    def test_unshared_denominators(self):
        # d(1/(1 + x^2) + y/(1 + z^2)), with a denominator per component.
        x, y, z = (Poly.variable(i, 3) for i in range(3))
        p, q = 1 + x * x, 1 + z * z
        omega = OneForm((RationalFunction(-2 * x, p * p), RationalFunction(Poly.const(1, 3), q),
                         RationalFunction(-2 * y * z, q * q)))
        assert is_closed(omega)
        assert not is_closed(OneForm((omega[0], omega[1] * 2, omega[2])))

    def test_poincare_potential_inverts_gradient(self):
        x, y, z = (Poly.variable(i, 3) for i in range(3))
        phi = x * x * y + 3 * z
        omega = one_form(phi.diff(0), phi.diff(1), phi.diff(2))
        assert poincare_potential(omega) == phi


class TestSolveCompatible:
    def test_worked_example_family(self):
        pot = Potential.from_expression(EXAMPLE_POTENTIAL, 0)
        sol = solve_compatible(pot)
        assert sol.dimension == 2
        rows = [list(p.as_tuple()) for p in sol.basis]
        # The span is {(H/2, 0, H, C33, 0, H/2)}: check both distinguished members.
        from rotweb import linalg
        for member in ([Fraction(1, 2), 0, 1, 0, 0, Fraction(1, 2)], [0, 0, 0, 1, 0, 0]):
            assert linalg.rank(rows) == linalg.rank(rows + [member])
        assert sol.c33_free()

    def test_second_scale_constant(self):
        pot = Potential.from_expression("-16/((x^2+y^2+z^2-4)^2 + 16*z^2)", 0)
        sol = solve_compatible(pot)
        assert sol.dimension == 2
        from rotweb import linalg
        rows = [list(p.as_tuple()) for p in sol.basis]
        member = [Fraction(1, 8), 0, 1, 0, 0, 2]  # (H/(2c^2), 0, H, 0, 0, c^2 H/2) at c = 2
        assert linalg.rank(rows) == linalg.rank(rows + [member])

    def test_zero_potential_unit_energy_gives_killing_subfamily(self):
        sol = solve_compatible(Potential.from_expression("0", 1))
        assert sol.dimension == 4
        for p in sol.basis:
            assert p.m33 == 0 and p.l3 == 0

    def test_constant_potential_matches_zero_potential(self):
        a = solve_compatible(Potential.from_expression("0", 1))
        b = solve_compatible(Potential.from_expression("3", 1))
        assert {p.as_tuple() for p in a.basis} == {p.as_tuple() for p in b.basis}

    def test_null_energy_zero_potential_underdetermined(self):
        sol = solve_compatible(Potential.from_expression("0", 0))
        assert sol.dimension == 6

    def test_members_are_closed(self):
        # Through the public route, independent of the solver's self-check.
        for text, energy in [("x^2 + y^2 + z^2", 0)] + _seeded_potentials():
            pot = Potential.from_expression(text, energy)
            sol = solve_compatible(pot)
            assert sol.basis
            for p in sol.basis:
                assert is_closed(compatibility_form(p, pot))

    def test_self_check_rejects_a_non_solution(self, monkeypatch):
        # M33 alone is not compatible with the worked example.
        monkeypatch.setattr(linalg, "vanishing_combinations", lambda images: [linalg.Numerators(1, ((0, 1),))])
        with pytest.raises(CktError, match="solver self-check failed"):
            solve_compatible(Potential.from_expression(EXAMPLE_POTENTIAL, 0))

    def test_invariant_under_representation_rescaling(self):
        plain = solve_compatible(Potential.from_expression(EXAMPLE_POTENTIAL, 0))
        rescaled = solve_compatible(Potential.from_expression(
            f"(-4*(1+x^2))/(((x^2+y^2+z^2-1)^2 + 4*z^2)*(1+x^2))", 0))
        from rotweb import linalg
        rows_a = [list(p.as_tuple()) for p in plain.basis]
        rows_b = [list(p.as_tuple()) for p in rescaled.basis]
        assert linalg.rank(rows_a) == linalg.rank(rows_b) == linalg.rank(rows_a + rows_b)


def reference_solve(pot):
    """The symbolic solver the package used before: the six parameters are
    polynomial variables 3..8 of one 9-variable family, and the parameter
    coefficients of each (component, x y z monomial) form one row.  The
    one-form numerators P_i over d^2 and the curl numerators over d^3 are
    spelled out here, independent of the module's helpers, and the rows are
    solved by the dense Fraction elimination of the linalg tests."""
    nvars = 9
    tensor = symbolic_rotational(nvars)
    n, d = pot.v.num.extend(nvars), pot.v.den.extend(nvars)
    kvec = oracle_contraction(tensor)
    grad = [n.diff(j) * d - n * d.diff(j) for j in range(3)]
    weight = (Poly.const(pot.energy, nvars) * d - n) * d
    form = [weight * kvec[i] - sum((tensor[i][j] * grad[j] for j in range(3)), Poly.zero(nvars))
            for i in range(3)]
    numerators = [d * (form[j].diff(i) - form[i].diff(j))
                  - (form[j] * d.diff(i) - form[i] * d.diff(j)) * 2
                  for i, j in ((0, 1), (0, 2), (1, 2))]
    if all(poly.is_zero for poly in numerators):
        return [tuple(Fraction(int(i == j)) for j in range(6)) for i in range(6)]
    rows: dict = {}
    for idx, poly in enumerate(numerators):
        for exps, coeff in poly.exponent_items():
            params = exps[3:]
            assert sum(params) == 1, "not linear homogeneous in the parameters"
            rows.setdefault((idx, exps[:3]), [Fraction(0)] * 6)[params.index(1)] = Fraction(coeff)
    return [tuple(vec) for vec in dense_nullspace(list(rows.values()), 6)]


def _seeded_potentials():
    """Ten draws each of the scaled worked example, radial, harmonic and
    linear-in-z potentials, each with a seeded rational energy."""
    rng = random.Random(8)
    out = []
    for _ in range(10):
        c2 = Fraction(rng.randint(1, 7), rng.randint(1, 4)) ** 2
        k = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        a, b = (Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(2))
        out += [f"-4*({c2})/((x^2+y^2+z^2-({c2}))^2+4*({c2})*z^2)",
                f"({k})/(x^2+y^2+z^2)", f"({a})*(x^2+y^2)+({b})*z^2", f"({k})*z"]
    return [(text, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for text in out]


EDGE_POTENTIALS = ["0", "3", "x^300", "1/z^2", "x*y/(1+z^2)", "1/x + 1/y", "x^-2",
                   "1/(x^2+y^2+1) + z/(z^2+1)"]
EDGE_ENERGIES = [0, 1, Fraction(-5, 3)]
CLEARED_ENERGIES = [0, Fraction(-5, 3), Fraction(7, 2)]
CERTIFIED = (_seeded_potentials()
             + [(text, energy) for text in CLEARED_POTENTIALS for energy in CLEARED_ENERGIES]
             + [(text, energy) for text in EDGE_POTENTIALS for energy in EDGE_ENERGIES])


class TestLinearCertificate:
    """The solver certifies each solution by its combination of the six
    curl images; the route it replaced builds the member's tensor, checks
    it and takes its curl numerators.  The images are those of the doubled
    unit tensors, so the combination, read on the integer numerators of
    the weights, is 2 den times the route's numerators."""

    @pytest.mark.parametrize("text,energy", CERTIFIED)
    def test_combination_is_twice_the_member_route(self, text, energy):
        pot = Potential.from_expression(text, energy)
        parts = _potential_parts(pot.v, pot.energy)
        _, _, dd, d = parts
        images = _curl_images(parts)
        members = [p.as_tuple() for p in solve_compatible(pot).basis]
        rng = random.Random(f"{text} {energy}")
        vectors = members + [tuple(rand_fraction(rng) for _ in range(6)) for _ in range(20)]
        closed = []
        for vec in vectors:
            route = _curl_numerators(member_numerators(RotParams.make(*vec), parts), d, dd, 2)
            weights = linalg.Numerators.of(vec)
            assert linalg.combination(weights, images) == [2 * weights.den * c for c in route]
            closed.append(not any(route))
        # Members are closed; random vectors are not, unless every one is.
        assert all(closed[:len(members)])
        assert all(closed) == (len(members) == 6)


class TestUnitTensorCheck:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        separability._unit_tensors.cache_clear()
        yield
        separability._unit_tensors.cache_clear()

    def test_failed_check_raises(self, monkeypatch):
        real, calls = separability.verify_ckt, []

        def third_fails(k):
            calls.append(k)
            holds, kvec = real(k)
            return holds and len(calls) != 3, kvec

        monkeypatch.setattr(separability, "verify_ckt", third_fails)
        with pytest.raises(CktError, match="unit tensor 2 fails the conformal Killing check"):
            solve_compatible(Potential.from_expression(EXAMPLE_POTENTIAL, 0))

    def test_vectors_are_the_contraction(self):
        # verify_ckt returns the contraction of the partials it tests, so
        # no second check of the vector is needed.
        for k, kvec in separability._unit_tensors():
            assert list(kvec.components) == oracle_contraction(k)

    def test_checked_once_per_process(self, monkeypatch):
        calls = []
        real = separability.verify_ckt
        monkeypatch.setattr(separability, "verify_ckt", lambda k: calls.append(k) or real(k))
        for text, energy in _seeded_potentials()[:8]:
            solve_compatible(Potential.from_expression(text, energy))
        assert len(calls) == 6


class TestClearedParts:
    @pytest.mark.parametrize("text", CLEARED_POTENTIALS + [EXAMPLE_POTENTIAL, "0", "7/3"])
    @pytest.mark.parametrize("energy", [0, Fraction(-5, 3), Fraction(7, 2)])
    def test_parts_are_b_times_the_rational_parts(self, text, energy):
        v = parse_potential(text)
        for same in (v, raw_quotient(v.num * Fraction(-7, 3), v.den * Fraction(-7, 3))):
            grad, weight, dd, d = _potential_parts(same, energy)
            for poly in grad + [weight, d] + dd:
                assert all(c.__class__ is int for c in poly.terms.values())
            b, d2 = Fraction(energy).denominator, RationalFunction(d * d)
            for j in range(3):
                assert dd[j] == d.diff(j)
                assert RationalFunction(grad[j]) == v.diff(j) * d2 * b
            assert RationalFunction(weight) == (RationalFunction.const(energy) - v) * d2 * b


class TestSolverOracle:
    @pytest.mark.parametrize("text,energy", _seeded_potentials())
    def test_seeded_families(self, text, energy):
        pot = Potential.from_expression(text, energy)
        assert [p.as_tuple() for p in solve_compatible(pot).basis] == reference_solve(pot)

    @pytest.mark.parametrize("text", EDGE_POTENTIALS)
    @pytest.mark.parametrize("energy", EDGE_ENERGIES)
    def test_edge_potentials(self, text, energy):
        pot = Potential.from_expression(text, energy)
        assert [p.as_tuple() for p in solve_compatible(pot).basis] == reference_solve(pot)

    @pytest.mark.parametrize("num,den", CLEARED)
    @pytest.mark.parametrize("energy", CLEARED_ENERGIES)
    def test_cleared_coefficients(self, num, den, energy):
        pot = Potential.from_expression(f"({num})/({den})", energy)
        basis = [p.as_tuple() for p in solve_compatible(pot).basis]
        assert basis == reference_solve(pot)
        # Numerator and denominator both times 7/3, through the parser and as
        # a representation the clearing sees unnormalized.
        scaled = [Potential.from_expression(f"(7/3*({num}))/(7/3*({den}))", energy),
                  Potential(raw_quotient(pot.v.num * Fraction(7, 3), pot.v.den * Fraction(7, 3)),
                            pot.energy)]
        for other in scaled:
            assert [p.as_tuple() for p in solve_compatible(other).basis] == basis


@pytest.mark.parametrize("text,energy", CERTIFIED)
def test_vanishing_combinations_of_the_curl_images(text, energy):
    # compat's basis is the vanishing combinations of the six curl images:
    # as Fractions, the dense Fraction elimination's null space of their
    # coefficient matrix, and the solution basis itself.
    pot = Potential.from_expression(text, energy)
    images = _curl_images(_potential_parts(pot.v, pot.energy))
    keys = sorted({(i, key) for image in images for i, p in enumerate(image) for key in p.terms})
    matrix = [[Fraction(image[i].terms.get(key, 0)) for image in images] for i, key in keys]
    expected = dense_nullspace(matrix, 6)
    assert [vec.dense(6) for vec in linalg.vanishing_combinations(images)] == expected
    assert [list(p.as_tuple()) for p in solve_compatible(pot).basis] == expected


def dkdv_check(k: SymTensorField, v: RationalFunction) -> bool:
    """Killing-tensor compatibility d(K dV) = 0, exact.  Only meaningful for
    tensors whose class contains a Killing tensor; others must go through the
    full compatibility form."""
    if not killing_obstruction(k).is_zero:
        raise CktError("tensor class has no Killing representative; use solve_compatible "
                       "with the full compatibility condition")
    grad, _, dd, d = _potential_parts(v)
    # The numerators over D^2 of -K dV.
    form = [Poly.dot(3, [(-1, k[i][j], grad[j]) for j in range(3)]) for i in range(3)]
    return all(c.is_zero for c in _curl_numerators(form, d, dd, 2))


class TestDkdv:
    def test_rotational_invariance(self):
        v = parse_potential("x^2 + y^2")
        r3 = ckv_by_name("R3")
        assert dkdv_check(symmetric_product(r3, r3), v)

    def test_metric_always_compatible(self):
        v = parse_potential("x^2 * y + z^3")
        assert dkdv_check(metric(3), v)

    def test_non_killing_rejected(self):
        i3 = ckv_by_name("I3")
        with pytest.raises(CktError, match="solve_compatible"):
            dkdv_check(symmetric_product(i3, i3), parse_potential("x"))

    def test_no_simply_separable_system_for_worked_example(self):
        """Killing-representable rotational tensors beyond R3.R3 + metric all
        fail d(K dV) = 0 for the benchmark potential."""
        v = parse_potential(EXAMPLE_POTENTIAL)
        assert dkdv_check(assemble_rotational(RotParams.make(c33=1)), v)
        for params in (RotParams.make(h=1), RotParams.make(d3=1), RotParams.make(a33=1),
                       RotParams.make(h=1, d3=2, a33=-1)):
            assert not dkdv_check(assemble_rotational(params), v)

    def test_reduction_for_constant_shift(self, rng):
        # For Killing-representable tensors and constant E - V, the full
        # compatibility is exactly the Killing-obstruction test.
        pot = Potential.from_expression("2", 5)
        for _ in range(10):
            p = RotParams.make(*(rand_fraction(rng) for _ in range(6)))
            closed = is_closed(compatibility_form(p, pot))
            killing = killing_obstruction(assemble_rotational(p)).is_zero
            assert closed == killing


class TestClassifyPotential:
    def test_worked_example_is_toroidal(self):
        outcome = classify_potential(Potential.from_expression(EXAMPLE_POTENTIAL, 0))
        assert outcome.web_type is WebType.TOROIDAL
        assert outcome.member == RotParams.make(Fraction(1, 2), 0, 1, 0, 0, Fraction(1, 2))
        assert outcome.reason is None

    def test_no_compatible_tensor(self):
        outcome = classify_potential(Potential.from_expression("x*y*z", Fraction(1, 2)))
        assert outcome.solution.dimension == 0
        assert outcome.web_type is None and outcome.member is None
        assert outcome.reason == "no compatible rotational tensor"

    def test_underdetermined_case(self):
        outcome = classify_potential(Potential.from_expression("0", 0))
        assert outcome.web_type is None
        assert "underdetermined" in outcome.reason

    def test_harmonic_potential_fixture(self):
        outcome = classify_potential(Potential.from_expression("x^2+y^2+z^2", 0))
        assert outcome.solution.dimension == 3
        present = {p.as_tuple() for p in outcome.solution.basis}
        assert (0, 0, 1, 0, 0, 0) in {tuple(v) for v in present} or outcome.web_type is not None
        for p, web in outcome.member_types:
            assert web is not None
