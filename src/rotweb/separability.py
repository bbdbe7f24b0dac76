"""Compatibility between rotational conformal Killing tensors and
fixed-energy Hamilton-Jacobi separation: the closedness condition on
(E - V) k_flat - K dV, and an exact linear solver for the compatible
six-parameter subfamily.

The potential is cleared once: V = N/D with N and D integer polynomials
and E = e/b in lowest terms.  Over D^2, the one-form b omega, a nonzero
constant multiple of omega with the same closedness, has integer polynomial
numerators built from the parts b (N_j D - N D_j), (e D - b N) D, D_j and D
(``_potential_parts``).  The solver works with these polynomials in x, y, z
alone: the curl numerators, over D^3, of twice the six unit parameter
vectors' tensors are the columns of a linear system, solved by
``linalg.vanishing_combinations``.

Its self-check is a linearity certificate.  Once per process, the six
doubled unit tensors T_j must pass ``verify_ckt`` (``_unit_tensors``).  The
tensor of parameters x is sum_j x_j T_j / 2, and the conformal Killing
equation and the curl numerators are linear in (K, k), so that tensor is a
conformal Killing tensor and its curl numerators over D^3 are
sum_j x_j images[j] / 2 (``linalg.combination``).  Each solution is
certified by this combination vanishing exactly, which proves what
rebuilding it with ``assemble_rotational`` and ``verify_ckt`` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import linalg
from .ckt_core import CktError, OneForm, SymTensorField, VectorField, verify_ckt
from .exactmath import Poly, RationalFunction, rat
from .expr import eval_expr
from .quartic_class import BinaryQuartic, WebType, classify_by_roots
from .rotational import RotParams, assemble_rotational


@dataclass(frozen=True)
class Potential:
    """A scalar potential V (rational function of x, y, z) with the fixed
    energy value E of the Hamilton-Jacobi equation."""

    v: RationalFunction
    energy: Fraction

    @classmethod
    def from_expression(cls, text: str, energy) -> Potential:
        return cls(parse_potential(text), rat(energy))


def parse_potential(text: str) -> RationalFunction:
    """Parse an expression in x, y, z with rational constants, + - * /,
    parentheses and integer powers into an exact rational function.  It is
    evaluated in ``Poly`` arithmetic up to the first division by a
    nonconstant polynomial, which forms a ``RationalFunction``."""
    env = {name: Poly.variable(i, 3) for i, name in enumerate("xyz")}
    value = eval_expr(text, env, const=lambda c: Poly.const(c, 3))
    return value if isinstance(value, RationalFunction) else RationalFunction(value)


@dataclass(frozen=True)
class ParamSolution:
    """Linear space of compatible rotational parameters, given by a basis
    (the compatibility condition is linear and homogeneous in them)."""

    basis: tuple[RotParams, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def c33_free(self) -> bool:
        # The basis rows are independent, so their rank is the dimension.
        rows = [list(p.as_tuple()) for p in self.basis]
        return bool(rows) and linalg.rank(rows + [[0, 0, 0, 1, 0, 0]]) == self.dimension

    def to_json_dict(self) -> dict:
        return {
            "basis": [p.to_json_dict() for p in self.basis],
            "dimension": self.dimension,
            "c33_free": self.c33_free(),
        }


_PAIRS = ((0, 1), (0, 2), (1, 2))


def _potential_parts(v: RationalFunction, energy=0) -> tuple[list[Poly], Poly, list[Poly], Poly]:
    """The parts of the numerators of b omega over D^2 that depend on V and
    E alone, cleared to integer polynomials: with V = N/D, where N and D are
    v's numerator and denominator times the lcm of their coefficient
    denominators, and E = e/b in lowest terms, the gradient numerators
    b (N_j D - N D_j), the weight (e D - b N) D, the partials D_j and D."""
    energy = rat(energy)
    e, b = energy.numerator, energy.denominator
    scale = lcm(*(c.denominator for poly in (v.num, v.den) for c in poly.terms.values()))
    n, d = v.num * scale, v.den * scale
    dd = [d.diff(j) for j in range(3)]
    grad = [Poly.dot(d.nvars, [(b, n.diff(j), d), (-b, n, dd[j])]) for j in range(3)]
    return grad, Poly.dot(d.nvars, [(e, d, d), (-b, n, d)]), dd, d


def _form_numerators(tensor: SymTensorField, grad: list[Poly], kvec: VectorField,
                     weight: Poly) -> list[Poly]:
    """Numerators P_i over D^2 of b omega for the compatibility one-form
    omega = (E - V) k_flat - K dV, from the potential's parts, which keeps
    the exact arithmetic to polynomials."""
    return [Poly.dot(tensor.nvars, [(1, weight, kvec[i])] + [(-1, a, b) for a, b in zip(tensor[i], grad)])
            for i in range(3)]


def _curl_numerators(p: list[Poly], d: Poly, dd: list[Poly], power: int) -> list[Poly]:
    """Numerators over d^(power + 1) of the components (12, 13, 23) of
    d(omega) for omega_i = p_i / d^power, given the partials dd of d."""
    return [Poly.dot(d.nvars, [(1, d, p[j].diff(i) - p[i].diff(j)), (-power, p[j], dd[i]),
                               (power, p[i], dd[j])])
            for i, j in _PAIRS]


def is_closed(omega: OneForm) -> bool:
    """Exact closedness of a one-form with rational-function components.
    When the nonzero components share one denominator d, the curl
    numerators over d^2 are tested directly."""
    dens = [c.den for c in omega.components if not c.is_zero]
    if dens and all(den == dens[0] for den in dens[1:]):
        d = dens[0]
        nums = _curl_numerators([c.num for c in omega.components], d, [d.diff(i) for i in range(3)], 1)
        return all(num.is_zero for num in nums)
    return all((omega[j].diff(i) - omega[i].diff(j)).is_zero for i, j in _PAIRS)


# ---------------------------------------------------------------------------
# Exact solver


_NPARAMS = 6


@lru_cache(maxsize=None)
def _unit_tensors() -> tuple[tuple[SymTensorField, VectorField], ...]:
    """Twice the tensor of each unit parameter vector, with its vector k;
    the factor 2 makes every coefficient of both an integer.  Each passes
    ``verify_ckt`` here, once per process, which returns the vector as well;
    a failure raises CktError."""
    out = []
    for j in range(_NPARAMS):
        k = assemble_rotational(RotParams.make(*(2 * (i == j) for i in range(_NPARAMS))))
        holds, kvec = verify_ckt(k)
        if not holds:
            raise CktError(f"unit tensor {j} fails the conformal Killing check")
        out.append((k, kvec))
    return tuple(out)


def _curl_images(parts) -> list[list[Poly]]:
    """The curl numerators over D^3 of b omega for each doubled unit
    tensor, given the potential's parts."""
    grad, weight, dd, d = parts
    # b omega_i = P_i / D^2, d(b omega) over D^3.
    return [_curl_numerators(_form_numerators(k, grad, kvec, weight), d, dd, 2)
            for k, kvec in _unit_tensors()]


def solve_compatible(pot: Potential) -> ParamSolution:
    """All rotational parameters whose tensor satisfies the closedness of
    (E - V) k_flat - K dV, solved exactly (no sampling in the certified path).

    The curl numerators are linear in the tensor, so the condition on the
    parameters is the linear system whose column j is the curl numerator of
    b omega for twice the j-th unit parameter vector's tensor, matched
    coefficient by coefficient in x, y, z; a common nonzero scale of the
    columns changes neither the null space nor its normal form.  Each
    solution is certified by its combination of the columns vanishing (see
    the module docstring)."""
    images = _curl_images(_potential_parts(pot.v, pot.energy))
    basis = linalg.vanishing_combinations(images)
    for vec in basis:
        if any(linalg.combination(vec, images)):
            raise CktError("solver self-check failed: a solution is not closed")
    return ParamSolution(basis=tuple(RotParams.make(*vec.dense(_NPARAMS)) for vec in basis))


# ---------------------------------------------------------------------------
# End-to-end potential classification


@dataclass(frozen=True)
class PotentialClassification:
    solution: ParamSolution
    web_type: WebType | None
    member: RotParams | None
    reason: str | None
    member_types: tuple

    def to_json_dict(self) -> dict:
        return {
            "solution": self.solution.to_json_dict(),
            "web_type": self.web_type.value if self.web_type else None,
            "member": self.member.to_json_dict() if self.member else None,
            "reason": self.reason,
            "member_types": [
                {"params": p.to_json_dict(), "type": t.value} for p, t in self.member_types
            ],
        }


def characteristic_member(solution: ParamSolution) -> RotParams | None:
    """A representative with nonzero quartic part, normalized so that the
    x^2 y^2 coefficient H is 1 when possible, else the first nonzero quartic
    coefficient is 1."""
    for p in solution.basis:
        tup = p.quartic_tuple()
        if any(c != 0 for c in tup):
            if p.h != 0:
                scale = 1 / p.h
            else:
                scale = 1 / next(c for c in tup if c != 0)
            return RotParams.make(*(c * scale for c in p.as_tuple()))
    return None


def classify_potential(pot: Potential) -> PotentialClassification:
    """Solve the compatibility condition and classify the web of a
    characteristic compatible tensor, when one exists."""
    solution = solve_compatible(pot)
    if solution.dimension == _NPARAMS:
        return PotentialClassification(solution, None, None,
                                       "underdetermined: every rotational tensor is compatible",
                                       ())
    if solution.dimension == 0:
        return PotentialClassification(solution, None, None, "no compatible rotational tensor", ())
    member_types = []
    for p in solution.basis:
        if any(c != 0 for c in p.quartic_tuple()):
            quartic = BinaryQuartic.from_rot_params(p)
            member_types.append((p, classify_by_roots(quartic)))
    member = characteristic_member(solution)
    if member is None:
        return PotentialClassification(
            solution, None, None,
            "no characteristic member: compatible tensors are multiples of the metric "
            "and R3.R3 only; no web defined", ())
    # The member rescales the first basis member with a nonzero quartic
    # part, and a nonzero scale keeps the root partition.
    web = member_types[0][1]
    reason = None
    if any(t is not web for _, t in member_types):
        reason = "solution space mixes inequivalent web types; representative type reported"
    return PotentialClassification(solution, web, member, reason, tuple(member_types))
