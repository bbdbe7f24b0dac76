import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rotweb import ckt_core
from rotweb.ckt_core import CktError, SymTensorField, basis_product
from rotweb.exactmath import Poly, RationalFunction
from rotweb.linalg import Numerators
from rotweb.rotational import _PIECES


def rand_fraction(rng: random.Random, lo=-9, hi=9, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def companion_real_root_count(coeffs_low_first, tol=1e-9) -> int:
    """Float oracle: distinct real roots of a square-free polynomial via the
    companion matrix, with a Newton polish before the imaginary-part test."""
    cs = [float(c) for c in coeffs_low_first]
    while cs and cs[-1] == 0.0:
        cs.pop()
    if len(cs) <= 1:
        return 0
    poly = np.polynomial.Polynomial(cs)
    deriv = poly.deriv()
    roots = np.roots(list(reversed(cs)))
    count = 0
    for r in roots:
        z = complex(r)
        for _ in range(6):
            dz = deriv(z)
            if dz == 0:
                break
            z = z - poly(z) / dz
        if abs(z.imag) < tol:
            count += 1
    return count


def evaluate(f, point) -> Fraction:
    """The value of a Poly or a RationalFunction at a rational point."""
    if isinstance(f, RationalFunction):
        return evaluate(f.num, point) / evaluate(f.den, point)
    return sum((c * math.prod(Fraction(v) ** k for v, k in zip(point, exps))
                for exps, c in f.exponent_items()), Fraction(0))


def degree_in(p: Poly, var: int) -> int:
    """The degree of p in one variable; -1 for the zero polynomial."""
    return max((exps[var] for exps, _ in p.exponent_items()), default=-1)


def tensor_degree(k: SymTensorField) -> int:
    """The total degree of a tensor: the largest of its components'."""
    return max(k[i][j].degree() for i in range(3) for j in range(i, 3))


def matrix_at(k: SymTensorField, point) -> list:
    """The tensor's 3x3 matrix of values at a point."""
    return [[evaluate(k[i][j], point) for j in range(3)] for i in range(3)]


def free_values(vec) -> list:
    """The 35 free coordinates of a scan vector, ``linalg.Numerators``, as
    Fractions; a vector of values is returned as it is."""
    return vec.dense(ckt_core.DIM_TRACE_FREE) if isinstance(vec, Numerators) else vec


def ckv_coords(name: str) -> list[int]:
    """The ten CKV coordinates of the basis field of that name: its unit
    vector in ``ckv_basis`` order, the form in which the scans take a
    generator."""
    return [int(other == name) for other in ckt_core._NAMES]


def assemble_free(vec) -> SymTensorField:
    """The tensor sum_c x_c F_c of a vector x of rational free parameters
    (``free_values``) over the basis tensors F_c of ``_free_basis``: the
    assembled oracle of the routes that read a vector through cached linear
    images."""
    vec = free_values(vec)
    if len(vec) != ckt_core.DIM_TRACE_FREE:
        raise CktError(f"expected {ckt_core.DIM_TRACE_FREE} free parameters")
    return SymTensorField.combination(zip(vec, ckt_core._free_basis()), 3)


def oracle_contraction(k):
    """k_i = (d_i tr K + 2 d_j K_ji) / 5, with Poly + and *."""
    return [(k[0][0].diff(i) + k[1][1].diff(i) + k[2][2].diff(i)
             + (k[0][i].diff(0) + k[1][i].diff(1) + k[2][i].diff(2)) * 2) * Fraction(1, 5) for i in range(3)]


def symbolic_family(vecs) -> SymTensorField:
    """The family sum_a t_a assemble_free(vec_a), with the t_a extra
    polynomial variables after x, y, z."""
    nvars = 3 + len(vecs)
    return SymTensorField.combination([(Poly.variable(3 + idx, nvars), assemble_free(vec))
                                       for idx, vec in enumerate(vecs)], nvars)


def symbolic_rotational(nvars: int = 9) -> SymTensorField:
    """The whole rotational family at once: ``assemble_rotational`` with its
    six parameters the polynomial variables 3..8 of nvars."""
    return SymTensorField.combination(
        [(Poly.variable(3 + i, nvars), basis_product(*key)) for i, key in enumerate(_PIECES)],
        nvars)


@pytest.fixture
def rng():
    return random.Random(20260810)
