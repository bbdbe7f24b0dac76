"""The six-parameter family of rotationally symmetric conformal Killing
tensors around the z-axis, its eigenvalue geometry, and the catalog of
classical R-separable rotational coordinate webs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Sequence

from . import linalg
from .ckt_core import CktError, SymTensorField, _assembly_matrix, basis_product, ckv_basis, eigenvector_cross
from .exactmath import Poly, rat, rat_str
from .expr import eval_rational

if TYPE_CHECKING:
    from .group_action import GroupElement


@dataclass(frozen=True)
class RotParams:
    """Parameters (M33, L3, H, C33, D3, A33) of the rotational family

        K = M33 I3.I3 + L3 D.I3 + H D.D + C33 R3.R3 + D3 D.X3 + A33 X3.X3.
    """

    m33: Fraction
    l3: Fraction
    h: Fraction
    c33: Fraction
    d3: Fraction
    a33: Fraction

    @classmethod
    def make(cls, m33=0, l3=0, h=0, c33=0, d3=0, a33=0) -> RotParams:
        return cls(rat(m33), rat(l3), rat(h), rat(c33), rat(d3), rat(a33))

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.m33, self.l3, self.h, self.c33, self.d3, self.a33)

    def quartic_tuple(self) -> tuple[Fraction, ...]:
        """The five coefficients (M33, L3, H, D3, A33) that define the web."""
        return (self.m33, self.l3, self.h, self.d3, self.a33)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.as_tuple())

    def to_json_dict(self) -> dict:
        return {key: rat_str(value) for key, value in zip(
            ("M33", "L3", "H", "C33", "D3", "A33"), self.as_tuple())}

    def __str__(self) -> str:
        return "(" + ", ".join(rat_str(v) for v in self.as_tuple()) + ")"


# ckv_basis index pairs of I3.I3, D.I3, D.D, R3.R3, D.X3, X3.X3, the products
# the six parameters multiply.
_PIECES = ((9, 9), (6, 9), (6, 6), (5, 5), (6, 2), (2, 2))


def assemble_rotational(p: RotParams) -> SymTensorField:
    """Expand the rotational combination into exact Cartesian components."""
    return SymTensorField.combination(
        [(value, basis_product(*key)) for value, key in zip(p.as_tuple(), _PIECES)], 3)


def rotational_eigencondition(k: SymTensorField) -> bool:
    """True iff (K.R3) x R3 vanishes identically, i.e. R3 is everywhere an
    eigenvector; this carves out exactly the span of the rotational family
    modulo metric multiples."""
    return eigenvector_cross(k, ckv_basis(k.nvars)[5]).is_zero


def _metric_free(upper: Sequence[Poly]) -> tuple[Poly, ...]:
    """K_xy, K_xz, K_yz, K_xx - K_zz and K_yy - K_zz from K's upper
    components: unchanged by K -> K + f g, and all zero only for K = f g."""
    xx, xy, xz, yy, yz, zz = upper
    return xy, xz, yz, xx - zz, yy - zz


@lru_cache(maxsize=None)
def _piece_columns() -> tuple[tuple[Poly, ...], ...]:
    """The metric-free components of the six ``_PIECES`` products."""
    return tuple(_metric_free(basis_product(*key).upper) for key in _PIECES)


def extract_parameters(k: SymTensorField) -> RotParams:
    """The parameters p with K = assemble_rotational(p) + f g, by one exact
    solve of K's metric-free components against the six pieces', which
    certifies that identity.  If there is none, a solve against the 35 free
    basis tensors' names the refusal; outside the six-span modulo g, a
    conformal Killing tensor does not have R3 everywhere as an eigenvector.
    - the six pieces are independent modulo g, so the parameters are unique;
    - the 35 free basis tensors span every trace-free conformal Killing
      tensor, so the 35-span decides whether K is one.
    A tensor in other than the three variables x, y, z is refused first."""
    if k.nvars != 3:
        raise CktError(f"extract_parameters precondition failed: the tensor has {k.nvars} variables, not 3")
    rhs = [_metric_free(k.upper)]
    if (solved := linalg.solve_many(_piece_columns(), rhs)) is not None:
        return RotParams(*solved[0].dense(len(_PIECES)))
    if linalg.solve_many([_metric_free(f) for f in _assembly_matrix()], rhs) is None:
        raise CktError("extract_parameters precondition failed: not a conformal Killing tensor")
    raise CktError("extract_parameters precondition failed: R3 is not an eigenvector "
                   "(tensor is not rotationally symmetric modulo metric multiples)")


def eigenvalues_at(p: RotParams, point: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    """Exact eigenvalue data (lambda1, A, B) at a rational point: R3 is an
    eigenvector with eigenvalue lambda1 = C33 (x^2 + y^2), and the other two
    eigenvalues are (A +- sqrt(B)) / 2.

    B is returned exactly rather than as a radical; it is nonnegative by
    construction, and B < 0 is treated as an internal inconsistency.
    """
    x, y, z = (Fraction(v) for v in point)
    rho2 = x * x + y * y
    r2 = rho2 + z * z
    if r2 == 0:
        raise CktError("eigenvalue formulas are undefined at the origin")
    lam1 = p.c33 * rho2
    a_val = r2 * r2 * p.m33 + z * r2 * p.l3 + r2 * p.h + z * p.d3 + p.a33
    term1 = (r2 * p.l3 + 2 * z * p.h
             + (4 * z * z - r2) / r2 * p.d3
             + 4 * z * (2 * z * z - r2) / (r2 * r2) * p.a33)
    term2 = (r2 * r2 * p.m33 + z * r2 * p.l3 + (2 * z * z - r2) * p.h
             + z * (4 * z * z - 3 * r2) / r2 * p.d3
             + (r2 * r2 - 8 * z * z * (r2 - z * z)) / (r2 * r2) * p.a33)
    b_val = rho2 * term1 * term1 + term2 * term2
    if b_val < 0:
        raise CktError("internal inconsistency: discriminant B evaluated negative")
    return lam1, a_val, b_val


def cyclide_surface_residual(p: RotParams, h: Fraction, point: Sequence) -> Fraction:
    """Value of the expanded confocal-cyclide surface equation at a point;
    zero iff the point lies on the parameter-h coordinate surface."""
    h = rat(h)
    x, y, z = (Fraction(v) for v in point)
    rho2 = x * x + y * y
    r2 = rho2 + z * z
    ch = p.c33 - h
    return ((4 * (p.h - ch) * p.m33 - p.l3 * p.l3) * r2 * r2
            + (8 * p.m33 * p.d3 - 4 * ch * p.l3) * r2 * z
            + (2 * p.l3 * p.d3 - 4 * ch * p.h) * r2
            + 16 * p.m33 * p.a33 * z * z
            + 4 * ch * ch * rho2
            + (8 * p.l3 * p.a33 - 4 * ch * p.d3) * z
            - p.d3 * p.d3 + 4 * (p.h - ch) * p.a33)


# ---------------------------------------------------------------------------
# Catalog of classical rotational webs


@dataclass(frozen=True)
class CatalogEntry:
    """One classical coordinate web: name, instantiated parameters, the web
    type its quartic must classify to, and the optional conformal-equivalence
    note naming the partner web and transformation, with the group element
    that carries this row's quartic onto a multiple of the partner's when
    one is known."""

    name: str
    params: RotParams
    expected_type: str
    equivalent_to: str | None = None
    transformation: str | None = None
    witness: GroupElement | None = None


def _catalog_path() -> str | None:
    return os.environ.get("ROTWEB_CATALOG")


def load_catalog_data() -> dict:
    """The catalog JSON, from the file named by ROTWEB_CATALOG if set and
    from the packaged data otherwise; an unreadable file raises CktError."""
    override = _catalog_path()
    if override:
        try:
            with open(override, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as exc:
            raise CktError(f"cannot read catalog {override}: {exc.strerror}") from exc
        except ValueError as exc:
            raise CktError(f"catalog {override} is not valid JSON: {exc}") from exc
    with resources.files("rotweb.data").joinpath("catalog.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def catalog(a: Fraction | str = 1, k: Fraction | str = Fraction(1, 2)) -> list[CatalogEntry]:
    """The 15 catalog rows with scale constants instantiated, witnesses
    included.

    Requires a > 0 and 0 < k < 1; classification is constant-independent on
    those ranges.
    """
    from .group_action import GroupElement  # group_action imports this module

    a = rat(a)
    k = rat(k)
    if a <= 0:
        raise CktError("catalog scale constant must satisfy a > 0")
    if not 0 < k < 1:
        raise CktError("catalog modulus must satisfy 0 < k < 1")
    env = {"a": a, "k": k}
    data = load_catalog_data()
    entries = []
    where = "top level"
    try:
        for index, row in enumerate(data["rows"]):
            where = f"row {index}"
            params = RotParams.make(*(eval_rational(row[key], env)
                                      for key in ("m33", "l3", "h", "c33", "d3", "a33")))
            name, expected_type = row["name"], row["expected_type"]
            witness = row.get("witness")
            if witness is not None:
                where += " witness"
                witness = GroupElement.make(*(eval_rational(witness[key], env)
                                              for key in ("a0", "a1", "a2", "a3", "a4")),
                                            discrete=witness["discrete"])
            entries.append(CatalogEntry(
                name=name,
                params=params,
                expected_type=expected_type,
                equivalent_to=row.get("equivalent_to"),
                transformation=row.get("transformation"),
                witness=witness,
            ))
    except KeyError as exc:
        source = _catalog_path() or "rotweb/data/catalog.json"
        raise CktError(f"catalog {source}: {where} has no key {exc.args[0]!r}") from exc
    if len(entries) != 15:
        raise CktError(f"catalog must contain 15 rows, found {len(entries)}")
    return entries
