"""The benchmark workloads.

Each workload is a closed loop over whole rounds: a round is a fixed list of
operations, generated from the seed, and one caller issues the next
operation only after the previous one returns.  `run` is the timed call;
`check` validates its output outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from fractions import Fraction

import checks
import gen


def call_cli(argv: list) -> tuple:
    """Run the rotweb command in-process; returns (exit code, stdout).  An
    exception escaping the command counts as exit code 1, as it would for
    the installed script."""
    from rotweb import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        print(f"rotweb {' '.join(argv)} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return 1, out.getvalue()
    return code, out.getvalue()


class Workload:
    name = ""
    tail_percentile = 0.0   # fixed per workload; see README
    min_rounds = 1          # leaves ten samples beyond the tail percentile, if any
    trace_rounds = 1        # fixed work of a traced run
    setup_code = ""         # lazy caches the workload needs, filled in set-up

    def prepare(self) -> None:
        """Import the program and fill the caches named in setup_code."""
        exec(self.setup_code, {})

    def warm_up(self, rng: random.Random) -> None:
        for item in self.make_round(rng):
            self.run(item)

    def make_round(self, rng: random.Random) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result, rng: random.Random) -> tuple:
        """(failed, problems): failed is True when the operation failed;
        problems lists every check the output of a completed one broke."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


# Seed-independent inputs on which `classify` exits 2 today because
# canonical_form finds no witness: a disk cyclide, a flat-ring cyclide and a
# bi-cyclide whose mu candidates are exact rationals.
FIXED_FAILING = [
    ("disk_cyclide", (3, -7, 2, 5, -11)),
    ("flat_ring_cyclide", (Fraction(560, 27), -10, Fraction(85, 9), Fraction(-25, 3),
                           Fraction(5, 2))),
    ("bi_cyclide", (Fraction(24320, 9), Fraction(-566768, 27), Fraction(1649572, 27),
                    Fraction(-2131904, 27), Fraction(114700, 3))),
]
SEEDED_STRATA = [s for s in gen.STRATA if s not in ("disk_cyclide", "flat_ring_cyclide")]


class ClassifyQuartic(Workload):
    name = "classify-quartic"
    tail_percentile = 96.0
    min_rounds = 36
    trace_rounds = 20
    setup_code = "import numpy, rotweb.cli"

    def make_round(self, rng):
        items = [(s, gen.stratum_quartic(rng, s)) for s in SEEDED_STRATA]
        items.extend(FIXED_FAILING)
        rng.shuffle(items)
        return items

    def run(self, item):
        return call_cli(["classify", "--quartic=" + gen.quartic_arg(item[1])])

    def check(self, item, result, rng):
        stratum, q = item
        code, text = result
        if code != 0:
            return True, []
        res = json.loads(text)["results"]
        problems = []
        if res["type"] != stratum:
            problems.append(f"type {res['type']} for a {stratum} quartic")
        canonical = res["canonical"]
        exact = canonical["exact_parameter"]
        parameter = canonical["parameter"]
        if parameter is not None:
            parameter = Fraction(parameter) if exact else float(parameter)
        rep = checks.canonical_coeffs(canonical["form"], parameter)
        if checks.numeric_partition(rep) != gen.STRATA[stratum]:
            problems.append(f"canonical form {canonical} has another root partition")
        if not checks.same_absolute_invariant(q, rep, exact or parameter is None):
            problems.append(f"canonical form {canonical} has another F = I^3/J^2")
        error = checks.witness_error(res["witness"], q, rep)
        if not error <= 1e-9:
            problems.append(f"witness misses the representative by {error:.3g}")
        return False, problems


# ---------------------------------------------------------------------------


class VerifyTensor(Workload):
    """Runnable with --workload verify-tensor but not listed in
    BENCHMARK.json: four workloads fit the run budget only at a run length
    too short to be steady on the reference machine (see README)."""

    name = "verify-tensor"
    tail_percentile = 95.0
    min_rounds = 20
    trace_rounds = 8
    setup_code = "import numpy, rotweb.cli\nrotweb.ckt_core.ckv_basis(3)"

    def make_round(self, rng):
        # Three all-integer parameter sets, seven with denominators 2..7: the
        # median then falls inside the rational cost group, not between two.
        return [(gen.rotational_params(rng, i >= 3), gen.metric_multiple(rng))
                for i in range(10)]

    def run(self, item):
        from rotweb import ckt_core, rotational
        from rotweb.exactmath import Poly

        values, shift = item
        params = rotational.RotParams.make(*values)
        k = rotational.assemble_rotational(params)
        lie = ckt_core.lie_derivative(ckt_core.ckv_by_name("R3"), k)
        tsn = ckt_core.tsn_check(k)
        eigen = rotational.rotational_eigencondition(k)
        plain = rotational.extract_parameters(k)
        shifted = k + ckt_core.metric(3).scale(Poly.from_terms(shift, 3))
        moved = rotational.extract_parameters(shifted)
        return lie, tsn, eigen, plain, moved

    def check(self, item, result, rng):
        values = item[0]
        lie, tsn, eigen, plain, moved = result
        problems = []
        if not lie.is_zero:
            problems.append("Lie derivative along R3 is not zero")
        if tsn is not True:
            problems.append("tsn_check failed on a rotational tensor")
        if eigen is not True:
            problems.append("R3 is not an eigenvector")
        if plain.as_tuple() != values:
            problems.append(f"extract_parameters gave {plain}, expected {values}")
        if moved.as_tuple() != values:
            problems.append(f"extract_parameters after adding f g gave {moved}")
        return False, problems


# ---------------------------------------------------------------------------


class SymmetryScan(Workload):
    name = "symmetry-scan"
    # Fewer than 40 scans fit in a run, so no percentile has ten samples
    # beyond it; p75 reads the middle of the h constant scans (see README).
    tail_percentile = 75.0
    min_rounds = 3
    trace_rounds = 1
    setup_code = ("import numpy, rotweb.cli\nrotweb.ckt_core.ckv_basis(3)\n"
                  "rotweb.ckt_core._assembly_matrix()")
    # Every generator in both modes, and I3 --h 0 once more.  Sorted by cost
    # a round is three cheap kernel scans, two I3 kernel scans and four
    # char_poly-bound constant-mode scans, so the median falls in the middle
    # of the I3 group rather than in a gap between two groups.
    SCANS = [(g, h) for g in ("X3", "D", "I3", "R3") for h in ("0", "const")] + [("I3", "0")]

    def warm_up(self, rng):
        # A whole round costs about ten seconds; the cheapest scan warms up.
        self.run(("X3", "0"))

    def make_round(self, rng):
        items = list(self.SCANS)
        rng.shuffle(items)
        return items

    def run(self, item):
        generator, h = item
        return call_cli(["symmetry", generator, "--h", h])

    def check(self, item, result, rng):
        from rotweb import ckt_core

        generator, h_mode = item
        code, text = result
        if code != 0:
            return True, []
        res = json.loads(text)["results"]
        v = ckt_core.ckv_by_name(generator)
        problems = []
        for block in res["eigenvalues"]:
            h = Fraction(block["h"])
            if h_mode == "0" and h != 0:
                problems.append(f"h = {h} in h = 0 mode")
            for coeffs in block["basis"]:
                k = ckt_core.assemble_ckt(ckt_core.CktCoefficients.from_json_dict(coeffs))
                if ckt_core.lie_derivative(v, k) != k.scale(h):
                    problems.append(f"L_{generator} K != {h} K")
        dims = [block["dimension"] for block in res["eigenvalues"]]
        # L_D scales each homogeneous part, so D is diagonalizable over Q;
        # L_X3 lowers and L_I3 raises the degree (nilpotent) and L_R3 has
        # only imaginary eigenvalues besides 0, so h = 0 is their only one.
        if h_mode == "const" and generator == "D" and sum(dims) != 35:
            problems.append(f"D eigenspace dimensions sum to {sum(dims)}, not 35")
        heights = [block["h"] for block in res["eigenvalues"]]
        if h_mode == "const" and generator != "D" and heights != ["0"]:
            problems.append(f"{generator} has real eigenvalues {heights}, expected only 0")
        if generator == "R3" and h_mode == "0":
            tsn = [block["tsn_filtered_dimension"] for block in res["eigenvalues"]]
            if dims != [9] or tsn != [6]:
                problems.append(f"R3 kernel {dims} with TSN part {tsn}, expected [9] and [6]")
        return False, problems


# ---------------------------------------------------------------------------


def _point(rng: random.Random) -> tuple:
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))


class CompatPotential(Workload):
    name = "compat-potential"
    tail_percentile = 98.0
    min_rounds = 125
    trace_rounds = 30
    setup_code = "import numpy, rotweb.cli\nrotweb.ckt_core.ckv_basis(3)"
    def make_round(self, rng):
        items = [(name, *build(rng)) for name, build in gen.POTENTIALS.items()]
        rng.shuffle(items)
        return items

    def run(self, item):
        _, text, energy, _, _ = item
        # `--potential=...`: a separate argument starting with '-' is
        # rejected by argparse.
        return call_cli(["compat", "--potential=" + text, "--energy=" + str(energy)])

    def check(self, item, result, rng):
        family, _, energy, v_of, expected = item
        code, text = result
        if code != 0:
            return True, []
        res = json.loads(text)["results"]
        keys = ("M33", "L3", "H", "C33", "D3", "A33")
        basis = [tuple(Fraction(member[k]) for k in keys) for member in res["solution"]["basis"]]
        problems = []
        c33 = (0, 0, 0, 1, 0, 0)
        if not basis or checks.rank(basis) != checks.rank(basis + [c33]):
            problems.append("C33 is not free")
        if expected is not None:
            if not checks.same_span(basis, expected):
                problems.append(f"compatible family {basis}, expected span {expected}")
            if res["web_type"] != "toroidal":
                problems.append(f"web type {res['web_type']}, expected toroidal")
        for member in basis:
            while True:
                point = _point(rng)
                try:
                    curl = checks.compatibility_curl(member, v_of, energy, point)
                    break
                except ZeroDivisionError:
                    continue  # a pole of V; draw another point
            if any(curl):
                problems.append(f"{family}: d omega = {curl} at {point} for {member}")
        return False, problems


WORKLOADS = {w.name: w for w in (ClassifyQuartic(), VerifyTensor(), SymmetryScan(),
                                 CompatPotential())}
