import contextlib
import hashlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotweb import ckt_core, cli, linalg, quartic_class, separability
from rotweb.ckt_core import CktCoefficients, assemble_ckt, ckv_by_name, symmetry_subspace
from rotweb.cli import main
from rotweb.exactmath import rat_str
from rotweb.quartic_class import ClassificationError, WebType, invariants, root_structure

from conftest import assemble_free
from test_canonical_form import extreme_quartic, partition_quartic

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


@contextlib.contextmanager
def unlimited_int_strings():
    """Lift the digit limit of str(int), where the interpreter has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


class TestClassify:
    def test_toroidal_row(self, capsys):
        code, report = run_json(capsys, "classify", "--params", "1/4,0,1/2,1/2,0,1/4")
        assert code == 0
        assert report["results"]["type"] == "toroidal"
        assert report["results"]["type_by_invariants"] == "toroidal"
        assert report["results"]["canonical"]["form"] == "I"
        assert report["results"]["canonical"]["parameter"] == "2"

    def test_cardioid_quartic(self, capsys):
        code, report = run_json(capsys, "classify", "--quartic", "0,1,0,0,0")
        assert code == 0
        assert report["results"]["type"] == "cardioid"

    def test_zero_quartic_exits_2(self, capsys):
        code, out, err = run(capsys, "classify", "--params", "0,0,0,1,0,0")
        assert code == 2
        assert "no web defined" in err

    def test_requires_exactly_one_input(self, capsys):
        assert run(capsys, "classify")[0] == 2
        assert run(capsys, "classify", "--params", "1,0,0,0,0,0",
                   "--quartic", "1,0,0,0,0")[0] == 2

    def test_malformed_rational_exits_2(self, capsys):
        assert run(capsys, "classify", "--quartic", "1,0,zero,0,0")[0] == 2

    def test_deterministic_output(self, capsys):
        _, first = run_json(capsys, "classify", "--quartic", "1,0,-5,0,4")
        _, second = run_json(capsys, "classify", "--quartic", "1,0,-5,0,4")
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second

    def test_human_rendering(self, capsys):
        code, out, _ = run(capsys, "classify", "--quartic", "0,1,0,0,0", "--human")
        assert code == 0
        assert "type: cardioid" in out

    @pytest.mark.parametrize("quartic,web", [
        ("3,-7,2,5,-11", "disk_cyclide"),
        ("560/27,-10,85/9,-25/3,5/2", "flat_ring_cyclide"),
        ("24320/9,-566768/27,1649572/27,-2131904/27,114700/3", "bi_cyclide"),
        ("-3,30,-111,180,-108", "bispherical"),
        ("-27/8,-9/8,9/8,5/8,1/12", "cardioid"),
    ])
    def test_formerly_failing_quartics(self, capsys, quartic, web):
        code, report = run_json(capsys, "classify", "--quartic=" + quartic)
        assert code == 0, report["findings"]
        assert report["results"]["type"] == report["results"]["type_by_invariants"] == web
        assert report["results"]["canonical"]["witness_residual"] <= 1e-9

    def test_negative_values_as_separate_arguments(self, capsys):
        code, report = run_json(capsys, "classify", "--quartic", "-3,30,-111,180,-108")
        assert code == 0
        assert report["inputs"]["quartic"] == ["-3", "30", "-111", "180", "-108"]
        code, report = run_json(capsys, "classify", "--params", "-1,0,1,0,0,0")
        assert code == 0
        assert report["results"]["type"] == "inverse_prolate_spheroidal"

    @pytest.mark.parametrize("lead,web", [
        (Fraction(1, 10**320), "bi_cyclide"),
        (Fraction(10**320), "flat_ring_cyclide"),
    ])
    def test_beyond_double_range_is_canonicalized(self, capsys, lead, web):
        # Root-factor coefficients beyond double range, and roots near 1e-80
        # or 1e160: the roots are found on the factor scaled by a power of
        # two, so the witness still reaches the representative.
        code, report = run_json(capsys, "classify", "--quartic", f"{rat_str(lead)},0,-1,0,1")
        assert code == 0, report["findings"]
        assert report["findings"] == []
        results = report["results"]
        assert results["type"] == results["type_by_invariants"] == web
        i, j = 12 * lead + 1, 2 - 72 * lead
        assert results["invariants"] == {"I": rat_str(i), "J": rat_str(j),
                                         "Delta": rat_str(4 * i ** 3 - j ** 2),
                                         "F": rat_str(i ** 3 / j ** 2)}
        assert results["canonical"]["form"] == "I"
        assert results["canonical"]["witness_residual"] <= 1e-9

    def test_report_numbers_beyond_the_int_string_limit(self, capsys):
        # F = I^3 / J^2 has a numerator of 4801 digits, past the digit limit
        # of str(int).
        code, report = run_json(capsys, "classify", "--quartic", "1,0,-1e800,0,1")
        assert code == 0, report["findings"]
        n = 10**800
        i, j = 12 + n * n, 2 * n ** 3 - 72 * n
        f = Fraction(i ** 3, j ** 2)
        assert len(report["results"]["invariants"]["F"]) > 4800
        with unlimited_int_strings():
            assert report["results"]["invariants"]["F"] == f"{f.numerator}/{f.denominator}"

    def test_tiny_simple_root_beside_the_double_root(self, capsys):
        # Roots 0 twice, about -2e-41 and -4e29: at 64 bits the tiny root
        # rounds onto the double root, and the precision doubles.
        code, report = run_json(capsys, "classify", "--quartic=-7/3,1e30,2,0,0")
        assert code == 0, report["findings"]
        assert report["results"]["type"] == "inverse_prolate_spheroidal"
        assert report["results"]["canonical"]["witness_residual"] <= 1e-9

    def test_canonicalization_failure_is_a_finding(self, capsys, monkeypatch):
        def fail(*args):
            raise ClassificationError("no witness")

        monkeypatch.setattr(cli, "canonical_form", fail)
        code, report = run_json(capsys, "classify", "--quartic", "1,0,-5,0,4")
        assert code == 1
        assert report["findings"] == [{"kind": "canonicalization_failed", "detail": "no witness"}]
        assert report["results"]["canonical"] is None
        assert report["results"]["type"] == "bi_cyclide"


class TestTables:
    def test_default_scales(self, capsys):
        code, report = run_json(capsys, "tables")
        assert code == 0
        assert report["results"]["passed"] == 15
        assert report["results"]["total"] == 15
        assert report["findings"] == []
        by_name = {row["name"]: row for row in report["results"]["rows"]}
        assert by_name["cap_cyclide"]["type"] == "flat_ring_cyclide"
        assert by_name["prolate_spheroidal"]["equivalence"]["witness"]["discrete"] is True
        assert by_name["prolate_spheroidal"]["equivalence"]["ok"] is True
        assert by_name["spherical"]["equivalence"]["ok"] is True

    def test_second_instantiation(self, capsys):
        code, report = run_json(capsys, "tables", "--scale", "a=2", "--scale", "k=1/3")
        assert code == 0
        assert report["results"]["passed"] == 15

    def test_bad_scale_exits_2(self, capsys):
        assert run(capsys, "tables", "--scale", "a=zero")[0] == 2
        assert run(capsys, "tables", "--scale", "q=2")[0] == 2
        assert run(capsys, "tables", "--scale", "k=7")[0] == 2

    @pytest.mark.parametrize("scale", ["a=1/0", "k=0^-1"])
    def test_zero_division_scale_exits_2(self, capsys, scale):
        code, out, err = run(capsys, "tables", "--scale", scale)
        assert (code, out) == (2, "")
        assert "division by zero" in err


def drop_m33(text):
    data = json.loads(text)
    del data["rows"][2]["m33"]
    return json.dumps(data)


def drop_discrete(text):
    data = json.loads(text)
    del next(row for row in data["rows"] if "witness" in row)["witness"]["discrete"]
    return json.dumps(data)


class TestMalformedCatalog:
    @pytest.mark.parametrize("edit, message", [
        (drop_m33, "row 2 has no key 'm33'"),
        (drop_discrete, "witness has no key 'discrete'"),
        (lambda text: text[:len(text) // 2], "is not valid JSON"),
        (None, "cannot read catalog"),
    ], ids=["row_without_m33", "witness_without_discrete", "truncated", "missing"])
    def test_exits_2_naming_the_file(self, capsys, monkeypatch, tmp_path, edit, message):
        path = tmp_path / "catalog.json"
        if edit is not None:
            packaged = resources.files("rotweb.data").joinpath("catalog.json").read_text("utf-8")
            path.write_text(edit(packaged), encoding="utf-8")
        monkeypatch.setenv("ROTWEB_CATALOG", str(path))
        code, out, err = run(capsys, "tables")
        assert code == 2
        assert out == ""
        assert str(path) in err and message in err


class TestCompat:
    def test_worked_example(self, capsys):
        code, report = run_json(
            capsys, "compat", "--potential", "-4/((x^2+y^2+z^2-1)^2 + 4*z^2)", "--energy", "0")
        assert code == 0
        assert report["results"]["web_type"] == "toroidal"
        assert report["results"]["solution"]["dimension"] == 2
        assert report["results"]["solution"]["c33_free"] is True

    def test_killing_subfamily_report(self, capsys):
        code, report = run_json(capsys, "compat", "--potential", "0", "--energy", "1")
        assert code == 0
        assert report["results"]["solution"]["dimension"] == 4

    def test_no_compatible_tensor(self, capsys):
        code, report = run_json(capsys, "compat", "--potential=x*y*z", "--energy=1/2")
        assert code == 0
        assert report["results"]["solution"]["dimension"] == 0
        assert report["results"]["reason"] == "no compatible rotational tensor"
        assert report["findings"] == []

    def test_negative_values_as_separate_arguments(self, capsys):
        code, report = run_json(capsys, "compat", "--potential", "-4/(x^2+1)", "--energy", "-1/2")
        assert code == 0
        assert report["inputs"] == {"potential": "-4/(x^2+1)", "energy": "-1/2"}

    @pytest.mark.parametrize("power", [300, 70000])
    def test_high_powers_solve(self, capsys, power):
        code, report = run_json(capsys, "compat", f"--potential=x^{power}", "--energy", "0")
        assert code == 0
        assert report["results"]["solution"]["dimension"] == 1

    def test_degree_past_the_limit_exits_2(self, capsys):
        code, _, err = run(capsys, "compat", "--potential=x^4294967296", "--energy", "0")
        assert code == 2
        assert "degree limit 4294967295" in err

    def test_malformed_potential_exits_2(self, capsys):
        assert run(capsys, "compat", "--potential", "x +")[0] == 2
        assert run(capsys, "compat", "--potential", "1/(x-x)")[0] == 2

    def test_failed_self_check_exits_1(self, capsys, monkeypatch):
        # M33 alone is not compatible with the worked example: the solver's
        # self-check fails after the input has been read, so this is no
        # input error.
        monkeypatch.setattr(linalg, "vanishing_combinations", lambda images: [linalg.Numerators(1, ((0, 1),))])
        code, report = run_json(capsys, "compat", "--potential", "-4/((x^2+y^2+z^2-1)^2 + 4*z^2)")
        assert code == 1
        assert report["results"] is None
        assert report["findings"] == [{"kind": "internal_check_failed",
                                       "detail": "solver self-check failed: a solution is not closed"}]
        code, out, _ = run(capsys, "compat", "--potential", "0", "--energy", "1", "--human")
        assert code == 1
        assert "internal_check_failed: solver self-check failed" in out

    def test_failed_unit_tensor_check_exits_1(self, capsys, monkeypatch):
        # The conformal Killing check runs on the six unit tensors when they
        # are cached; the cache is cleared before the call and again at
        # teardown.
        real = separability.verify_ckt
        monkeypatch.setattr(separability, "verify_ckt", lambda k: (False, real(k)[1]))
        separability._unit_tensors.cache_clear()
        try:
            code, report = run_json(capsys, "compat", "--potential", "-4/((x^2+y^2+z^2-1)^2 + 4*z^2)",
                                    "--energy", "0")
        finally:
            separability._unit_tensors.cache_clear()
        assert code == 1
        assert report["results"] is None
        assert report["findings"] == [{"kind": "internal_check_failed",
                                       "detail": "unit tensor 0 fails the conformal Killing check"}]


class TestSymmetry:
    def test_rotation_scan(self, capsys):
        code, report = run_json(capsys, "symmetry", "R3", "--h", "0")
        assert code == 0
        block, = report["results"]["eigenvalues"]
        assert block["dimension"] == 9
        assert block["tsn_filtered_dimension"] == 6
        assert block["tsn_variety_is_linear"] is True

    def test_dilation_constant_modes(self, capsys):
        code, report = run_json(capsys, "symmetry", "D", "--h", "const")
        assert code == 0
        eigen = {block["h"]: block["dimension"] for block in report["results"]["eigenvalues"]}
        assert eigen == {"-2": 5, "-1": 8, "0": 9, "1": 8, "2": 5}
        # The JSON coefficients, read back as outside input, give the tensors
        # of the scan's free-coordinate vectors.
        spaces = symmetry_subspace(ckv_by_name("D"), "h_constant")
        assert [[assemble_ckt(CktCoefficients.from_json_dict(entry)) for entry in block["basis"]]
                for block in report["results"]["eigenvalues"]] == [
            [assemble_free(vec) for vec in basis] for _, basis in spaces]

    def test_translation_scan_killing_flags(self, capsys):
        code, report = run_json(capsys, "symmetry", "X3", "--h", "0")
        assert code == 0
        block, = report["results"]["eigenvalues"]
        assert block["dimension"] == 9
        assert all(block["killing_obstruction_zero"])

    def test_unknown_generator_exits_2(self, capsys):
        assert run(capsys, "symmetry", "R1")[0] == 2

    def test_failed_tsn_certificate_exits_1(self, capsys, monkeypatch):
        # Every kernel direction taken as an eigenvector of R3: R3 is
        # hypersurface-orthogonal, and the certificate's second hypothesis,
        # (K.v) x v = 0 read again on each member, fails.
        monkeypatch.setattr(linalg, "vanishing_combinations",
                            lambda images: [linalg.Numerators(1, ((j, 1),)) for j in range(len(images))])
        code, report = run_json(capsys, "symmetry", "R3", "--h", "0")
        assert code == 1
        assert report["results"] is None
        assert report["findings"] == [{"kind": "internal_check_failed",
                                       "detail": "eigenvector subspace fails the TSN conditions; "
                                                 "filter is unsound"}]

    def test_warm_kernel_scans_assemble_no_tensor(self, capsys, monkeypatch):
        # Once the caches are filled, the Lie operator, the Killing map and
        # the TSN stage read cached linear images: no tensor is summed.
        scans = [("symmetry", name, "--h", "0") for name in ("X3", "D", "I3", "R3")]
        warm = [run_json(capsys, *argv)[1]["results"] for argv in scans]

        def refuse(cls, terms, nvars):
            raise AssertionError("a tensor was assembled")

        monkeypatch.setattr(ckt_core.SymTensorField, "combination", classmethod(refuse))
        for argv, results in zip(scans, warm):
            code, report = run_json(capsys, *argv)
            assert code == 0
            assert report["results"] == results

    def test_warm_kernel_scans_build_the_operator_once(self, capsys, monkeypatch):
        # symmetry_subspace sums the 35-column operator of v once per scan;
        # the TSN stage's eigenspace check applies the cached columns of the
        # basis fields to each basis vector instead of summing it again.
        scans = [("symmetry", name, "--h", "0") for name in ("X3", "D", "I3", "R3")]
        for argv in scans:
            run_json(capsys, *argv)
        real, calls = ckt_core._lie_columns, []
        monkeypatch.setattr(ckt_core, "_lie_columns", lambda v: calls.append(v) or real(v))
        for argv in scans:
            calls.clear()
            code, _ = run_json(capsys, *argv)
            assert code == 0
            assert len(calls) == 1, argv

    def test_failed_killing_check_exits_1(self, capsys, monkeypatch):
        # The conformal Killing check runs on the 35 basis tensors when the
        # cached Killing map is built; the map is cleared before the call
        # and again at teardown.
        real = ckt_core.verify_ckt
        monkeypatch.setattr(ckt_core, "verify_ckt", lambda k: (False, real(k)[1]))
        ckt_core._killing_columns.cache_clear()
        try:
            code, report = run_json(capsys, "symmetry", "X3", "--h", "0")
        finally:
            ckt_core._killing_columns.cache_clear()
        assert code == 1
        assert report["results"] is None
        assert report["findings"] == [{"kind": "internal_check_failed",
                                       "detail": "free basis tensor 0 fails the conformal Killing equation"}]


def without_timing(out: str) -> str:
    if not out:
        return out
    report = json.loads(out)
    del report["timing_ms"]
    return json.dumps(report, sort_keys=True)


# sha256 of the report without timing_ms, as json.dumps(..., sort_keys=True):
# any change to a scan's output, or to the package version it reports,
# shows here.
SCAN_DIGESTS = {
    ("X3", "0"): "cd23836ab832e8b4c61a6a624975ec19681702cceefced694117ea38e990fb15",
    ("X3", "const"): "98d611ec362171bee0e0bdb66bb32f15a509e43b9b9378654355cfbbd80612cf",
    ("D", "0"): "9a2ba291b7c64c110328414c0fda9e401c15a3dbf4bd60f68addd076258f72b2",
    ("D", "const"): "a52323f8607bf772eddd34989668ad519788075d3292746c611e817db873ab43",
    ("I3", "0"): "f7c11a77651ff83929337d42557ac5a09db61b6696603b54e7803db9cb1b6379",
    ("I3", "const"): "af89f53c61370e6dce8f37b6df0057f6e2c309fe9ce82e4ddfaba1f5eadbde33",
    ("R3", "0"): "d90f18e0c2c2ea17183f80cb16a942891355d1222bc41d13d59f6eb996be159f",
    ("R3", "const"): "14a0c973b53f58db1e3e2dd1e42bbc78aca6e9f4d77eb408ddaaa61b856d5b36",
}


@pytest.mark.parametrize("generator,h", list(SCAN_DIGESTS), ids=[f"{g} {h}" for g, h in SCAN_DIGESTS])
def test_scan_output_is_unchanged(capsys, generator, h):
    code, out, _ = run(capsys, "symmetry", generator, "--h", h)
    assert code == 0
    assert hashlib.sha256(without_timing(out).encode()).hexdigest() == SCAN_DIGESTS[(generator, h)]


@pytest.mark.parametrize("generator", ["X3", "D", "I3", "R3"])
def test_warm_scans_read_no_dense_vector(capsys, monkeypatch, generator):
    # Each basis vector goes from the elimination to the report as its
    # integer numerators: a warm scan in either mode never reads a dense
    # free-coordinate vector, nor makes a Fraction copy of one.
    for h in ("0", "const"):
        assert run(capsys, "symmetry", generator, "--h", h)[0] == 0

    def dense_read(*args):
        raise AssertionError("a scan read a dense free-coordinate vector")

    monkeypatch.setattr(linalg.Numerators, "of", classmethod(dense_read))
    monkeypatch.setattr(linalg.Numerators, "dense", dense_read)
    for h in ("0", "const"):
        code, out, _ = run(capsys, "symmetry", generator, "--h", h)
        assert code == 0
        assert hashlib.sha256(without_timing(out).encode()).hexdigest() == SCAN_DIGESTS[(generator, h)]


def digest_quartics() -> list:
    """Five quartics of each stratum, the fifth with every root moved near 0
    or infinity, and the two quartics beyond double range."""
    quartics = []
    for web in WebType:
        rng = random.Random(f"digest-{web.value}")
        quartics += [partition_quartic(rng, web) for _ in range(4)] + [extreme_quartic(rng, web)]
    beyond_double_range = (Fraction(1, 10**320), Fraction(10**320))
    return [q.to_json() for q in quartics] + [[rat_str(lead), "0", "-1", "0", "1"] for lead in beyond_double_range]


# sha256 of the classify reports of digest_quartics() without timing_ms, as
# json.dumps(..., sort_keys=True), one line each.
CLASSIFY_DIGEST = "cac17f01a2494cd024bfbb51c1f5162869e780148abf6a7f96f7dde8fabaf61f"


def test_classify_output_is_unchanged(capsys):
    lines = []
    for quartic in digest_quartics():
        code, out, _ = run(capsys, "classify", "--quartic=" + ",".join(quartic))
        assert code == 0
        lines.append(without_timing(out))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CLASSIFY_DIGEST


# (potential, energy) for the compat digest: the worked example, the rational
# potential at a rational energy, three polynomial potentials, and the first
# eight draws of bench/gen.py's POTENTIALS with random.Random(19), two rounds
# of scaled_example, radial, harmonic and linear_z.
COMPAT_INPUTS = [
    ("-4/((x^2+y^2+z^2-1)^2 + 4*z^2)", "0"),
    ("(3/7)/(x^2+y^2+z^2+1/2)", "-5/3"),
    ("z", "0"),
    ("x*y*z", "1/2"),
    ("0", "1"),
    ("-4*(36)/((x^2+y^2+z^2-(36))^2+4*(36)*z^2)", "0"),
    ("(7)/(x^2+y^2+z^2)", "3"),
    ("(7/3)*(x^2+y^2)+(3)*z^2", "4"),
    ("(-1)*z", "-1/2"),
    ("-4*(1)/((x^2+y^2+z^2-(1))^2+4*(1)*z^2)", "0"),
    ("(-2)/(x^2+y^2+z^2)", "-1"),
    ("(4)*(x^2+y^2)+(4)*z^2", "3/2"),
    ("(3)*z", "-2"),
]

# sha256 of the compat reports of COMPAT_INPUTS without timing_ms, as
# json.dumps(..., sort_keys=True), one line each.
COMPAT_DIGEST = "20bab17e0c40f7fd2ffec6c6f38c3a85cc9741871fc11fb7d97591ef9763159a"


def test_compat_output_is_unchanged(capsys):
    lines = []
    for potential, energy in COMPAT_INPUTS:
        code, out, _ = run(capsys, "compat", "--potential=" + potential, "--energy=" + energy)
        assert code == 0
        lines.append(without_timing(out))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == COMPAT_DIGEST


def json_dumps_report(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# Everything a report may hold, nested: text with non-ASCII and control
# characters, ints far beyond 64 bits, every kind of float, and lists,
# tuples and dicts, empty or not.
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers(min_value=-10**400, max_value=10**400)
    | st.floats() | st.sampled_from([0.1, 1e-300, -0.0, math.nan, math.inf, -math.inf, 1e16]),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=30)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(REPORT_VALUES)
    def test_bytes_match_json_dumps(self, value):
        assert cli.dump_report(value) == json_dumps_report(value)

    def test_edge_values(self):
        deep: object = "leaf"
        for depth in range(60):
            deep = [deep, {}] if depth % 2 else {"k\u00e9\x00": deep, "": [], "t": ()}
        values = ["\x00\x1f\x7f\u00e9\u2028\U0001f600\ud800\"\\/", 10**399, -10**399,
                  0.1, 1e-300, math.nan, math.inf, -math.inf, [], {}, (), ((1, 2), [()]), deep]
        for value in values:
            assert cli.dump_report(value) == json_dumps_report(value)
        assert cli.dump_report({"all": values}) == json_dumps_report({"all": values})

    @pytest.mark.parametrize("value", [Fraction(1, 2), {1: "a"}, {"a": {None: 1}}, [{"a", "b"}],
                                       {"a": [1, Fraction(3)]}, WebType.TOROIDAL])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli.dump_report(value)

    def test_every_report_of_a_seeded_round(self, capsys, monkeypatch):
        # The reports of the classify, compat and scan digest inputs and of
        # the catalog tables, compared with json.dumps on the report itself.
        written, write = [], cli.dump_report

        def recorded(report):
            text = write(report)
            written.append((text, json_dumps_report(report)))
            return text

        monkeypatch.setattr(cli, "dump_report", recorded)
        calls = [["classify", "--quartic=" + ",".join(q)] for q in digest_quartics()]
        calls += [["classify", "--params", "1/2,0,1,0,0,1/2"]]
        calls += [["symmetry", generator, "--h", h] for generator, h in SCAN_DIGESTS]
        calls += [["compat", "--potential=" + p, "--energy=" + e] for p, e in COMPAT_INPUTS]
        calls += [["tables"], ["tables", "--scale", "a=2", "--scale", "k=1/3"]]
        for argv in calls:
            assert main(argv) == 0
            capsys.readouterr()
        assert len(written) == len(calls)
        for text, expected in written:
            assert text == expected


# rat_str's output: 0, or an integer or a reduced p/q with q > 1, signed.
RAT_STR = re.compile(r"0|-?[1-9][0-9]*(/[1-9][0-9]*)?")


def seeded_free_blocks():
    """free_json_dict of the zero vector and of seeded ``Numerators`` with
    negative and p/q entries, half of them with numerators beyond 2^64."""
    rng = random.Random(35)
    vecs = [[0] * ckt_core.DIM_TRACE_FREE]
    for trial in range(16):
        top = 2 ** 90 if trial % 2 else 9
        vecs.append([Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, 12))
                     if rng.random() < 0.4 else 0 for _ in range(ckt_core.DIM_TRACE_FREE)])
    return [ckt_core.free_json_dict(linalg.Numerators.of(vec)) for vec in vecs]


def leaves(value):
    """The str leaves of nested lists and of dicts in sorted key order."""
    if type(value) is str:
        return [value]
    items = (value[key] for key in sorted(value)) if isinstance(value, dict) else value
    return [leaf for item in items for leaf in leaves(item)]


def plain(value):
    """The value with every dict, ``FreeBlocks`` included, a plain dict."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(plain(item) for item in value)
    return value


class TestFreeBlocksSkeleton:
    """``_write`` writes a ``FreeBlocks`` by filling its flat entries into a
    skeleton; the generic writer on the same blocks as a plain dict, and
    json.dumps, are the oracles."""

    def test_flat_entries_are_rat_strs_in_writing_order(self):
        # The skeleton inserts each entry between quotes unescaped: exact
        # only for rat_str strings, in the order the sorted keys write them.
        blocks = seeded_free_blocks()
        assert set(blocks[0].flat) == {"0"}
        assert any(len(entry) > 20 and "/" in entry and entry[0] == "-" for block in blocks for entry in block.flat)
        for block in blocks:
            assert type(block) is ckt_core.FreeBlocks and len(block.flat) == ckt_core.FreeBlocks.size
            assert block.flat == tuple(leaves(block))
            for entry in block.flat:
                assert type(entry) is str and RAT_STR.fullmatch(entry), entry
                assert rat_str(Fraction(entry)) == entry and json.dumps(entry) == f'"{entry}"'

    @pytest.mark.parametrize("indent", ["", "  ", "    ", " " * 10])
    def test_skeleton_route_is_the_generic_writer(self, indent):
        for block in seeded_free_blocks():
            fast, slow = [], []
            cli._write(block, indent, fast)
            cli._write(dict(block), indent, slow)
            assert "".join(fast) == "".join(slow)
            assert cli.dump_report(block) == json_dumps_report(block) == json_dumps_report(plain(block))

    def test_nested_in_lists_and_dicts(self):
        blocks = seeded_free_blocks()
        values = [blocks, {"basis": blocks[:3], "h": "1/2"}, (blocks[4], [[blocks[5]], {"k": blocks[0]}]),
                  {"a": {"b": [{"c": blocks[6], "d": [blocks[7], 1, None]}]}, "z": blocks[8]}]
        for value in values + [values]:
            text = cli.dump_report(value)
            assert text == json_dumps_report(value) == json_dumps_report(plain(value))
            assert text == cli.dump_report(plain(value))


def test_classify_computes_the_invariants_once(capsys, monkeypatch):
    # The decision list, its covariant values at the probe point, the
    # canonical parameter and the report all share one computation of I, J,
    # Delta and F.
    calls = []

    def counted(q):
        calls.append(q)
        return invariants(q)

    monkeypatch.setattr(quartic_class, "invariants", counted)
    monkeypatch.setattr(cli, "invariants", counted)
    for web in WebType:
        quartic = partition_quartic(random.Random(web.value), web).to_json()
        calls.clear()
        code, _ = run_json(capsys, "classify", "--quartic=" + ",".join(quartic))
        assert code == 0
        assert len(calls) == 1, web


def test_classify_computes_the_root_structure_once(capsys, monkeypatch):
    # classify_by_roots, canonical_form and the report read one root
    # structure, kept on the quartic.
    calls = []

    def counted(q):
        calls.append(q)
        return root_structure(q)

    monkeypatch.setattr(quartic_class, "root_structure", counted)
    for web in WebType:
        quartic = partition_quartic(random.Random(web.value), web).to_json()
        calls.clear()
        code, _ = run_json(capsys, "classify", "--quartic=" + ",".join(quartic))
        assert code == 0
        assert len(calls) == 1, web


def test_one_parser_serves_a_sequence_of_calls(capsys):
    # The parser is built once per process; reusing it must not carry
    # state from one call into the next.
    calls = [["classify", "--quartic", "3,-7,2,5,-11"], ["symmetry", "X3"],
             ["classify", "--no-such-option"], ["compat", "--potential", "-4/(x^2+1)"]]
    in_process = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, without_timing(captured.out), captured.err))
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "rotweb", *argv], capture_output=True, text=True,
                              cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              timeout=120)
        fresh.append((done.returncode, without_timing(done.stdout), done.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert in_process == fresh


NO_NUMPY_RUNNER = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from rotweb.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_commands_run_without_numpy():
    # numpy is a test and benchmark oracle only: one quartic per stratum,
    # the two beyond double range, the catalog, the README potential and a
    # kernel scan all run with every import of numpy failing.
    quartics = [partition_quartic(random.Random(web.value), web).to_json() for web in WebType]
    quartics += [[rat_str(lead), "0", "-1", "0", "1"] for lead in (Fraction(1, 10**320), Fraction(10**320))]
    calls = [["classify", "--quartic=" + ",".join(q)] for q in quartics] + [
        ["tables"], ["compat", "--potential", "-4/((x^2+y^2+z^2-1)^2 + 4*z^2)", "--energy", "0"],
        ["symmetry", "X3"]]
    done = subprocess.run([sys.executable, "-c", NO_NUMPY_RUNNER, json.dumps(calls)],
                          capture_output=True, text=True, cwd=ROOT, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0] * len(calls)


@pytest.mark.parametrize("argv", [
    ["compat", "--potential", "(" * 300 + "x" + ")" * 300],
    ["compat", "--potential=" + "-" * 2000 + "x"],
    ["tables", "--scale", "a=" + "(" * 400 + "2" + ")" * 400],
], ids=["parentheses", "signs", "scale"])
def test_deeply_nested_expression_exits_2(argv):
    # The parser recurses once per nesting level: input nested past the
    # recursion limit is unusable, so it exits 2 with one error line and no
    # traceback.
    done = subprocess.run([sys.executable, "-m", "rotweb", *argv], capture_output=True, text=True,
                          cwd=ROOT, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (done.returncode, done.stdout) == (2, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "nested too deeply" in lines[0]


def test_closed_stdout_exits_141_quietly():
    # `rotweb tables | true`: the reader is gone before the report is
    # written, so the write fails with EPIPE.  That is no finding (exit 1)
    # and no traceback, but the shell's code for a command killed by SIGPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.Popen([sys.executable, "-m", "rotweb", "tables"], stdout=write_end,
                            stderr=subprocess.PIPE, cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def readme_commands() -> list:
    """The arguments of every distinct `rotweb ...` line in the README's
    code blocks."""
    commands, in_block = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("rotweb "):
            argv = shlex.split(line, comments=True)[1:]
            if argv not in commands:
                commands.append(argv)
    return commands


def test_readme_lists_the_reproduction_calls():
    commands = readme_commands()
    assert ["tables"] in commands
    assert ["tables", "--scale", "a=2", "--scale", "k=1/3"] in commands
    assert ["classify", "--params", "1/2,0,1,0,0,1/2"] in commands
    scans = {(argv[1], argv[3]) for argv in commands if argv[0] == "symmetry"}
    assert {("R3", "0"), ("X3", "0"), ("I3", "0"), ("D", "const")} <= scans


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 0, report["findings"]
    assert report["command"] == argv[0]
