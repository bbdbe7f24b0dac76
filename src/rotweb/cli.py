"""Command-line interface: classification, table reproduction, compatibility
solving, and symmetry scans, with deterministic JSON-first output.

Exit codes: 0 success, 1 internal classification inconsistency, failed
canonicalization or a failed internal certificate (reported as findings),
2 input error, 141 the reader closed standard output before the report was
written (128 + SIGPIPE, as a shell reports a command killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .ckt_core import (CktError, FreeBlocks, ckv_by_name, free_json_dict, killing_obstruction_terms,
                       symmetry_subspace, tsn_filter)
from .exactmath import ExactMathError, rat, rat_str
from .expr import ExprError, eval_rational
from .group_action import apply_quartic
from .quartic_class import (BinaryQuartic, ClassificationError, canonical_form,
                            classify_by_invariants, classify_by_roots, invariants)
from .rotational import CatalogEntry, RotParams, catalog
from .separability import Potential, classify_potential

SCHEMA_VERSION = 1


class InputError(ValueError):
    """Unusable command-line input (exit code 2)."""


# What each command returns: (inputs, results, findings, exit code), which main wraps.
_Outcome = tuple[dict, dict | None, list, int]


def _internal_failure(inputs: dict, exc: CktError) -> _Outcome:
    """The outcome of a command whose input was usable but whose internal
    certificate failed: no results and an internal_check_failed finding."""
    return inputs, None, [{"kind": "internal_check_failed", "detail": str(exc)}], 1


def _parse_rationals(text: str, count: int, what: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise InputError(f"{what} needs {count} comma-separated rationals, got {len(parts)}")
    try:
        return tuple(rat(p) for p in parts)
    except ExactMathError as exc:
        raise InputError(str(exc)) from exc


def cmd_classify(args) -> _Outcome:
    if (args.params is None) == (args.quartic is None):
        raise InputError("classify needs exactly one of --params or --quartic")
    if args.params is not None:
        values = _parse_rationals(args.params, 6, "--params")
        params = RotParams.make(*values)
        quartic = BinaryQuartic.from_rot_params(params)
        inputs = {"params": params.to_json_dict()}
    else:
        values = _parse_rationals(args.quartic, 5, "--quartic")
        quartic = BinaryQuartic.make(*values)
        inputs = {"quartic": quartic.to_json()}
    if quartic.is_zero:
        raise InputError("tensor is equivalent to C33 * R3 . R3 + f * g; no web defined")

    inv = invariants(quartic)
    by_roots = classify_by_roots(quartic)
    findings: list = []
    try:
        by_inv, audit = classify_by_invariants(quartic)
        inv_value = by_inv.value
    except ClassificationError as exc:
        by_inv, audit, inv_value = None, exc.audit, None
        findings.append({"kind": "invariant_classifier_no_match", "detail": str(exc)})
    if by_inv is not None and by_inv is not by_roots:
        findings.append({
            "kind": "classifier_disagreement",
            "detail": f"roots say {by_roots.value}, invariants say {by_inv.value}",
            "audit": audit,
        })
    try:
        canonical, witness = canonical_form(quartic)
        canonical, witness = canonical.to_json_dict(), witness.to_json_dict()
    except ClassificationError as exc:
        canonical = witness = None
        findings.append({"kind": "canonicalization_failed", "detail": str(exc)})
    results = {
        "quartic": quartic.to_json(),
        "root_structure": quartic.structure.to_json_dict(),
        "invariants": inv.to_json_dict(),
        "type": by_roots.value,
        "type_by_invariants": inv_value,
        "audit": audit,
        "canonical": canonical,
        "witness": witness,
    }
    return inputs, results, findings, 1 if findings else 0


def _check_equivalence(entry: CatalogEntry, partners: dict) -> dict:
    """Verify a catalog equivalence: type-level always; exact quartic
    proportionality through the row's explicit witness where it has one."""
    partner = partners[entry.equivalent_to]
    result = {
        "row": entry.name,
        "partner": entry.equivalent_to,
        "transformation": entry.transformation,
        "witness": None,
        "ok": True,
        "detail": "type-level equivalence",
    }
    witness = entry.witness
    if witness is None:
        return result
    moved = apply_quartic(witness, entry.params.quartic_tuple())
    target = partner.params.quartic_tuple()
    nonzero = [(m, t) for m, t in zip(moved, target) if m != 0 or t != 0]
    proportional = bool(nonzero) and all(m * nonzero[0][1] == t * nonzero[0][0] for m, t in nonzero)
    result["witness"] = witness.to_json_dict()
    result["ok"] = proportional
    result["detail"] = ("witness maps quartic onto partner row exactly (up to tensor scale)"
                        if proportional else "witness failed to reach the partner quartic")
    return result


def cmd_tables(args) -> _Outcome:
    scales = {"a": Fraction(1), "k": Fraction(1, 2)}
    for item in args.scale or []:
        if "=" not in item:
            raise InputError(f"--scale expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in scales:
            raise InputError(f"unknown scale constant {name!r}; expected a or k")
        try:
            scales[name] = eval_rational(value.strip())
        except ExprError as exc:
            raise InputError(str(exc)) from exc
    try:
        entries = catalog(scales["a"], scales["k"])
    except CktError as exc:
        raise InputError(str(exc)) from exc
    partners = {e.name: e for e in entries}
    findings: list = []
    rows = []
    for entry in entries:
        quartic = BinaryQuartic.from_rot_params(entry.params)
        by_roots = classify_by_roots(quartic)
        try:
            by_inv, _ = classify_by_invariants(quartic)
            inv_value = by_inv.value
        except ClassificationError as exc:
            inv_value = None
            findings.append({"kind": "invariant_classifier_no_match",
                             "row": entry.name, "detail": str(exc)})
        row = {
            "name": entry.name,
            "params": entry.params.to_json_dict(),
            "expected_type": entry.expected_type,
            "type": by_roots.value,
            "type_by_invariants": inv_value,
            "ok": by_roots.value == entry.expected_type == (inv_value or by_roots.value),
        }
        if not row["ok"]:
            findings.append({"kind": "catalog_mismatch", "row": entry.name,
                             "detail": f"expected {entry.expected_type}, roots {by_roots.value}, "
                                       f"invariants {inv_value}"})
        if entry.equivalent_to:
            check = _check_equivalence(entry, partners)
            row["equivalence"] = check
            if not check["ok"]:
                findings.append({"kind": "equivalence_witness_failed", "row": entry.name,
                                 "detail": check["detail"]})
        rows.append(row)
    results = {
        "scales": {name: rat_str(value) for name, value in scales.items()},
        "rows": rows,
        "passed": sum(1 for r in rows if r["ok"]),
        "total": len(rows),
    }
    inputs = {"scale": [f"{n}={rat_str(v)}" for n, v in scales.items()]}
    return inputs, results, findings, 1 if findings else 0


def cmd_compat(args) -> _Outcome:
    try:
        energy = rat(args.energy)
    except ExactMathError as exc:
        raise InputError(str(exc)) from exc
    try:
        pot = Potential.from_expression(args.potential, energy)
    except ExprError as exc:
        raise InputError(f"cannot parse potential: {exc}") from exc
    inputs = {"potential": args.potential, "energy": rat_str(energy)}
    try:
        outcome = classify_potential(pot)
    except CktError as exc:
        return _internal_failure(inputs, exc)
    findings = []
    if outcome.reason and outcome.web_type is None and outcome.solution.dimension not in (0, 6):
        findings.append({"kind": "compat_degenerate", "detail": outcome.reason})
    return inputs, outcome.to_json_dict(), findings, 0


_GENERATORS = ("X3", "D", "I3", "R3")


def _symmetry_blocks(v, mode: str) -> tuple[list, list]:
    """The report blocks of the scan's eigenspaces, and its findings."""
    blocks, findings = [], []
    for h, basis in symmetry_subspace(v, mode):
        block = {
            "h": rat_str(h),
            "dimension": len(basis),
            "basis": [free_json_dict(vec) for vec in basis],
        }
        if mode == "h_zero":
            filtered = tsn_filter(v, basis)
            block["tsn_filtered_dimension"] = len(filtered.subspace)
            block["tsn_variety_is_linear"] = filtered.variety_is_linear
            if not filtered.variety_is_linear:
                findings.append({
                    "kind": "tsn_variety_nonlinear",
                    "detail": "TSN holds on directions outside the eigenvector subspace; "
                              "the TSN solution set inside the kernel is not a linear space",
                    "directions": list(filtered.outside_tsn_directions),
                })
            block["killing_obstruction_zero"] = [not killing_obstruction_terms(vec) for vec in basis]
        blocks.append(block)
    return blocks, findings


def cmd_symmetry(args) -> _Outcome:
    if args.generator not in _GENERATORS:
        raise InputError(f"unknown generator {args.generator!r}; expected one of {_GENERATORS}")
    mode = "h_zero" if args.h == "0" else "h_constant"
    inputs = {"generator": args.generator, "h": args.h}
    try:
        blocks, findings = _symmetry_blocks(ckv_by_name(args.generator), mode)
    except CktError as exc:
        return _internal_failure(inputs, exc)
    # Informational findings never signal failure here; surprises are data.
    return inputs, {"generator": args.generator, "mode": mode, "eigenvalues": blocks}, findings, 0


def _render_human(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    results = report["results"]
    if results is None:
        pass  # an internal check failed; the findings below say which
    elif report["command"] == "classify":
        lines.append(f"type: {results['type']} (invariants: {results['type_by_invariants']})")
        lines.append(f"invariants: {results['invariants']}")
        canonical = results["canonical"]
        if canonical is not None:
            lines.append(f"canonical form: {canonical['form']} parameter {canonical['parameter']}")
    elif report["command"] == "tables":
        for row in results["rows"]:
            status = "ok" if row["ok"] else "MISMATCH"
            lines.append(f"{row['name']:30s} {row['type']:28s} {status}")
        lines.append(f"passed {results['passed']}/{results['total']}")
    elif report["command"] == "compat":
        lines.append(f"web type: {results['web_type']}")
        lines.append(f"solution dimension: {results['solution']['dimension']}")
        if results["reason"]:
            lines.append(f"note: {results['reason']}")
    elif report["command"] == "symmetry":
        for block in results["eigenvalues"]:
            extra = ""
            if "tsn_filtered_dimension" in block:
                extra = f", TSN-filtered {block['tsn_filtered_dimension']}"
            lines.append(f"h = {block['h']}: dimension {block['dimension']}{extra}")
    if report["findings"]:
        lines.append(f"findings: {len(report['findings'])}")
        for finding in report["findings"]:
            lines.append(f"  - {finding['kind']}: {finding.get('detail', '')}")
    return "\n".join(lines)


_FLOAT_WORDS = {math.inf: "Infinity", -math.inf: "-Infinity"}

# The JSON text of each leaf of a report, by its exact type, as json.dumps writes it.
_LEAF = {
    str: encode_basestring_ascii,
    int: repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: lambda x: "NaN" if x != x else _FLOAT_WORDS.get(x) or repr(x),
}


def _write(value, indent: str, out: list) -> None:
    """Append the JSON text of value to out, byte for byte as
    json.dumps(value, indent=2, sort_keys=True) writes it, nested at the
    given indent.  Leaves are written by ``_LEAF``, which the container
    loops read for each item, so a leaf item costs no call of ``_write``.
    The containers are list, tuple, dict with str keys and
    ``ckt_core.FreeBlocks``, whose flat entries fill the skeleton of its
    indent (``_skeleton``) in one step.  Any other type raises TypeError."""
    leaf = _LEAF.get
    kind = type(value)
    write = leaf(kind)
    if write is not None:
        out.append(write(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            item = value[key]
            write = leaf(type(item))
            if write is None:
                _write(item, inner, out)
            else:
                out.append(write(item))
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            write = leaf(type(item))
            if write is None:
                _write(item, inner, out)
            else:
                out.append(write(item))
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif kind is FreeBlocks:
        out.append(_skeleton(indent) % value.flat)
    else:
        raise TypeError(f"a report cannot hold a {kind.__name__}")


@lru_cache(maxsize=None)
def _skeleton(indent: str) -> str:
    """The JSON text of a FreeBlocks block at the given indent, with one
    "%s" slot per flat entry: ``_write``'s text of a plain dict of the
    block's shape whose every entry is the string "%s".  ``_write`` fills
    the slots with the block's ``flat`` tuple in one ``%``: the sorted keys
    write the entries in that order, the entries are ``rat_str`` strings,
    which need no escape, and the JSON names and spaces hold no other "%"."""
    out: list = []
    _write(dict(FreeBlocks(["%s"] * FreeBlocks.size)), indent, out)
    return "".join(out)


def dump_report(report: dict) -> str:
    """The report as JSON text, as json.dumps(report, indent=2,
    sort_keys=True) writes it (``_write``)."""
    out: list = []
    _write(report, "", out)
    return "".join(out)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--human", action="store_true", help="render a plain-text summary")

    parser = argparse.ArgumentParser(
        prog="rotweb",
        description="Exact classification of rotationally symmetric R-separable webs.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", parents=[common], help="classify one tensor or quartic")
    p.add_argument("--params", help="six rationals M33,L3,H,C33,D3,A33")
    p.add_argument("--quartic", help="five rationals M33,L3,H,D3,A33")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tables", parents=[common],
                       help="reproduce the catalog classification tables")
    p.add_argument("--scale", action="append",
                   help="override a scale constant, e.g. --scale a=2 --scale k=1/3")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("compat", parents=[common],
                       help="solve the fixed-energy compatibility condition")
    p.add_argument("--potential", required=True,
                   help="expression in x, y, z (rational constants, + - * / ^)")
    p.add_argument("--energy", default="0", help="fixed energy E (rational)")
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("symmetry", parents=[common], help="scan a symmetry subspace")
    p.add_argument("generator", help="one of X3, D, I3, R3")
    p.add_argument("--h", choices=["0", "const"], default="0",
                   help="conformal weight mode: h = 0 or h constant")
    p.set_defaults(func=cmd_symmetry)
    return parser


# Options that take a value.  argparse reads a separate value that starts
# with "-" (a negative number, "-4/(x^2+1)") as an option, so such a pair is
# joined into "--option=value" before parsing.
_VALUE_OPTIONS = {"--params", "--quartic", "--scale", "--potential", "--energy", "--h"}


def _join_values(argv: list) -> list:
    out = []
    for arg in argv:
        if out and out[-1] in _VALUE_OPTIONS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    started = time.time()
    try:
        inputs, results, findings, code = args.func(args)
    except (InputError, ExactMathError, ExprError, CktError, ClassificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"schema_version": SCHEMA_VERSION, "version": __version__, "command": args.subcommand,
              "inputs": inputs, "results": results, "findings": findings,
              "timing_ms": round((time.time() - started) * 1000, 3)}
    try:
        print(_render_human(report) if args.human else dump_report(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at interpreter exit does not
        # raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
