"""The package holds only what something calls.

Every function, class and method of ``src/rotweb`` whose name has no leading
underscore must be named, as a name or an attribute, somewhere the library
is used: in the package outside its own definition, in the benchmark
(``bench/*.py``, the tracer's TARGETS strings included), or in PAPER_API.
A definition that only tests call belongs in the tests, as a helper or an
oracle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rotweb"
BENCH = ROOT / "bench"

# The paper's stated results and its group law, kept as the library's named
# API (README, "Library API").
PAPER_API = {"ckt_dimension", "conformal_factor", "eigenvalues_at", "cyclide_surface_residual",
             "apply", "compose", "inverse"}


def _uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every ast.Name and ast.Attribute in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def _bench_names() -> set[str]:
    names = set()
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(name for name, _ in _uses(tree))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
                for _, attr, _ in ast.literal_eval(node.value):
                    names.update(attr.split("."))
    return names


def _public_definitions() -> tuple[list[tuple[str, str, int, int]], dict]:
    """(file, name, first line, last line) of each public definition, and
    the uses in each file of the package."""
    definitions, uses = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses[path.name] = _uses(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                definitions.append((path.name, node.name, node.lineno, node.end_lineno))
    return definitions, uses


def test_every_public_definition_has_a_caller():
    definitions, uses = _public_definitions()
    bench = _bench_names()
    uncalled = []
    for file, name, first, last in definitions:
        if name in bench or name in PAPER_API:
            continue
        if not any(used == name and not (other == file and first <= line <= last)
                   for other, found in uses.items() for used, line in found):
            uncalled.append(f"{file}: {name}")
    assert uncalled == []


def test_paper_api_is_defined():
    definitions, _ = _public_definitions()
    assert PAPER_API <= {name for _, name, _, _ in definitions}
