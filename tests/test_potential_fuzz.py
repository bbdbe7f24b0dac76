"""A seeded grammar fuzz of `rotweb compat --potential`.

Random expression trees in x, y, z, with the integers 0-5, + - * /, unary
minus, powers ^0 to ^4 and nesting up to depth 6, go through ``cli.main``
in-process at the energies 0, 1 and -1/2, a few of them with --human.  Every
input must exit 0, exit 1 with a finding, or exit 2 with nothing on stdout
and exactly one `error:` line on stderr; no exception may escape ``main``.
CI runs the same helper on 5000 inputs:

    PYTHONPATH=src:tests python -c "from test_potential_fuzz import fuzz; print(fuzz(5000, seed=3))"
"""

import contextlib
import io
import json
import random
from collections import Counter

from rotweb.cli import main

ENERGIES = ("0", "1", "-1/2")
MAX_DEPTH = 6
# The powers are chosen so that no subtree's degree bound passes this: a
# tree of nested powers would otherwise reach degree 4^6.
MAX_DEGREE = 12


def expression(rng: random.Random, depth: int) -> tuple[str, int]:
    """A random expression nested at most depth deep, and a bound on the
    degree of its numerator and denominator."""
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.choice(["x", "y", "z", str(rng.randint(0, 5))])
        return leaf, int(leaf.isalpha())
    kind = rng.randrange(4)
    text, degree = expression(rng, depth - 1)
    if kind == 0:
        right, other = expression(rng, depth - 1)
        if degree + other > MAX_DEGREE:
            return text, degree
        return f"{text} {rng.choice('+-*/')} {right}", degree + other
    if kind == 1:
        return "-" + text, degree
    if kind == 2:
        power = rng.randint(0, 4 if degree == 0 else min(4, MAX_DEGREE // degree))
        return f"({text})^{power}", degree * power
    return f"({text})", degree


def run_one(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fuzz(count: int, seed: int) -> Counter:
    """Run count seeded inputs and check each outcome; return the count of
    each exit code."""
    rng = random.Random(seed)
    codes = Counter()
    for i in range(count):
        text, _ = expression(rng, rng.randint(1, MAX_DEPTH))
        argv = ["compat", "--potential", text, "--energy", rng.choice(ENERGIES)]
        human = i % 50 == 0
        if human:
            argv.append("--human")
        try:
            code, out, err = run_one(argv)
        except Exception as exc:
            raise AssertionError(f"{argv}: {exc!r} escaped main") from exc
        if code == 2:
            lines = err.splitlines()
            assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), (argv, out, err)
        else:
            assert code in (0, 1) and err == "", (argv, code, err)
            if human:
                assert out.startswith("command: compat\n"), (argv, out)
                assert code == 0 or "findings: " in out, (argv, out)
            else:
                report = json.loads(out)
                assert report["command"] == "compat" and report["inputs"]["potential"] == text, argv
                assert code == 0 or report["findings"], (argv, report)
        codes[code] += 1
    return codes


def test_fuzzed_potentials_exit_cleanly():
    codes = Counter()
    for seed in range(3):
        codes += fuzz(300, seed)
    assert sum(codes.values()) == 900
    assert codes[0] > 800 and codes[2] > 0
