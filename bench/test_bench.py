"""Tests of the benchmark's own generators and checks.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("stratum", sorted(gen.STRATA))
def test_stratum_partition_matches_numpy_root_count(stratum):
    for seed in range(200):
        q = gen.stratum_quartic(random.Random(seed), stratum)
        assert checks.numeric_partition(q) == gen.STRATA[stratum], (seed, q)


def test_fixed_failing_inputs_have_their_strata():
    for stratum, q in workloads.FIXED_FAILING:
        assert checks.numeric_partition(q) == gen.STRATA[stratum]


def test_generators_repeat_for_a_seed():
    def plain(items):
        return [tuple(x for x in item if not callable(x)) if isinstance(item, tuple) else item
                for item in items]

    for w in workloads.WORKLOADS.values():
        assert plain(w.make_round(random.Random(5))) == plain(w.make_round(random.Random(5)))


def test_group_action_matches_program():
    from rotweb.group_action import GroupElement, apply_quartic

    rng = random.Random(3)
    for _ in range(50):
        g = GroupElement.make(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)),
                              Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                              Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)),
                              0, rng.random() < 0.5)
        q = gen.stratum_quartic(rng, "bi_cyclide")
        assert checks.act_on_quartic(g.to_json_dict(), q) == apply_quartic(g, q)


def test_compatibility_curl_separates_compatible_tensors():
    rng = random.Random(11)
    text, energy, v_of, family = gen.scaled_example(rng)
    point = (Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3))
    for member in family:
        assert not any(checks.compatibility_curl(member, v_of, energy, point))
    assert any(checks.compatibility_curl((1, 2, 3, 4, 5, 6), v_of, energy, point))


def test_jet_division_is_exact_to_second_order():
    x, y, z = checks.coordinate_jets((Fraction(1, 3), Fraction(-2), Fraction(1, 2)))
    u = 1 / (1 + x * x + y * z)
    # d/dx of 1/(1 + x^2 + yz) = -2x / (1 + x^2 + yz)^2 at the point
    base = 1 + Fraction(1, 9) - 1
    assert u.value() == 1 / base
    assert u.diff(0).value() == -2 * Fraction(1, 3) / base ** 2


def test_min_rounds_leave_ten_samples_beyond_the_tail():
    # symmetry-scan completes fewer than 40 scans in a run and has no tail.
    completed_per_round = {"classify-quartic": 7, "verify-tensor": 10, "compat-potential": 4}
    for name, per_round in completed_per_round.items():
        w = workloads.WORKLOADS[name]
        n = per_round * w.min_rounds
        assert n - math.ceil(w.tail_percentile / 100 * n) >= 10, name
