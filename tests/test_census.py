"""An exhaustive census of small integer quartics.

Every nonzero quartic with integer coefficients in [-h, h] is classified
both ways and canonicalized.  The per-stratum counts are pinned, so a change
to either classifier or to the root code shows up as a count or a failure
here rather than only on seeded orbits.  CI runs the same helper at height 3:

    PYTHONPATH=src:tests python -c "from test_census import COUNTS, census; assert census(3) == COUNTS[3]"
"""

import itertools

from rotweb.quartic_class import (BinaryQuartic, WebType, canonical_form, classify_by_invariants,
                                  classify_by_roots, invariants, root_structure)

# Per-stratum counts in WebType order: bi-cyclide, flat ring, disk, inverse
# prolate and oblate spheroidal, toroidal, bispherical, cardioid, tangent sphere.
COUNTS = {
    2: [136, 648, 2040, 132, 96, 2, 18, 44, 8],
    3: [744, 3796, 11428, 416, 288, 6, 20, 96, 12],
}


def partition(q: BinaryQuartic) -> tuple:
    structure = root_structure(q)
    return structure.real_multiplicities, structure.cc_pair_multiplicities


def census(height: int) -> list[int]:
    """The per-stratum counts of the nonzero integer quartics with
    coefficients in [-height, height].  For each one, both classifiers
    agree, canonical_form answers with a witness residual of at most 1e-9,
    and an exact representative has the quartic's root partition and F."""
    counts = dict.fromkeys(WebType, 0)
    values = range(-height, height + 1)
    for coeffs in itertools.product(values, repeat=5):
        if not any(coeffs):
            continue
        q = BinaryQuartic.make(*coeffs)
        structure = root_structure(q)
        web = classify_by_roots(q, structure)
        assert classify_by_invariants(q)[0] is web, coeffs
        form, _ = canonical_form(q, structure)
        assert form.witness_residual <= 1e-9, (coeffs, form)
        if form.exact:
            rep = BinaryQuartic.make(*{
                "I": (1, 0, form.parameter, 0, 1), "II": (1, 0, form.parameter, 0, -1),
                "III": (1, 0, form.parameter, 0, 0), "IV": (0, 1, 0, 0, 0),
                "V": (1, 0, 0, 0, 0)}[form.form])
            assert partition(rep) == partition(q), (coeffs, form)
            assert invariants(rep).f == invariants(q).f, (coeffs, form)
        counts[web] += 1
    return list(counts.values())


def test_census_of_height_2():
    assert census(2) == COUNTS[2]
