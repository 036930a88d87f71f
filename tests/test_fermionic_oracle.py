"""Graded fusion multiplicities at every node against the fermionic formula.

tests/oracles.py computes them from the Kirillov-Reshetikhin fermionic
formula and shares no code with the engine.  Every degree of a graded
module is a g-module, fixed by its dominant weight multiplicities, so
the comparison is made there.  For xi = (1^k) the two sides of the main
comparison are one stored module, and this is their only check by an
independent route at nodes other than 1 and n.
"""

import itertools

import oracles
from krfl.demazure import local_weyl, rect_demazure, rect_demazure_character
from krfl.modules import graded_character
from krfl.typea import fundamental_weight, weight_scale
from test_acceptance import CASES, bundle


def dominant_part(gc):
    return {(wt, d): k for (wt, d), k in gc.mults.items() if min(wt) >= 0}


def predicted(n, rectangles):
    """Dominant graded character of the fusion of W^(r)_s over (r, s)."""
    mults = oracles.fermionic_graded_multiplicities(n, rectangles)
    return oracles.dominant_graded_character(n, mults)


def test_main_comparison_matches_the_fermionic_formula():
    single_boxes = 0
    for n, i, parts in CASES:
        fus, gd, a, b = bundle(n, i, parts)
        want = predicted(n, [(i, s) for s in parts])
        assert dominant_part(a) == want, (n, i, parts)
        assert dominant_part(b) == want, (n, i, parts)
        if set(parts) == {1}:
            single_boxes += 1
            assert fus is gd, (n, i, parts)
    assert (len(CASES), single_boxes) == (84, 26)


def test_criterion_04_modules_match_the_fermionic_formula():
    for n in (1, 2, 3):
        for lam in itertools.product((0, 1, 2), repeat=n):
            rectangles = [(i, 1) for i in range(1, n + 1) for _ in range(lam[i - 1])]
            if lam == (2, 2, 2):
                # 9,216-dimensional: the full build takes 15 s, the
                # dominant window 7 s; level one is the local Weyl module
                got = dominant_part(rect_demazure_character(n, 1, lam))
            else:
                got = dominant_part(graded_character(local_weyl(n, lam)))
            assert got == predicted(n, rectangles), (n, lam)
        for i in range(1, n + 1):
            for ell in (1, 2):
                for m in (1, 2):
                    lam = weight_scale(ell * m, fundamental_weight(n, i))
                    got = dominant_part(graded_character(rect_demazure(n, ell, lam)))
                    assert got == predicted(n, [(i, ell)] * m), (n, i, ell, m)


def test_fermionic_formula_agrees_with_cocharge_at_node_one():
    for n, i, parts in CASES:
        if i == 1:
            cocharge = oracles.cocharge_graded_character(n, parts)
            want = {(wt, d): k for (wt, d), k in cocharge.items() if min(wt) >= 0}
            assert predicted(n, [(1, s) for s in parts]) == want, (n, parts)
