"""Acceptance gate: ten independent promises, one test each.

Every check in this file is exact.  There are no tolerances, no
rounding, and no floating point anywhere below; a criterion either
holds on the nose or its test fails.  Run with -v to get one line
per criterion.
"""

import itertools
import time
from fractions import Fraction
from functools import lru_cache

from krfl.demazure import (
    check_demazure_relations,
    check_gradrel_relations,
    find_nonrelation_witness,
    gen_demazure,
    local_weyl,
    rect_demazure,
)
from krfl.lweights import (
    KRFactor,
    _separated,
    blocks_cyclic,
    kr_monomial,
    q_factorize,
    trivial_lweight,
)
from krfl.modules import (
    check_axioms,
    cyclic_submodule,
    evaluation_module,
    fundamental_gmodule,
    fusion_product,
    graded_character,
    simple_gmodule,
    tensor_gmodules,
    tensor_modules,
)
from krfl.typea import (
    Partition,
    char_simple,
    fundamental_weight,
    partitions_of,
    tensor_decompose,
    weight_scale,
    weyl_dim,
)
from krfl.verify import verify_dim, verify_lemma_length, verify_point_independence

ONE = Fraction(1)

# the full verification grid: every rank up to 3, every node, every
# partition of at most 4 boxes, and rank 1 additionally up to 6 boxes
CASES = [
    (n, i, xi.parts)
    for n in (1, 2, 3)
    for m in range(1, (6 if n == 1 else 4) + 1)
    for xi in partitions_of(m)
    for i in range(1, n + 1)
]


@lru_cache(maxsize=None)
def bundle(n, i, parts):
    """Both sides of the main comparison.  They are built independently
    except for xi = (1^k), where both are the stored local Weyl module
    local_weyl(n, k omega_i) and the comparison is an identity; the
    fermionic-formula oracle checks those cases."""
    fus = fusion_product(n, i, parts)
    gd = gen_demazure(n, i, Partition(parts).conjugate().parts)
    return fus, gd, graded_character(fus), graded_character(gd)


def gen(m):
    return {m.cyclic_index: ONE}


def test_criterion_01_fusion_equals_generalized_demazure():
    t0 = time.monotonic()
    for n, i, parts in CASES:
        fus, gd, a, b = bundle(n, i, parts)
        assert fus.dim == gd.dim, (n, i, parts)
        assert a == b, (n, i, parts)
    assert time.monotonic() - t0 < 600


def test_criterion_02_degree_collapse_is_tensor_character():
    for n, i, parts in CASES:
        a = bundle(n, i, parts)[2].collapse()
        want = char_simple(weight_scale(parts[0], fundamental_weight(n, i)))
        for c in parts[1:]:
            want = want * char_simple(weight_scale(c, fundamental_weight(n, i)))
        assert a == want, (n, i, parts)


def test_criterion_03_relation_suite_annihilates_generator():
    for n, i, parts in CASES:
        fus = bundle(n, i, parts)[0]
        assert check_gradrel_relations(fus, gen(fus), i, parts) == [], (n, i, parts)
        wit = find_nonrelation_witness(fus, gen(fus), i, parts)
        if len(parts) >= 2:
            assert wit is not None, (n, i, parts)
        else:
            # single factor: truncation 0, so every word with a raising
            # generator in positive t-degree dies for lack of degrees and
            # no out-of-family pair can act nonzero
            assert wit is None, (n, i, parts)


def test_criterion_04_defining_relations_hold():
    for n in (1, 2, 3):
        for lam in itertools.product((0, 1, 2), repeat=n):
            lw = local_weyl(n, lam)
            assert check_demazure_relations(lw, gen(lw), 1, lam) == [], (n, lam)
        for i in range(1, n + 1):
            for ell in (1, 2):
                for m in (1, 2):
                    lam = weight_scale(ell * m, fundamental_weight(n, i))
                    d = rect_demazure(n, ell, lam)
                    assert check_demazure_relations(d, gen(d), ell, lam) == [], (
                        n,
                        i,
                        ell,
                        m,
                    )


def test_criterion_05_block_dimension_formula():
    for n, i, parts in CASES:
        r = verify_dim(n, i, parts)
        assert r.status == "pass", (n, i, parts, r.details)


def test_criterion_06_blocks_pass_order_criterion():
    for n in (1, 2, 3):
        for m in range(1, 7):
            for xi in partitions_of(m):
                for i in range(1, n + 1):
                    assert blocks_cyclic(n, i, xi), (n, i, xi.parts)


def test_criterion_07_translation_length_additivity():
    for n in (1, 2, 3):
        r = verify_lemma_length(n, samples=100, seed=7)
        assert r.status == "pass", r.to_json()


def test_criterion_08_rank3_dimension_facts():
    assert weyl_dim((0, 2, 0)) == 20
    assert weyl_dim((1, 0, 1)) == 15
    dec = tensor_decompose((0, 1, 0), (0, 1, 0))
    assert dec == {(0, 2, 0): 1, (1, 0, 1): 1, (0, 0, 0): 1}
    lw = local_weyl(3, (0, 2, 0))
    assert lw.dim == 36
    assert lw.dim > weyl_dim((0, 2, 0)) + weyl_dim((1, 0, 1))


def test_criterion_09_point_independence():
    for n, i, parts in CASES:
        r = verify_point_independence(n, i, parts, trials=3, seed=9)
        assert r.status == "pass", (n, i, parts, r.details)


def test_criterion_10_property_suites():
    # axiom checker on one module per constructor route, small instances
    f21 = fundamental_gmodule(2, 1)
    f22 = fundamental_gmodule(2, 2)
    gmods = [
        fundamental_gmodule(3, 2),
        simple_gmodule(2, (1, 1)),
        tensor_gmodules([f21, f22]),
    ]
    for m in gmods:
        assert check_axioms(m) == []
    ev = evaluation_module(simple_gmodule(1, (2,)), 3)
    pair = tensor_modules(
        [
            evaluation_module(simple_gmodule(2, (1, 0)), 0),
            evaluation_module(simple_gmodule(2, (0, 2)), 1),
        ]
    )
    tmods = [
        ev,
        pair,
        tensor_modules([local_weyl(1, (1,)), local_weyl(1, (2,))]),
        cyclic_submodule(pair, {pair.flat_index[(0, 0)]: ONE}),
        fusion_product(2, 1, (2, 1)),
        local_weyl(2, (1, 1)),
        rect_demazure(1, 2, (4,)),
        gen_demazure(2, 1, (2, 1)),
    ]
    for m in tmods:
        assert check_axioms(m) == []

    # string factorization round trip: rebuilding the product is the
    # independent half, recovering separated factors the unique half
    strings = [
        KRFactor(i, z, m)
        for i in (1, 2, 3)
        for z in range(-6, 7)
        for m in (1, 2, 3, 4)
    ]
    for f in strings:
        assert q_factorize(kr_monomial(3, f)) == [f]
    for f, g in itertools.combinations_with_replacement(strings, 2):
        pi = kr_monomial(3, f) * kr_monomial(3, g)
        fac = q_factorize(pi)
        back = trivial_lweight(3)
        for h in fac:
            back = back * kr_monomial(3, h)
        assert back == pi, (f, g)
        if _separated(f, g):
            assert sorted(fac) == sorted([f, g]), (f, g)

    for m in range(1, 9):
        for xi in partitions_of(m):
            assert xi.conjugate().conjugate() == xi, xi.parts

    for n in (1, 2, 3):
        for lam in itertools.product((0, 1, 2), repeat=n):
            assert char_simple(lam).is_weyl_invariant(), lam
