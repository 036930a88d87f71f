"""Node-1 and node-n fusion characters against an engine-free oracle.

For a partition xi, the fusion of V(xi_1 omega_1), V(xi_2 omega_1), ...
holds V(lam) with graded multiplicity q^{n(xi)} K_{lam,xi}(q^{-1}), a
cocharge Kostka-Foulkes polynomial.  tests/oracles.py computes it from
charge on semistandard tableaux and shares no code with the engine.
Node n is node 1 under the diagram automorphism, which reverses weights.
"""

import pytest

import oracles
from krfl.modules import fusion_product, graded_character
from test_acceptance import CASES

NODE_CASES = [(n, i, parts) for n, i, parts in CASES if i in (1, n)]


@pytest.mark.parametrize("lam, mu", [((0,), (0,)), ((0, 0), (0, 0)), ((0, 0), (1, -2))])
def test_kostka_multiplicity_of_the_trivial_module(lam, mu):
    assert oracles.kostka_multiplicity(lam, mu) == (1 if not any(mu) else 0)


def test_charge_of_small_tableaux():
    # K_{(2,1),(1,1,1)} = q + q^2 and K_{(2,2),(2,1,1)} = q
    assert sorted(map(oracles.charge, oracles.ssyt((2, 1), (1, 1, 1)))) == [1, 2]
    assert [oracles.charge(t) for t in oracles.ssyt((2, 2), (2, 1, 1))] == [1]


def test_fusion_character_is_cocharge_kostka_foulkes():
    # rank 1 up to 6 boxes, ranks 2 and 3 up to 4 boxes at two nodes each
    assert len(NODE_CASES) == 29 + 2 * 11 + 2 * 11
    for n, i, parts in NODE_CASES:
        want = oracles.cocharge_graded_character(n, parts)
        if i != 1:
            want = {(wt[::-1], d): k for (wt, d), k in want.items()}
        got = graded_character(fusion_product(n, i, parts)).mults
        assert got == want, (n, i, parts)
