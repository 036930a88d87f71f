import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from krfl.typea import (
    Character,
    Partition,
    char_simple,
    dominant_rep,
    dominates,
    fundamental_weight,
    height,
    inner_product,
    is_dominant,
    lowest_dominant,
    partitions_of,
    positive_roots,
    root_weight,
    simple_root,
    tensor_decompose,
    to_avec,
    weight_add,
    weight_sub,
    weyl_act,
    weyl_compose,
    weyl_dim,
    weyl_elements,
    weyl_longest,
    weyl_simple,
    zero_weight,
)

import oracles


def test_inner_product_sl2():
    assert inner_product((1,), (1,)) == Fraction(1, 2)
    a1 = simple_root(1, 1)
    assert a1 == (2,)
    assert inner_product(a1, a1) == 2


def test_roots_and_theta():
    assert simple_root(3, 2) == (-1, 2, -1)
    assert root_weight(3, 1, 3) == (1, 0, 1)
    assert root_weight(1, 1, 1) == (2,)
    for n in (1, 2, 3):
        for a, b in positive_roots(n):
            alpha = root_weight(n, a, b)
            assert inner_product(alpha, alpha) == 2
            # (omega_i, alpha) = 1 exactly when i lies in the interval
            for i in range(1, n + 1):
                expected = 1 if a <= i <= b else 0
                assert inner_product(fundamental_weight(n, i), alpha) == expected


def test_weyl_longest_negates_and_flips():
    for n in (1, 2, 3):
        w0 = weyl_longest(n)
        for i in range(1, n + 1):
            assert weyl_act(w0, fundamental_weight(n, i)) == tuple(
                -x for x in fundamental_weight(n, n + 1 - i)
            )


def test_weyl_action_is_orthogonal_and_composes():
    n = 3
    lam = (1, 0, 2)
    mu = (0, 2, 1)
    for w in weyl_elements(n):
        assert inner_product(weyl_act(w, lam), weyl_act(w, mu)) == inner_product(
            lam, mu
        )
        inverse = tuple(sorted(range(1, n + 2), key=lambda k: w[k - 1]))
        assert weyl_compose(inverse, w) == tuple(range(1, n + 2))
        assert weyl_act(inverse, weyl_act(w, lam)) == lam
    s1, s2 = weyl_simple(n, 1), weyl_simple(n, 2)
    assert weyl_act(weyl_compose(s1, s2), lam) == weyl_act(s1, weyl_act(s2, lam))


def test_simple_reflection_formula():
    # s_i(mu) = mu - mu(h_i) alpha_i
    for n in (2, 3):
        mu = tuple((-1) ** k * k for k in range(1, n + 1))
        for i in range(1, n + 1):
            expected = weight_sub(
                mu, tuple(mu[i - 1] * c for c in simple_root(n, i))
            )
            assert weyl_act(weyl_simple(n, i), mu) == expected


def test_dominant_rep():
    assert dominant_rep((-2,)) == (2,)
    assert dominant_rep((1, -3, 2)) == dominant_rep((2, -3, 1)[::-1] + ())
    lam = (2, 0, 1)
    for w in weyl_elements(3):
        assert dominant_rep(weyl_act(w, lam)) == lam


def test_weyl_dim_small():
    for m in range(0, 7):
        assert weyl_dim((m,)) == m + 1
    assert weyl_dim((0, 2, 0)) == 20
    assert weyl_dim((1, 0, 1)) == 15
    assert weyl_dim((0, 1, 0)) == 6
    assert weyl_dim(zero_weight(3)) == 1


def test_weyl_dim_rejects_non_integral_weight():
    with pytest.raises(ValueError, match="integers"):
        weyl_dim((1.5,))
    assert weyl_dim((Fraction(2), 1.0)) == weyl_dim((2, 1))


def test_char_simple_rejects_non_integral_weight():
    with pytest.raises(ValueError, match="integers"):
        char_simple((Fraction(3, 2),))
    assert char_simple((2.0,)) == char_simple((2,))


def test_char_simple_sl2():
    assert char_simple((2,)) == Character({(2,): 1, (0,): 1, (-2,): 1})
    assert char_simple((0,)) == Character({(0,): 1})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_char_simple_against_tableau_oracle(n):
    coords = range(0, 3) if n < 3 else range(0, 2)
    import itertools

    for lam in itertools.product(coords, repeat=n):
        if sum(lam) == 0 or sum(lam) > 4:
            continue
        ch = char_simple(lam)
        assert ch.mass() == weyl_dim(lam)
        assert ch.is_weyl_invariant()
        for mu, m in ch.mult.items():
            assert oracles.kostka_multiplicity(lam, mu) == m
        # and no weights are missing
        total = sum(
            oracles.kostka_multiplicity(lam, mu) for mu in ch.mult
        )
        assert total == ch.mass()


# sha256 of the canonical JSON of [[lam, char_simple(lam).to_json()], ...]
# over the 165 dominant weights below, written out by the earlier
# recursion over every weight of V(lam) (about a minute at this size)
CHARACTER_GRID_SHA256 = (
    "db845b05277af396c69c08b7769289dd498b5e91fc1f255eb537437bb76464fc"
)


def test_characters_are_pinned_on_a_grid():
    grid = [
        lam
        for n, top in ((1, 3), (2, 3), (3, 3), (4, 2))
        for lam in itertools.product(range(top + 1), repeat=n)
    ]
    assert len(grid) == 165
    data = [[list(lam), char_simple(lam).to_json()] for lam in grid]
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CHARACTER_GRID_SHA256


def test_tensor_decompose_examples():
    assert tensor_decompose((1,), (1,)) == {(2,): 1, (0,): 1}
    got = tensor_decompose((0, 1, 0), (0, 1, 0))
    assert got == {(0, 2, 0): 1, (1, 0, 1): 1, (0, 0, 0): 1}


def test_tensor_decompose_against_lr_oracle():
    cases = [
        ((2,), (3,)),
        ((1, 1), (1, 1)),
        ((2, 0), (0, 1)),
        ((0, 1, 0), (0, 1, 0)),
        ((1, 0, 1), (0, 1, 0)),
        ((1, 0, 0), (0, 0, 2)),
    ]
    for lam, mu in cases:
        assert tensor_decompose(lam, mu) == oracles.lr_tensor_decompose(lam, mu)


def test_tensor_decompose_character_product():
    for lam, mu in [((2,), (2,)), ((1, 1), (2, 0)), ((0, 1, 1), (1, 0, 0))]:
        prod = char_simple(lam) * char_simple(mu)
        rebuilt = Character({})
        for nu, c in tensor_decompose(lam, mu).items():
            rebuilt = rebuilt.sub_scaled(char_simple(nu), -c)
        assert rebuilt == prod


# sha256 of the JSON of [[lam, mu, sorted [[nu, mult], ...]], ...] over
# {0,1,2}^3 x {0,1}^3, written out while the top weight was still picked
# by the rational inner product with rho
DECOMPOSITION_GRID_SHA256 = (
    "70ee8dfcab4864b62b2bcc741b858c6db6929b231401e1a4f7a97674cc3ed05d"
)


def test_tensor_decompositions_are_pinned_on_a_grid():
    rows = [
        [list(lam), list(mu), sorted([list(nu), c] for nu, c in dec.items())]
        for lam, mu, dec in (
            (lam, mu, tensor_decompose(lam, mu))
            for lam in itertools.product((0, 1, 2), repeat=3)
            for mu in itertools.product((0, 1), repeat=3)
        )
    ]
    assert len(rows) == 216
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DECOMPOSITION_GRID_SHA256


def test_height_is_twice_the_pairing_with_rho():
    for n in (1, 2, 3, 4):
        rho = (1,) * n
        for lam in itertools.product(range(-2, 3), repeat=n):
            assert height(lam) == 2 * inner_product(lam, rho), lam


def _box(n, r):
    return itertools.product(range(-r, r + 1), repeat=n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dominance_matches_sums_of_simple_roots(n):
    # mu >= nu iff mu - nu is a non-negative integer combination of simple
    # roots; in the box every such difference has coefficients below 13
    r = 2 if n < 4 else 1
    above = set()
    for coeffs in itertools.product(range(13), repeat=n):
        d = zero_weight(n)
        for i, c in enumerate(coeffs, 1):
            d = weight_add(d, tuple(c * x for x in simple_root(n, i)))
        above.add(d)
    nus = list(_box(n, r))
    for nu in nus[:: max(1, len(nus) // 9)]:
        for mu in _box(n, 2 * r):
            assert dominates(mu, nu) == (weight_sub(mu, nu) in above), (mu, nu)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lowest_dominant_lies_below_every_dominant_weight_of_its_coset(n):
    for lam in _box(n, 2):
        low = lowest_dominant(lam)
        assert is_dominant(low) and sum(low) <= 1, (lam, low)  # 0 or some omega_r
        shift = weight_sub(lam, low)
        assert sum(i * x for i, x in enumerate(shift, 1)) % (n + 1) == 0, (lam, low)
        if is_dominant(lam):
            assert dominates(lam, low), (lam, low)


def test_partition_rle_and_conjugate():
    xi = Partition((3, 2, 2))
    assert xi.rle() == ((2, 2), (3, 1))
    assert xi.conjugate() == Partition((3, 3, 1))
    assert Partition((2, 1)).conjugate() == Partition((2, 1))
    assert Partition(()).conjugate() == Partition(())


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_conjugate_is_involution_and_matches_columns():
    for m in range(0, 9):
        for xi in partitions_of(m):
            conj = xi.conjugate()
            assert conj.parts == oracles.conjugate_by_columns(xi.parts)
            assert conj.conjugate() == xi


def test_partitions_of_counts():
    assert sum(1 for _ in partitions_of(4)) == 5
    assert sum(1 for _ in partitions_of(6)) == 11
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_avec_roundtrip():
    lam = (1, -2, 3)
    assert to_avec(lam) == (2, 1, 3, 0)
    assert weight_add(lam, zero_weight(3)) == lam
