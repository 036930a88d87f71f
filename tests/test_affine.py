import random

from krfl.affine import (
    ExtAffineElt,
    ext_finite,
    ext_translation,
    length,
)
from krfl.typea import (
    inner_product,
    root_weight,
    weight_add,
    weyl_act,
    weyl_compose,
    weyl_elements,
    weyl_identity,
    weyl_simple,
    zero_weight,
)

import oracles


def rand_weight(rng, n, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def rand_elt(rng, n):
    return ExtAffineElt(rng.choice(weyl_elements(n)), rand_weight(rng, n))


def simple(n, i):
    """s_i; s_0 = t_theta ∘ s_theta with theta = alpha_1 + ... + alpha_n."""
    if i == 0:
        p = list(weyl_identity(n))
        p[0], p[n] = p[n], p[0]
        return ExtAffineElt(tuple(p), root_weight(n, 1, n))
    return ext_finite(weyl_simple(n, i))


def inverse(x):
    """(t_mu ∘ w)^{-1} = t_{-w^{-1} mu} ∘ w^{-1}."""
    n = x.rank
    wi = next(v for v in weyl_elements(n) if weyl_compose(v, x.w) == weyl_identity(n))
    return ExtAffineElt(wi, tuple(-c for c in weyl_act(wi, x.mu)))


def act(x, finite, level, dcoef):
    """t_mu ∘ w on the affine weight finite + level Lambda_0 + dcoef delta:
    t_mu(lam + l Lambda_0) = lam + l mu + l Lambda_0 - ((lam, mu) + l (mu, mu)/2) delta."""
    lam = weyl_act(x.w, finite)
    drop = inner_product(lam, x.mu) + level * inner_product(x.mu, x.mu) / 2
    return weight_add(lam, tuple(level * c for c in x.mu)), level, dcoef - drop


def test_group_action_homomorphism():
    rng = random.Random(13)
    for n in (1, 2, 3):
        for _ in range(15):
            x, y = rand_elt(rng, n), rand_elt(rng, n)
            L = (rand_weight(rng, n), rng.randint(0, 3), rng.randint(-2, 2))
            assert act(x.compose(y), *L) == act(x, *act(y, *L))
            assert x.compose(inverse(x)) == ext_translation(zero_weight(n))
            assert act(inverse(x), *act(x, *L)) == L


def test_length_simple_reflections():
    for n in (1, 2, 3):
        assert length(ext_translation(zero_weight(n))) == 0
        for i in range(n + 1):
            assert length(simple(n, i)) == 1


def test_length_translations_sl2():
    assert length(ext_translation((-2,))) == 2  # t_{-alpha_1}
    assert length(ext_translation((-1,))) == 1  # t_{-omega_1}
    assert length(ext_translation((2,))) == 2
    # the length zero generator of the extended group mod the affine one
    sigma = ExtAffineElt((2, 1), (1,))
    assert length(sigma) == 0
    assert sigma.compose(sigma) == ext_translation((0,))


def test_length_of_finite_part():
    for n in (2, 3):
        for w in weyl_elements(n):
            inv = sum(
                1
                for a in range(n + 1)
                for b in range(a + 1, n + 1)
                if w[a] > w[b]
            )
            assert length(ext_finite(w)) == inv


def test_length_inverse():
    rng = random.Random(17)
    for n in (1, 2, 3):
        for _ in range(25):
            x = rand_elt(rng, n)
            assert length(x) == length(inverse(x))


def test_length_simple_step():
    rng = random.Random(19)
    for n in (1, 2, 3):
        for _ in range(15):
            x = rand_elt(rng, n)
            for i in range(n + 1):
                assert abs(length(simple(n, i).compose(x)) - length(x)) == 1


def test_translation_additivity():
    # l(t_{-lam-mu} w) = l(t_{-lam}) + l(t_{-mu} w) for dominant lam, mu
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(40):
            lam = tuple(rng.randint(0, 3) for _ in range(n))
            mu = tuple(rng.randint(0, 3) for _ in range(n))
            w = rng.choice(weyl_elements(n))
            both = ExtAffineElt(w, tuple(-a - b for a, b in zip(lam, mu)))
            left = ext_translation(tuple(-a for a in lam))
            right = ExtAffineElt(w, tuple(-b for b in mu))
            assert length(both) == length(left) + length(right)


def test_length_matches_root_count():
    rng = random.Random(29)
    for n in (1, 2, 3, 4):
        for _ in range(300):
            x = rand_elt(rng, n)
            assert length(x) == oracles.affine_length_by_roots(x.w, x.mu)
