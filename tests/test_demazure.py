from collections import Counter
from fractions import Fraction

import pytest

import krfl.demazure
from krfl.demazure import (
    _mixed_words,
    check_demazure_relations,
    check_gradrel_relations,
    find_nonrelation_witness,
    gen_demazure,
    gradrel_required,
    level_exponents,
    local_weyl,
    rect_demazure,
)
from krfl.modules import (
    apply_word,
    check_axioms,
    cyclic_submodule,
    fusion_product,
    graded_character,
    tensor_modules,
)
from krfl.typea import (
    Partition,
    char_simple,
    fundamental_weight,
    partitions_of,
    positive_roots,
    weight_scale,
    weyl_dim,
)

from test_modules import unshared

ONE = Fraction(1)


def gen(m):
    return {m.cyclic_index: ONE}


class TestLocalWeyl:
    def test_sl2_two_columns(self):
        m = local_weyl(1, (2,))
        gc = graded_character(m)
        assert m.dim == 4
        assert gc.degree_dims() == {0: 3, 1: 1}
        assert gc.degree_slice(0) == char_simple((2,))
        assert check_axioms(m) == []

    def test_sl4_two_omega2(self):
        m = local_weyl(3, (0, 2, 0))
        assert m.dim == 36

    @pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2), (3, 3)])
    def test_fundamental_weight_is_flat(self, n, i):
        m = local_weyl(n, fundamental_weight(n, i))
        assert m.dim == weyl_dim(fundamental_weight(n, i))
        assert set(graded_character(m).degree_dims()) == {0}

    def test_zero_weight(self):
        m = local_weyl(2, (0, 0))
        assert m.dim == 1
        assert graded_character(m).mults == {((0, 0), 0): 1}

    @pytest.mark.parametrize("n,lam", [(1, (3,)), (2, (1, 1)), (2, (2, 1))])
    def test_dimension_product_formula(self, n, lam):
        m = local_weyl(n, lam)
        want = 1
        for i in range(1, n + 1):
            want *= weyl_dim(fundamental_weight(n, i)) ** lam[i - 1]
        assert m.dim == want

    def test_memoized(self):
        assert local_weyl(1, (2,)) is local_weyl(1, (2,))

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            local_weyl(2, (1, -1))

    def test_non_integral_weight_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            local_weyl(1, (1.5,))
        assert local_weyl(1, (Fraction(2),)) is local_weyl(1, (2,))

    @pytest.mark.parametrize("c", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_weight_rejected(self, c):
        with pytest.raises(ValueError, match="integers"):
            local_weyl(1, (c,))


class TestRectangular:
    def test_level_one_is_local_weyl(self):
        assert rect_demazure(2, 1, (2, 1)) is local_weyl(2, (2, 1))

    def test_sl2_level_two(self):
        m = rect_demazure(1, 2, (2,))
        gc = graded_character(m)
        assert m.dim == 3
        assert gc.degree_dims() == {0: 3}
        assert gc.collapse() == char_simple((2,))
        assert check_axioms(m) == []

    def test_sl4_level_two_square(self):
        m = rect_demazure(3, 2, (0, 2, 0))
        assert m.dim == 20
        assert graded_character(m).collapse() == char_simple((0, 2, 0))

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            rect_demazure(1, 2, (3,))

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            rect_demazure(1, 0, (0,))

    def test_non_integral_weight_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            rect_demazure(1, 1, (1.5,))
        assert rect_demazure(1, 2, (4.0,)) is rect_demazure(1, 2, (4,))

    @pytest.mark.parametrize(
        "n,i,ell,copies",
        [
            (1, 1, 1, 2),
            (1, 1, 2, 1),
            (1, 1, 2, 2),
            (1, 1, 3, 1),
            (2, 1, 2, 1),
            (2, 2, 2, 2),
            (2, 1, 3, 1),
        ],
    )
    def test_dimension_is_power_of_simple(self, n, i, ell, copies):
        lam = weight_scale(ell * copies, fundamental_weight(n, i))
        m = rect_demazure(n, ell, lam)
        assert m.dim == weyl_dim(weight_scale(ell, fundamental_weight(n, i))) ** copies


class TestGenDemazure:
    def test_single_block_is_rectangular(self):
        m = gen_demazure(1, 1, (2, 2))
        assert m is rect_demazure(1, 2, (4,))

    def test_sl2_two_one(self):
        m = gen_demazure(1, 1, (2, 1))
        gc = graded_character(m)
        assert gc.degree_dims() == {0: 4, 1: 2}
        assert gc == graded_character(fusion_product(1, 1, (2, 1)))

    @pytest.mark.parametrize(
        "n,i,xi",
        [(1, 1, (2, 1)), (1, 1, (2, 2, 1)), (2, 1, (2, 1)), (2, 2, (3, 1))],
    )
    def test_tensor_order_does_not_change_character(self, n, i, xi):
        omega = fundamental_weight(n, i)
        blocks = reversed(Partition(xi).rle())
        rev = tensor_modules(
            [rect_demazure(n, b, weight_scale(b * m, omega)) for m, b in blocks]
        )
        desc = graded_character(cyclic_submodule(rev, gen(rev)))
        assert graded_character(gen_demazure(n, i, xi)) == desc

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            gen_demazure(1, 1, ())

    @pytest.mark.parametrize(
        "n,i,xi",
        [
            (1, 1, (2, 1)),
            (1, 1, (3, 1)),
            (1, 1, (2, 2)),
            (2, 1, (2, 1)),
            (2, 2, (1, 1)),
            (3, 2, (2,)),
        ],
    )
    def test_matches_fusion_of_conjugate(self, n, i, xi):
        f = graded_character(fusion_product(n, i, xi))
        g = graded_character(gen_demazure(n, i, Partition(xi).conjugate()))
        assert f == g


class TestLevelExponents:
    def test_division_rule(self):
        assert level_exponents(1, 2) == (2, 1)
        assert level_exponents(2, 2) == (1, 2)
        assert level_exponents(2, 3) == (2, 1)
        assert level_exponents(3, 7) == (3, 1)

    def test_remainder_range(self):
        for ell in range(1, 6):
            for pairing in range(1, 20):
                s, mm = level_exponents(ell, pairing)
                assert pairing == (s - 1) * ell + mm
                assert 0 < mm <= ell

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            level_exponents(2, 0)

    @pytest.mark.parametrize("ell", [0, -1])
    def test_level_below_one_rejected(self, ell):
        with pytest.raises(ValueError, match="level must be positive"):
            level_exponents(ell, 1)
        m = local_weyl(1, (1,))
        with pytest.raises(ValueError, match="level must be positive"):
            check_demazure_relations(m, gen(m), ell, (1,))


class TestDemazureRelations:
    def test_local_weyl_cases(self):
        m = local_weyl(1, (2,))
        assert check_demazure_relations(m, gen(m), 1, (2,)) == []

    def test_rectangular_cases(self):
        m = rect_demazure(1, 2, (2,))
        assert check_demazure_relations(m, gen(m), 2, (2,)) == []
        m = rect_demazure(2, 2, (2, 0))
        assert check_demazure_relations(m, gen(m), 2, (2, 0)) == []

    def test_wrong_level_is_caught(self):
        m = local_weyl(1, (2,))
        report = check_demazure_relations(m, gen(m), 2, (2,))
        assert report != []

    def test_wrong_weight_is_caught(self):
        m = local_weyl(1, (2,))
        assert check_demazure_relations(m, gen(m), 1, (4,)) != []

    def test_zero_pairing_roots(self):
        m = local_weyl(2, (2, 0))
        assert check_demazure_relations(m, gen(m), 1, (2, 0)) == []

    def test_non_integral_weight_rejected(self):
        m = local_weyl(1, (1,))
        with pytest.raises(ValueError, match="integers"):
            check_demazure_relations(m, gen(m), 1, (1.5,))
        assert check_demazure_relations(m, gen(m), 1, (Fraction(1),)) == []

    def test_vector_outside_degree_zero_is_one_message(self):
        m = fusion_product(1, 1, (1, 1))
        (top,) = [
            j for j, w in enumerate(m.weights) if w == (0,) and m.degrees[j] == 1
        ]
        assert check_demazure_relations(m, {top: ONE}, 1, (0,)) == [
            "generator is not in degree zero"
        ]

    def test_level_one_module_fails_the_level_two_power_relation(self):
        m = local_weyl(1, (3,))
        assert check_demazure_relations(m, gen(m), 2, (3,)) == [
            "lowering root (1,1) t^2 does not kill the generator",
            "power 2 of lowering root (1,1) t^1 is nonzero",
        ]

    def test_torus_eigenvalue_is_checked(self):
        m = unshared(lambda: local_weyl(2, (1, 0)))
        c = m.cyclic_index
        m.matrix("h", 1, 0)
        m._mats[("h", 1, 0)] = {c: ((c, 7),)}
        assert check_demazure_relations(m, gen(m), 1, (1, 0)) == [
            "torus eigenvalue at node 1 is wrong"
        ]


class TestGradedRelations:
    def test_required_set_examples(self):
        # single part: every pair with s >= 1 is required
        assert gradrel_required(1, 1, (3,))
        assert gradrel_required(5, 1, (3,))
        # two parts of size one: (1,2) in, (1,1) out
        assert gradrel_required(1, 2, (1, 1))
        assert not gradrel_required(1, 1, (1, 1))

    @pytest.mark.parametrize(
        "n,i,xi",
        [
            (1, 1, (1,)),
            (1, 1, (1, 1)),
            (1, 1, (2, 1)),
            (1, 1, (2, 2)),
            (2, 1, (2, 1)),
            (2, 2, (1, 1)),
        ],
    )
    def test_fusion_satisfies_family(self, n, i, xi):
        m = fusion_product(n, i, xi)
        assert check_gradrel_relations(m, gen(m), i, xi) == []

    def test_mixed_word_example(self):
        m = fusion_product(1, 1, (1, 1))
        v = gen(m)
        assert apply_word(m, v, [("f", 1, 0, 3), ("e", 1, 1, 2)]) == {}
        assert apply_word(m, v, [("f", 1, 0, 2), ("e", 1, 1, 1)]) != {}

    @pytest.mark.parametrize(
        "n,i,xi",
        [(n, i, xi.parts) for n in (1, 2) for i in range(1, n + 1)
         for size in range(1, 5) for xi in partitions_of(size)]
        + [(3, 2, (2, 1))],
    )
    def test_walk_matches_words_built_from_the_generator(self, n, i, xi):
        m = fusion_product(n, i, xi)
        v = gen(m)
        qmax = 2 * sum(xi) + 2
        walk = list(_mixed_words(m, v, i, qmax, qmax))
        order = [(root, r + s, s) for root, r, s, _ in walk]
        assert order == sorted(order)
        images = {(root, r, s): w for root, r, s, w in walk}
        for root in positive_roots(n):
            if not root[0] <= i <= root[1]:
                continue
            for q in range(2, qmax + 1):
                for s in range(1, q):
                    want = apply_word(m, v, [("f", root, 0, q), ("e", root, 1, s)])
                    assert images.get((root, q - s, s), {}) == want, (root, q - s, s)

    def test_lowest_weight_vector_is_one_message(self):
        m = fusion_product(2, 1, (1, 1))
        (low,) = [j for j, w in enumerate(m.weights) if w == (0, -2)]
        assert check_gradrel_relations(m, {low: ONE}, 1, (1, 1)) == [
            "generator does not have the claimed weight"
        ]

    def test_torus_relation_is_checked(self):
        m = unshared(lambda: fusion_product(2, 1, (1, 1)))
        v = gen(m)
        m._mats[("h", 1, 1)] = {m.cyclic_index: ((m.cyclic_index, 1),)}
        report = check_gradrel_relations(m, v, 1, (1, 1))
        assert "torus node 1 t^1 does not kill the generator" in report

    def test_single_part_family_and_one_walk_per_root(self, monkeypatch):
        # against xi = (2,) every pair is required, and the fusion of two
        # one-box parts is nonzero on (r, s) = (1, 1) at both roots
        # through node 1; the walk reaches each lowering power once, so
        # each root costs |xi| + 1 letters f for the power relation and
        # at most |xi| + 1 more, since f^{|xi|+1} kills the generator
        m = fusion_product(2, 1, (1, 1))
        letters = Counter()

        def counting(mod, vec, word):
            for sym, loc, k, power in word:
                if sym == "f" and k == 0:
                    letters[loc] += power
            return apply_word(mod, vec, word)

        monkeypatch.setattr(krfl.demazure, "apply_word", counting)
        assert check_gradrel_relations(m, gen(m), 1, (2,)) == [
            "mixed relation (r=1, s=1) at root (1,1) is nonzero",
            "mixed relation (r=1, s=1) at root (1,2) is nonzero",
        ]
        assert letters[(1, 1)] <= 2 * 3 and letters[(1, 2)] <= 2 * 3

    def test_power_relation_is_checked(self):
        m = unshared(lambda: fusion_product(1, 1, (1, 1)))
        c = m.cyclic_index
        m.matrix("f", 1, 0)
        m._mats[("f", 1, 0)] = {c: ((c, 1),)}
        report = check_gradrel_relations(m, gen(m), 1, (1, 1))
        assert "power 3 of lowering root (1,1) is nonzero" in report

    @pytest.mark.parametrize(
        "check", [check_gradrel_relations, find_nonrelation_witness]
    )
    def test_empty_partition_is_rejected(self, check):
        m = fusion_product(1, 1, (1, 1))
        with pytest.raises(ValueError, match="nonempty"):
            check(m, gen(m), 1, ())

    def test_witness_for_sharpness(self):
        m = fusion_product(1, 1, (1, 1))
        assert find_nonrelation_witness(m, gen(m), 1, (1, 1)) == ((1, 1), 1, 1)

    def test_no_witness_for_single_part(self):
        # evaluation at one point: everything in positive t-degree dies,
        # so every out-of-family word already acts as zero
        m = fusion_product(1, 1, (3,))
        assert find_nonrelation_witness(m, gen(m), 1, (3,)) is None


class TestIsomorphismSweep:
    """Graded character equality of the two constructions, small range."""

    @pytest.mark.parametrize("n,i", [(1, 1), (2, 1), (2, 2)])
    def test_all_partitions_up_to_four(self, n, i):
        for size in range(1, 5):
            for xi in partitions_of(size):
                f = graded_character(fusion_product(n, i, xi.parts))
                g = graded_character(gen_demazure(n, i, xi.conjugate()))
                assert f == g, (n, i, xi.parts)
