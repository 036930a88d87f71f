import hashlib
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import krfl.modules
from krfl.demazure import (
    check_demazure_relations,
    gen_demazure,
    gen_demazure_character,
    local_weyl,
    rect_demazure,
    rect_demazure_character,
)
from krfl.linalg import Echelon, mat_from_columns, mat_scale
from krfl.modules import (
    STORE_BUDGET,
    GradedCharacter,
    GtModule,
    apply_word,
    check_axioms,
    cyclic_submodule,
    default_points,
    evaluation_module,
    fundamental_gmodule,
    fusion_character,
    fusion_filtration,
    fusion_of_simples,
    fusion_product,
    graded_character,
    module_store,
    simple_gmodule,
    tensor_gmodules,
    tensor_modules,
)
from krfl.typea import (
    Character,
    char_simple,
    dominant_rep,
    dominates,
    fundamental_weight,
    is_dominant,
    partitions_of,
    weight_scale,
    weyl_dim,
)

ONE = Fraction(1)


def top_vec(m):
    return {m.cyclic_index: ONE}


def unshared(build):
    """build() where no other caller can get it, so a test may corrupt it.

    module_store is emptied before the build, so build() returns no
    module another caller already holds, and after it, so no later
    caller gets the new one."""
    module_store.cache_clear()
    m = build()
    module_store.cache_clear()
    return m


class TestFundamental:
    def test_sl2_natural(self):
        m = fundamental_gmodule(1, 1)
        assert m.dim == 2
        assert m.weights == [(1,), (-1,)]
        assert check_axioms(m) == []

    def test_sl4_second_node_is_wedge_square(self):
        m = fundamental_gmodule(3, 2)
        assert m.dim == 6
        assert Character(Counter(m.weights)) == char_simple((0, 1, 0))
        assert check_axioms(m) == []

    @pytest.mark.parametrize("n,i", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (4, 2)])
    def test_character_matches_simple(self, n, i):
        m = fundamental_gmodule(n, i)
        lam = fundamental_weight(n, i)
        assert m.dim == weyl_dim(lam)
        assert Character(Counter(m.weights)) == char_simple(lam)
        assert m.weights[m.cyclic_index] == lam

    def test_node_out_of_range(self):
        with pytest.raises(ValueError):
            fundamental_gmodule(2, 3)


class TestSimple:
    def test_sl2_string_module(self):
        m = simple_gmodule(1, (3,))
        assert m.dim == 4
        assert sorted(m.weights) == [(-3,), (-1,), (1,), (3,)]
        assert check_axioms(m) == []

    def test_sl4_two_omega2(self):
        m = simple_gmodule(3, (0, 2, 0))
        assert m.dim == 20
        assert Character(Counter(m.weights)) == char_simple((0, 2, 0))

    def test_trivial(self):
        m = simple_gmodule(2, (0, 0))
        assert m.dim == 1
        assert m.matrix("e", 1, 0) == {}
        assert m.matrix("h", 2, 0) == {}
        assert check_axioms(m) == []

    @pytest.mark.parametrize(
        "n,lam", [(1, (4,)), (2, (1, 1)), (2, (2, 1)), (3, (1, 0, 1))]
    )
    def test_dimension_and_character(self, n, lam):
        m = simple_gmodule(n, lam)
        assert m.dim == weyl_dim(lam)
        assert Character(Counter(m.weights)) == char_simple(lam)
        assert check_axioms(m) == []

    def test_top_vector_is_singular(self):
        m = simple_gmodule(2, (1, 1))
        v = {m.cyclic_index: ONE}
        assert m.act("e", 1, 0, v) == {}
        assert m.act("e", 2, 0, v) == {}

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            simple_gmodule(2, (1, -1))

    def test_non_integral_weight_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            simple_gmodule(1, (1.5,))
        assert simple_gmodule(1, (Fraction(2),)).dim == 3

    @pytest.mark.parametrize("c", [float("inf"), float("nan")])
    def test_non_finite_weight_rejected(self, c):
        with pytest.raises(ValueError, match="integers"):
            simple_gmodule(1, (c,))


class TestGTensor:
    def test_character_is_product(self):
        a = fundamental_gmodule(2, 1)
        b = fundamental_gmodule(2, 2)
        t = tensor_gmodules([a, b])
        assert t.dim == 9
        assert Character(Counter(t.weights)) == (
            Character(Counter(a.weights)) * Character(Counter(b.weights))
        )
        assert check_axioms(t) == []

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            tensor_gmodules([fundamental_gmodule(1, 1), fundamental_gmodule(2, 1)])


class TestEvaluation:
    def test_at_zero_kills_positive_powers(self):
        m = evaluation_module(simple_gmodule(1, (2,)), 0)
        assert m.matrix("f", 1, 0) != {}
        assert m.matrix("f", 1, 1) == {}
        assert m.matrix("f", 1, 5) == {}

    def test_at_one_repeats_base(self):
        m = evaluation_module(simple_gmodule(1, (2,)), 1)
        assert m.matrix("e", 1, 0) == m.matrix("e", 1, 3)

    def test_scalar_is_power_of_point(self):
        m = evaluation_module(simple_gmodule(1, (1,)), 2)
        base = m.matrix("f", 1, 0)
        want = {c: tuple((r, 8 * x) for r, x in col) for c, col in base.items()}
        assert m.matrix("f", 1, 3) == want

    def test_axioms(self):
        m = evaluation_module(simple_gmodule(2, (1, 0)), Fraction(-3, 2))
        assert check_axioms(m) == []

    def test_fractional_point_keeps_integral_entries_int(self):
        m = evaluation_module(simple_gmodule(1, (2,)), Fraction(1, 2))
        mat = m.matrix("f", 1, 1)
        assert mat == {0: ((1, Fraction(1, 2)),), 1: ((2, 1),)}
        assert type(mat[1][0][1]) is int


class TestCurrentTensor:
    def test_mixing_rejected(self):
        ev = evaluation_module(simple_gmodule(1, (1,)), 0)
        gr = fusion_product(1, 1, (1,))
        with pytest.raises(ValueError):
            tensor_modules([ev, gr])

    def test_no_factors_rejected(self):
        with pytest.raises(ValueError, match="at least one factor required"):
            tensor_modules([])

    def test_eval_tensor_axioms(self):
        a = evaluation_module(simple_gmodule(1, (1,)), 0)
        b = evaluation_module(simple_gmodule(1, (2,)), 3)
        t = tensor_modules([a, b])
        assert t.trunc == 1
        assert t.points == (Fraction(0), Fraction(3))
        assert check_axioms(t) == []

    def test_nested_tensor_matches_flat(self):
        ev = [evaluation_module(simple_gmodule(1, (1,)), z) for z in (0, 1, 2)]
        flat = tensor_modules(ev)
        nested = tensor_modules([tensor_modules(ev[:2]), ev[2]])
        assert nested.trunc == flat.trunc == 2
        assert cyclic_submodule(nested, top_vec(nested)).dim == 8
        want = graded_character(fusion_filtration(flat, top_vec(flat)))
        assert graded_character(fusion_filtration(nested, top_vec(nested))) == want

    def test_relation_check_builds_only_lowering_matrices(self):
        # the closure and the relation words act through the ambient's
        # column store, so no whole ambient matrix is built
        lams = [(1, 0), (1, 0), (0, 1)]
        amb = tensor_modules(
            [evaluation_module(simple_gmodule(2, lam), z) for z, lam in enumerate(lams)]
        )
        fus = fusion_filtration(amb, top_vec(amb))
        assert fus.dim == 27
        assert check_demazure_relations(fus, {0: ONE}, 1, (2, 1)) == []
        assert not amb._mats

    def test_no_candidate_targets_a_full_weight_space(self, monkeypatch):
        # once the closure spans a weight space of the ambient, no further
        # image is generated into it
        lams = [(1, 0), (1, 0), (0, 1)]
        amb = tensor_modules(
            [evaluation_module(simple_gmodule(2, lam), z) for z, lam in enumerate(lams)]
        )
        capacity = Counter(amb.weights)
        insert = Echelon.insert
        calls, into_full = [], []

        def spy(self, v, label, meta=None):
            calls.append(label)
            if len(self.pivots.get(label, ())) >= capacity[label]:
                into_full.append(label)
            return insert(self, v, label, meta)

        monkeypatch.setattr(Echelon, "insert", spy)
        fus = fusion_filtration(amb, top_vec(amb))
        assert fus.dim == amb.dim == 27
        assert len(calls) > fus.dim
        assert into_full == []

    def test_no_candidate_targets_a_complete_stage_weight(self, monkeypatch):
        # each stage of a fusion filtration or a graded closure is a
        # g-module, so once a non-dominant weight holds as many rows of a
        # tag as its dominant representative, no further image of that tag
        # is offered to it
        insert = Echelon.insert
        counts, calls, redundant = {}, [], []

        def spy(self, v, label, meta=None):
            count = counts.setdefault(self, Counter())
            wt, tag = meta
            calls.append(meta)
            if not is_dominant(wt) and count[meta] >= count[(dominant_rep(wt), tag)]:
                redundant.append(meta)
            new = insert(self, v, label, meta)
            if new is not None:
                count[meta] += 1
            return new

        amb = _eval_tensor([(1, 0), (1, 0), (0, 1)])
        base = local_weyl(2, (1, 1))
        graded = tensor_modules([base, base])
        monkeypatch.setattr(Echelon, "insert", spy)
        fus = fusion_filtration(amb, top_vec(amb))
        sub = cyclic_submodule(graded, top_vec(graded))
        assert fus.dim == 27
        assert graded_character(sub) == graded_character(rect_demazure(2, 2, (2, 2)))
        assert len(calls) > fus.dim + sub.dim
        assert redundant == []

    def test_weights_add(self):
        a = evaluation_module(simple_gmodule(2, (1, 0)), 0)
        b = evaluation_module(simple_gmodule(2, (0, 1)), 1)
        t = tensor_modules([a, b])
        assert t.weight_of(top_vec(t)) == (1, 1)


# the ambient of local_weyl(3, (2, 1, 1)): 384 dimensions
LOCAL_WEYL_211 = [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


class TestColumnStore:
    """A tensor product acts through columns built on first touch."""

    def test_closures_build_no_whole_tensor_matrix(self, monkeypatch):
        matrix = GtModule.matrix
        whole = []

        def spy(self, sym, i, k):
            if hasattr(self, "flat_index"):  # a tensor product
                whole.append((self.dim, sym, i, k))
            return matrix(self, sym, i, k)

        monkeypatch.setattr(GtModule, "matrix", spy)
        module_store.cache_clear()
        simple_gmodule.cache_clear()
        local_weyl(3, (2, 1, 1))
        rect_demazure(3, 2, (0, 4, 0))
        gen_demazure(3, 1, (2, 2, 1))
        module_store.cache_clear()
        assert whole == []

    def test_lowering_with_t_builds_fewer_columns_than_the_ambient(
        self, monkeypatch
    ):
        amb = _eval_tensor(LOCAL_WEYL_211)
        column_maker = GtModule.column_maker
        built = Counter()

        def spy(self, sym, i, k):
            make = column_maker(self, sym, i, k)

            def count(j):
                if self is amb:
                    built[sym, i, k] += 1
                return make(j)

            return count

        monkeypatch.setattr(GtModule, "column_maker", spy)
        fus = fusion_filtration(amb, top_vec(amb))
        assert graded_character(fus) == graded_character(local_weyl(3, (2, 1, 1)))
        with_t = {key: c for key, c in built.items() if key[2] >= 1}
        assert {sym for sym, _, _ in built} == {"f"}
        assert {(i, k) for _, i, k in with_t} == {
            (i, k) for i in (1, 2, 3) for k in (1, 2, 3)
        }
        assert max(with_t.values()) < amb.dim == 384

    def test_store_is_empty_after_each_closure(self):
        amb = _eval_tensor(LOCAL_WEYL_211)
        fusion_filtration(amb, top_vec(amb))
        windowed = _eval_tensor(LOCAL_WEYL_211)
        windowed.floor = (0, 1, 0)
        fusion_filtration(windowed, top_vec(windowed))
        base = local_weyl(2, (1, 1))
        graded = tensor_modules([base, base])
        cyclic_submodule(graded, top_vec(graded))
        for m in (amb, windowed, graded):
            assert m._cols == {}
            assert m._mats == {}

    def test_matrix_build_releases_the_ambient_columns_it_read(self):
        amb = _eval_tensor([(1, 0), (1, 0), (0, 1)])
        fus = fusion_filtration(amb, top_vec(amb))
        assert fus.act("f", 1, 1, top_vec(fus))  # one vector, through amb
        assert amb._cols == {}
        assert fus.act("e", 2, 0, {fus.dim - 1: ONE})
        assert amb._cols == {}
        assert set(fus._cols) == {("f", 1, 1), ("e", 2, 0)}
        fus.matrix("f", 1, 1)  # every row, through amb
        assert amb._cols == {}
        assert set(fus._cols) == {("e", 2, 0)}

    def test_fusion_computes_no_image_above_the_top_degree(self, monkeypatch):
        amb = _eval_tensor([(1, 0), (1, 0), (0, 1)])
        fus = fusion_filtration(amb, top_vec(amb))
        top = fus.top_degree()
        acted = []

        def spy(sym, i, k, vec):
            acted.append(k)
            return GtModule.act(amb, sym, i, k, vec)

        monkeypatch.setattr(amb, "act", spy)
        # one vector: a row of degree d under t^k, d + k > top, is not lifted
        for j, d in enumerate(fus.degrees):
            for k in range(top - d + 1, fus.trunc + 1):
                assert fus.act("f", 1, k, {j: ONE}) == {}
        assert acted == []
        # a matrix: one ambient image per row of degree ≤ top - k
        for k in range(fus.trunc + 1):
            fus.matrix("e", 2, k)
            assert len(acted) == sum(d + k <= top for d in fus.degrees)
            acted.clear()


# sha256 of the e/f/h matrices at t^0..t^trunc (digest_of_matrices), as
# the engine wrote them before tensor products acted through columns
MATRIX_DIGESTS = {
    "local_weyl(3,(2,1,1))": (
        lambda: local_weyl(3, (2, 1, 1)),
        "bb09aedcdc4639df40d73a632d969ad7fce41bd60f492d15eadd76ffab4e50d0",
    ),
    "fusion_product(3,1,(2,2,1))": (
        lambda: fusion_product(3, 1, (2, 2, 1)),
        "a1a29fd159409b56c5ddabfe05c2aa235ca52b5bc3398eea8b8f0d5ba08c6d39",
    ),
    "fusion_product(3,2,(2,1,1))": (
        lambda: fusion_product(3, 2, (2, 1, 1)),
        "bf1bf4022bc1ce0d36a34eb801cea23e6c158606ff02d901a201bdd1811c2108",
    ),
    "rect_demazure(3,2,(0,4,0))": (
        lambda: rect_demazure(3, 2, (0, 4, 0)),
        "f0e83a0497271c77c46543a1dfd2fc29d18af9cf2e18c22f7c629a7d731d2708",
    ),
    "gen_demazure(3,1,(2,2,1))": (
        lambda: gen_demazure(3, 1, (2, 2, 1)),
        "be17f8ff08d65cdc5bec78ca28efc52258baebf76aefa3e2a85030f3ff1cc50e",
    ),
}


def digest_of_matrices(m):
    h = hashlib.sha256()
    for sym in "efh":
        for i in range(1, m.rank + 1):
            for k in range(m.trunc + 1):
                mat = sorted(m.matrix(sym, i, k).items())
                h.update(repr((sym, i, k, mat)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(MATRIX_DIGESTS))
def test_module_matrices_are_pinned(case):
    build, want = MATRIX_DIGESTS[case]
    assert digest_of_matrices(unshared(build)) == want


class TestCyclicSubmodule:
    def test_same_point_top_tensor_closes_to_cartan_component(self):
        factors = [
            evaluation_module(simple_gmodule(1, (1,)), 0),
            evaluation_module(simple_gmodule(1, (1,)), 0),
        ]
        t = tensor_modules(factors)
        sub = cyclic_submodule(t, top_vec(t))
        assert sub.dim == 3
        assert sorted(sub.weights) == [(-2,), (0,), (2,)]
        assert check_axioms(sub) == []

    def test_distinct_points_top_tensor_generates_everything(self):
        factors = [
            evaluation_module(simple_gmodule(1, (1,)), 0),
            evaluation_module(simple_gmodule(1, (1,)), 1),
        ]
        t = tensor_modules(factors)
        sub = cyclic_submodule(t, top_vec(t))
        assert sub.dim == 4

    def test_idempotent(self):
        factors = [
            evaluation_module(simple_gmodule(1, (2,)), 0),
            evaluation_module(simple_gmodule(1, (1,)), 2),
        ]
        t = tensor_modules(factors)
        sub = cyclic_submodule(t, top_vec(t))
        again = cyclic_submodule(sub, {0: ONE})
        assert again.dim == sub.dim

    def test_zero_vector_rejected(self):
        t = evaluation_module(simple_gmodule(1, (1,)), 0)
        with pytest.raises(ValueError):
            cyclic_submodule(t, {})

    def test_mixed_weight_rejected(self):
        t = evaluation_module(simple_gmodule(1, (1,)), 0)
        with pytest.raises(ValueError):
            cyclic_submodule(t, {0: ONE, 1: ONE})

    @pytest.mark.parametrize("index", [-1, 99])
    def test_index_outside_the_basis_rejected(self, index):
        # a negative index would wrap round to the last basis vector
        with pytest.raises(ValueError, match="outside the basis"):
            cyclic_submodule(fusion_product(2, 1, (1,)), {index: ONE})

    def test_weight_of_rejects_an_index_outside_the_basis(self):
        # a negative index would read the last basis weight
        with pytest.raises(ValueError, match="outside the basis"):
            fusion_product(2, 1, (1,)).weight_of({-1: ONE})

    @pytest.mark.parametrize("index", [-1, 99])
    def test_degree_of_rejects_an_index_outside_the_basis(self, index):
        # a negative index would read the last basis degree, 99 IndexError
        with pytest.raises(ValueError, match="outside the basis"):
            fusion_product(2, 1, (1, 1)).degree_of({index: 1})

    def test_degree_of_an_ungraded_module_is_rejected(self):
        with pytest.raises(ValueError, match="no grading"):
            fundamental_gmodule(2, 1).degree_of({0: 1})


class TestFusion:
    def test_two_strings_graded_character(self):
        m = fusion_product(1, 1, (1, 1))
        gc = graded_character(m)
        assert gc.degree_dims() == {0: 3, 1: 1}
        assert gc.mults == {
            ((2,), 0): 1,
            ((0,), 0): 1,
            ((-2,), 0): 1,
            ((0,), 1): 1,
        }
        assert check_axioms(m) == []

    def test_two_one_partition(self):
        m = fusion_product(1, 1, (2, 1))
        gc = graded_character(m)
        assert gc.degree_dims() == {0: 4, 1: 2}
        assert sum(gc.mults.values()) == 6

    def test_single_factor_sits_in_degree_zero(self):
        m = fusion_product(2, 1, (3,))
        gc = graded_character(m)
        assert set(gc.degree_dims()) == {0}
        assert gc.collapse() == char_simple((3, 0))

    def test_degree_zero_slice_is_top_simple(self):
        m = fusion_product(1, 1, (2, 2))
        gc = graded_character(m)
        assert gc.degree_slice(0) == char_simple((4,))

    def test_collapse_is_tensor_character(self):
        m = fusion_product(2, 2, (2, 1))
        gc = graded_character(m)
        want = char_simple((0, 2)) * char_simple((0, 1))
        assert gc.collapse() == want
        assert check_axioms(m) == []

    def test_point_choice_does_not_change_character(self):
        xi = (2, 1, 1)
        base = graded_character(fusion_product(1, 1, xi))
        for points in [(-1, 4, 7), (Fraction(1, 2), -3, 5)]:
            assert graded_character(fusion_product(1, 1, xi, points)) == base

    def test_general_weights(self):
        lams = [(1, 1), (1, 0)]
        m = fusion_of_simples(2, lams, (0, 1))
        gc = graded_character(m)
        assert sum(gc.mults.values()) == weyl_dim((1, 1)) * weyl_dim((1, 0))
        assert gc.collapse() == char_simple((1, 1)) * char_simple((1, 0))
        assert check_axioms(m) == []

    def test_repeated_points_rejected(self):
        with pytest.raises(ValueError):
            fusion_product(1, 1, (1, 1), points=(2, 2))

    def test_non_cyclic_vector_raises(self):
        # at a repeated point the antisymmetric vector spans a proper
        # trivial submodule, so the filtration must refuse it
        same = tensor_modules(
            [
                evaluation_module(simple_gmodule(1, (1,)), 0),
                evaluation_module(simple_gmodule(1, (1,)), 0),
            ]
        )
        idx = same.flat_index[(0, 1)]
        jdx = same.flat_index[(1, 0)]
        singlet = {idx: ONE, jdx: -ONE}
        with pytest.raises(ValueError):
            fusion_filtration(same, singlet)

    def test_three_strings_degree_profile(self):
        m = fusion_product(1, 1, (1, 1, 1))
        gc = graded_character(m)
        assert m.top_degree() == 2
        assert gc.degree_dims() == {0: 4, 1: 2, 2: 2}
        assert gc.degree_slice(0) == char_simple((3,))

    def test_default_points(self):
        assert default_points(4) == (0, 1, 2, 3)


def reference_closure(m, vec):
    """Rows per (weight, tag) of U(g[t])·vec inside m, with nothing skipped.

    Every Borel generator and then every lowering generator (t-powers up
    to m.trunc) is applied to every row, candidates of each tag in the
    order they were made and tags in ascending order, and each image is
    reduced by plain triangular Fraction elimination against the rows of
    its label: (weight, tag) in a graded m, the weight otherwise.  Only
    m's matrices are shared with the engine.
    """
    nodes = range(1, m.rank + 1)
    powers = range(m.trunc + 1)
    borel = [("e", i, k) for i in nodes for k in powers]
    borel += [("h", i, k) for i in nodes for k in powers if k]
    lowering = [("f", i, k) for i in nodes for k in powers]
    blocks = {}  # label -> {pivot: row with pivot coefficient 1}
    rows = []  # (vector, weight, tag)

    def insert(v, tag):
        wt = m.weights[min(v)]
        block = blocks.setdefault((wt, tag) if m.graded else wt, {})
        v = {j: Fraction(x) for j, x in v.items()}
        for p in sorted(block):
            c = v.get(p)
            if c:
                for j, x in block[p].items():
                    y = v.get(j, 0) - c * x
                    if y:
                        v[j] = y
                    else:
                        v.pop(j, None)
        if not v:
            return False
        p = min(v)
        block[p] = {j: x / v[p] for j, x in v.items()}
        rows.append((v, wt, tag))
        return True

    def close(gens, start):
        pending = {}

        def queue(j):
            for sym, i, k in gens:
                pending.setdefault(rows[j][2] + k, []).append((j, sym, i, k))

        for j in start:
            queue(j)
        while pending:
            tag = min(pending)
            todo = pending[tag]
            for j, sym, i, k in todo:  # k = 0 images join todo as it runs
                mat = m.matrix(sym, i, k)
                img = {}
                for col, x in rows[j][0].items():
                    for r, c in mat.get(col, ()):
                        img[r] = img.get(r, 0) + x * c
                img = {r: y for r, y in img.items() if y}
                if img and insert(img, tag):
                    queue(len(rows) - 1)
            del pending[tag]

    insert(vec, m.degree_of(vec) if m.graded else 0)
    close(borel, [0])
    close(lowering, range(len(rows)))
    return Counter((wt, tag) for _, wt, tag in rows)


def _eval_tensor(lams):
    """Evaluation modules V(lams[z]) at the points z = 0, 1, ..., tensored."""
    return tensor_modules(
        [
            evaluation_module(simple_gmodule(len(lam), lam), z)
            for z, lam in enumerate(lams)
        ]
    )


def _close_every_basis_vector(m):
    # most basis vectors are no highest-weight vectors, so the Borel phase
    # of their closure accepts rows; returns the last closure
    return [cyclic_submodule(m, {j: ONE}) for j in range(m.dim)][-1]


# every route that builds a module by a closure; the test empties
# module_store first, so no closure is skipped for a stored module
CLOSURE_ROUTES = {
    "fusion_product": lambda: fusion_product(2, 1, (2, 1), points=(3, 5)),
    "fusion_product_rank3": lambda: fusion_product(3, 2, (1, 1), points=(3, 5)),
    # weights such as (0, 0, -3): reflection fills of powers 2 and 3
    "fusion_product_rank3_node1": lambda: fusion_product(3, 1, (2, 1), points=(3, 5)),
    "local_weyl": lambda: local_weyl(2, (1, 1), points=(3, 5)),
    "rect_demazure_level2": lambda: rect_demazure(2, 2, (2, 2), points=(3, 5)),
    "gen_demazure": lambda: gen_demazure(2, 1, (2, 1)),
    "simple_gmodule": lambda: simple_gmodule.__wrapped__(2, (2, 1)),
    "graded_non_highest": lambda: _close_every_basis_vector(
        local_weyl(2, (1, 1))
    ),
    "eval_tensor_non_highest": lambda: _close_every_basis_vector(
        _eval_tensor([(1, 1), (1, 0)])
    ),
    # character builds: every closure keeps to its window (ambient floor)
    "window_fusion": lambda: fusion_character(2, 1, (2, 1), points=(3, 5)),
    "window_fusion_rank3": lambda: fusion_character(3, 2, (1, 1), points=(3, 5)),
    "window_local_weyl": lambda: rect_demazure_character(2, 1, (1, 2)),
    "window_rect_demazure_level2": lambda: rect_demazure_character(2, 2, (2, 2)),
    "window_gen_demazure": lambda: gen_demazure_character(2, 1, (2, 1)),
}


def _dominant(mults):
    return {(wt, d): c for (wt, d), c in mults.items() if is_dominant(wt) and c}


class TestReferenceClosure:
    """Each closure a route runs against reference_closure on its ambient:
    the stage skip and the order inside a tag change which candidates are
    tried, never the rows per (weight, tag) or the character.  A windowed
    closure has the reference's rows at the weights ≥ its ambient's
    floor, and none elsewhere."""

    @pytest.mark.parametrize("route", sorted(CLOSURE_ROUTES))
    def test_rows_per_weight_and_tag_match_reference(self, route, monkeypatch):
        closure = krfl.modules._closure
        seen = []

        def spy(m, vec):
            ech, borel = closure(m, vec)
            seen.append((m, vec, Counter(ech.meta), borel))
            return ech, borel

        monkeypatch.setattr(krfl.modules, "_closure", spy)
        module_store.cache_clear()
        out = CLOSURE_ROUTES[route]()
        assert seen
        cut = False
        for m, vec, got, _ in seen:
            want = reference_closure(m, vec)
            if m.floor is not None:
                inside = Counter(
                    {key: c for key, c in want.items() if dominates(key[0], m.floor)}
                )
                cut |= inside != want
                want = inside
            assert got == want
        want = seen[-1][2]
        if route.startswith("window_"):
            assert cut
            assert _dominant(out.mults) == _dominant(want)
        elif out.graded:
            assert graded_character(out).mults == want
        else:
            collapsed = Counter()
            for (wt, _), c in want.items():
                collapsed[wt] += c
            assert Character(Counter(out.weights)) == Character(collapsed)
        if route.endswith("non_highest"):
            assert any(borel for *_, borel in seen)


class TestReflectionFill:
    """In an ungraded closure from its generator, the first candidate of
    a stage aimed at a non-dominant weight mu first fills mu by f_i^p of
    the stage's rows at s_i mu; the stage skip then discards the rest."""

    def test_no_rejected_insert_at_a_non_dominant_weight(self, monkeypatch):
        insert = Echelon.insert
        calls, rejected = [], []

        def spy(self, v, label, meta=None):
            new = insert(self, v, label, meta)
            calls.append(meta)
            if new is None and not is_dominant(meta[0]):
                rejected.append(meta)
            return new

        module_store.cache_clear()
        simple_gmodule.cache_clear()
        monkeypatch.setattr(Echelon, "insert", spy)
        assert local_weyl(3, (2, 1, 1)).dim == 384
        assert any(not is_dominant(wt) for wt, _ in calls)
        assert rejected == []

    def test_fills_of_power_two_and_three_run(self, monkeypatch):
        fill = krfl.modules._reflection_fill
        rows = Counter()  # power -> rows the fills of that power added

        def spy(ech, act, sources, i, power, label, meta):
            new = fill(ech, act, sources, i, power, label, meta)
            rows[power] += len(new)
            return new

        monkeypatch.setattr(krfl.modules, "_reflection_fill", spy)
        module_store.cache_clear()
        CLOSURE_ROUTES["fusion_product_rank3_node1"]()
        assert rows[1] and rows[2] and rows[3]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: local_weyl(3, (2, 1, 1)),
            CLOSURE_ROUTES["fusion_product_rank3_node1"],
            lambda: fusion_character(3, 2, (1, 1, 1)),
        ],
    )
    def test_candidates_complete_what_the_fill_leaves(self, build, monkeypatch):
        # with the fill adding nothing, the candidates give the same rows
        # per (weight, tag) in every closure, and the same character
        closure = krfl.modules._closure

        def run():
            seen = []

            def spy(m, vec):
                ech, borel = closure(m, vec)
                seen.append(Counter(ech.meta))
                return ech, borel

            monkeypatch.setattr(krfl.modules, "_closure", spy)
            module_store.cache_clear()
            simple_gmodule.cache_clear()
            out = build()
            return seen, out if isinstance(out, GradedCharacter) else graded_character(out)

        filled = run()
        skipped = []
        monkeypatch.setattr(
            krfl.modules, "_reflection_fill", lambda *args: skipped.append(args) or []
        )
        assert run() == filled
        assert skipped

    def test_graded_closures_keep_integral_matrices(self):
        # a graded ambient stays on candidates, whose rows keep the
        # coordinates of every image integral
        m = rect_demazure(3, 2, (0, 4, 0))
        entries = [
            c
            for sym in "efh"
            for i in range(1, 4)
            for k in range(m.trunc + 1)
            for col in m.matrix(sym, i, k).values()
            for _, c in col
        ]
        assert len(entries) > m.dim
        assert all(type(c) is int for c in entries)


class TestModuleStore:
    def test_single_box_fusion_is_the_local_weyl_module(self):
        for n, i, k in [(1, 1, 2), (2, 1, 3), (3, 2, 2)]:
            lam = weight_scale(k, fundamental_weight(n, i))
            m = local_weyl(n, lam)
            assert fusion_product(n, i, (1,) * k) is m
            assert rect_demazure(n, 1, lam) is m
            assert gen_demazure(n, i, (k,)) is m

    def test_default_points_are_resolved_before_the_key(self):
        cases = [(1, 2, (2,), (0,)), (2, 2, (2, 2), (0, 1)), (2, 3, (0, 0), (0,))]
        for n, ell, lam, points in cases:
            assert rect_demazure(n, ell, lam) is rect_demazure(n, ell, lam, points)

    def test_sweep_stays_within_budget_plus_newest_module(self):
        module_store.cache_clear()
        built = {}
        for i in (1, 2, 3):
            for size in range(1, 5):
                for xi in partitions_of(size):
                    for m in (
                        fusion_product(3, i, xi.parts),
                        gen_demazure(3, i, xi.conjugate()),
                    ):
                        built[id(m)] = m.dim
        entries = module_store.entries
        total = sum(m.dim for m in entries.values())
        newest = next(reversed(entries.values()))
        assert sum(built.values()) > STORE_BUDGET  # the sweep had to evict
        assert total <= STORE_BUDGET + newest.dim

    def test_cleared_store_builds_again(self, monkeypatch):
        filtration = krfl.modules.fusion_filtration
        calls = []

        def spy(m, vec):
            calls.append(m.dim)
            return filtration(m, vec)

        monkeypatch.setattr(krfl.modules, "fusion_filtration", spy)
        module_store.cache_clear()
        first = fusion_product(2, 1, (2, 1))
        assert fusion_product(2, 1, (2, 1)) is first
        assert calls == [first.dim]
        module_store.cache_clear()
        assert fusion_product(2, 1, (2, 1)) is not first
        assert calls == [first.dim] * 2

    def test_store_is_cleared_with_the_lru_caches(self):
        # the rule perfbench/workloads.py uses to find and clear every
        # cache of the package before a round: a krfl namespace entry
        # with a callable cache_clear
        found = {
            id(obj): obj
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "krfl" or name.startswith("krfl."))
            for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))
        }
        assert id(module_store) in found
        fusion_product(1, 1, (1, 1))
        for obj in found.values():
            obj.cache_clear()
        assert not module_store.entries


class TestGradedCharacter:
    def test_json_round_trip(self):
        m = fusion_product(2, 1, (2, 1))
        gc = graded_character(m)
        data = gc.to_json()
        assert data["rank"] == 2
        degrees = [e["degree"] for e in data["entries"]]
        assert degrees == sorted(degrees)
        assert GradedCharacter.from_json(data) == gc

    def test_json_sorted_within_degree(self):
        gc = GradedCharacter(1, {((2,), 0): 1, ((-2,), 0): 1, ((0,), 1): 2})
        entries = gc.to_json()["entries"]
        assert [tuple(e["weight"]) for e in entries] == [(-2,), (2,), (0,)]

    def test_zero_mults_dropped(self):
        gc = GradedCharacter(1, {((0,), 0): 0, ((2,), 1): 1})
        assert gc.mults == {((2,), 1): 1}

    def test_ungraded_module_rejected(self):
        m = evaluation_module(simple_gmodule(1, (1,)), 0)
        with pytest.raises(ValueError):
            graded_character(m)


class TestApplyWord:
    def test_empty_word(self):
        m = fusion_product(1, 1, (1, 1))
        v = top_vec(m)
        assert apply_word(m, v, []) == v

    def test_index_outside_the_basis_is_rejected(self):
        # a word kills a vector it cannot reach, so a relation would "hold"
        with pytest.raises(ValueError, match="outside the basis"):
            apply_word(fundamental_gmodule(2, 1), {99: 1}, [("f", 1, 0, 1)])

    def test_lowering_past_string_length(self):
        m = fusion_product(1, 1, (2, 1))
        v = top_vec(m)
        assert apply_word(m, v, [("f", 1, 0, 3)]) != {}
        assert apply_word(m, v, [("f", 1, 0, 4)]) == {}

    def test_raising_in_positive_degree(self):
        m = fusion_product(1, 1, (1, 1))
        v = top_vec(m)
        w = apply_word(m, v, [("f", 1, 0, 2), ("e", 1, 1, 2)])
        assert w == {}
        w = apply_word(m, v, [("f", 1, 0, 2), ("e", 1, 1, 1)])
        assert w != {}

    def test_interval_root_generator(self):
        m = fusion_product(2, 1, (1, 1))
        v = top_vec(m)
        w = apply_word(m, v, [("f", (1, 2), 0, 1)])
        assert w != {}
        assert m.weight_of(w) == (1, -1)

    def test_torus_acts_at_single_nodes(self):
        m = fusion_product(2, 1, (1, 1))
        v = top_vec(m)
        h = m.act("h", 1, 0, v)
        assert h == {j: 2 * c for j, c in v.items()}
        assert apply_word(m, v, [("h", 1, 0, 1)]) == h
        assert apply_word(m, v, [("h", (1, 1), 0, 1)]) == h
        assert apply_word(m, v, [("h", (2, 2), 1, 1)]) == m.act("h", 2, 1, v)
        with pytest.raises(ValueError, match="single nodes"):
            apply_word(m, v, [("h", (1, 2), 0, 1)])

    @pytest.mark.parametrize(
        "entry, message",
        [(("h", (1, 2), 0, 1), "single nodes"), (("f", (2, 9), 0, 1), "bad interval")],
    )
    def test_malformed_word_is_rejected_on_every_vector(self, entry, message):
        m = fusion_product(2, 1, (1, 1))
        for vec in ({}, top_vec(m)):
            with pytest.raises(ValueError, match=message):
                apply_word(m, vec, [("f", 1, 0, 1), entry])


def _evaluation_tensor(n, lam, points):
    g = simple_gmodule(n, lam)
    return tensor_modules([evaluation_module(g, z) for z in points])


def _wrong(*pairs):
    return [f"[{a}, {b}] wrong" for a, b in pairs]


# case -> (module, key of the corrupted matrix, replacement, check_axioms report)
AXIOM_CORRUPTIONS = {
    "h diagonal": (
        lambda: fundamental_gmodule(2, 1),
        lambda m: ("h", 1, 0),
        lambda a: mat_scale(a, 2),
        ["h_1 is not the weight diagonal"]
        + _wrong(
            ("e_1 t^0", "f_1 t^0"),
            ("h_1 t^0", "e_1 t^0"),
            ("h_1 t^0", "f_1 t^0"),
            ("h_1 t^0", "e_2 t^0"),
            ("h_1 t^0", "f_2 t^0"),
        ),
    ),
    "weight homogeneity": (
        lambda: fundamental_gmodule(2, 1),
        lambda m: ("e", 1, 0),
        lambda a: mat_from_columns({0: {1: 1}}),
        ["e_1 t^0 breaks weight homogeneity"]
        + _wrong(
            ("e_1 t^0", "f_1 t^0"),
            ("h_1 t^0", "e_1 t^0"),
            ("e_1 t^0", "f_2 t^0"),
            ("h_2 t^0", "e_1 t^0"),
        ),
    ),
    "degree homogeneity": (
        lambda: fusion_product(1, 1, (1, 1)),
        lambda m: ("f", 1, 0),
        lambda a: mat_from_columns({0: {3: 1}}),
        ["f_1 t^0 breaks degree homogeneity"]
        + _wrong(
            ("e_1 t^0", "f_1 t^0"), ("e_1 t^1", "f_1 t^0"), ("h_1 t^1", "f_1 t^0")
        ),
    ),
    "e-f bracket": (
        lambda: fundamental_gmodule(2, 1),
        lambda m: ("e", 1, 0),
        lambda a: mat_scale(a, 2),
        _wrong(("e_1 t^0", "f_1 t^0")),
    ),
    "h-e and h-f at t^1": (
        lambda: _evaluation_tensor(1, (1,), (0, 1)),
        lambda m: ("h", 1, 1),
        lambda a: mat_from_columns({0: {0: 7}}),
        _wrong(
            ("e_1 t^0", "f_1 t^1"),
            ("e_1 t^1", "f_1 t^0"),
            ("h_1 t^1", "e_1 t^0"),
            ("h_1 t^1", "f_1 t^0"),
        ),
    ),
    "h-h": (
        lambda: _evaluation_tensor(2, (1, 0), (0, 1, 2)),
        lambda m: ("h", 1, 1),
        lambda a: mat_from_columns({1: {3: 1}}),
        _wrong(
            ("e_1 t^0", "f_1 t^1"),
            ("e_1 t^1", "f_1 t^0"),
            ("h_1 t^1", "e_1 t^0"),
            ("h_1 t^1", "f_1 t^0"),
            ("h_1 t^1", "e_1 t^1"),
            ("h_1 t^1", "f_1 t^1"),
            ("h_1 t^1", "e_2 t^0"),
            ("h_1 t^1", "f_2 t^0"),
            ("h_1 t^1", "e_2 t^1"),
            ("h_1 t^1", "f_2 t^1"),
            ("h_1 t^1", "h_2 t^1"),
            ("h_2 t^1", "h_1 t^1"),
        ),
    ),
    "f-f adjacent roots": (
        lambda: _evaluation_tensor(2, (1, 0), (0, 1)),
        lambda m: ("f", 2, 1),
        lambda a: mat_scale(a, Fraction(1, 2)),
        _wrong(
            ("f_1 t^0", "f_2 t^1"),
            ("h_1 t^1", "f_2 t^0"),
            ("f_2 t^1", "f_1 t^0"),
            ("e_2 t^0", "f_2 t^1"),
            ("h_2 t^1", "f_2 t^0"),
        )
        + ["power 2 of f_2 breaks point dependence"],
    ),
    "e-e adjacent roots": (
        lambda: _evaluation_tensor(2, (1, 0), (0, 1)),
        lambda m: ("e", 1, 1),
        lambda a: mat_scale(a, Fraction(1, 2)),
        _wrong(
            ("e_1 t^1", "f_1 t^0"),
            ("h_1 t^1", "e_1 t^0"),
            ("e_1 t^0", "e_2 t^1"),
            ("h_2 t^1", "e_1 t^0"),
            ("e_2 t^1", "e_1 t^0"),
        )
        + ["power 2 of e_1 breaks point dependence"],
    ),
    "above the top degree": (
        lambda: fusion_product(1, 1, (1, 1)),
        lambda m: ("e", 1, m.top_degree() + 1),
        lambda a: mat_from_columns({0: {1: 1}}),
        ["action above the top degree"],
    ),
    "point dependence": (
        lambda: _evaluation_tensor(1, (1,), (0, 1)),
        lambda m: ("e", 1, 2),
        lambda a: mat_scale(a, 2),
        ["power 2 of e_1 breaks point dependence"],
    ),
}


CORRUPTION_BUILDS = [
    lambda: fundamental_gmodule(2, 1),
    lambda: _evaluation_tensor(2, (1, 0), (0, 1)),
    lambda: fusion_product(2, 1, (1, 1)),
    lambda: fusion_product(1, 1, (2, 1)),
]


def _randomly_corrupted(seed):
    """A module of CORRUPTION_BUILDS with one stored matrix (up to t^trunc,
    or one above the top degree of a graded module) scaled, missing a
    column, or with one added to a random entry; all chosen by seed."""
    rng = random.Random(seed)
    m = unshared(rng.choice(CORRUPTION_BUILDS))
    top = m.trunc + (1 if m.graded else 0)
    key = (rng.choice("efh"), rng.randint(1, m.rank), rng.randint(0, top))
    cols = {c: dict(col) for c, col in m.matrix(*key).items()}
    kind = rng.choice(["scale", "drop", "add"])
    if kind == "scale":
        bad = mat_scale(m.matrix(*key), rng.choice([2, -1, Fraction(1, 2)]))
    elif kind == "drop" and cols:
        cols.pop(rng.choice(sorted(cols)))
        bad = mat_from_columns(cols)
    else:
        c, r = rng.randrange(m.dim), rng.randrange(m.dim)
        cols.setdefault(c, {})[r] = cols.get(c, {}).get(r, 0) + 1
        bad = mat_from_columns(cols)
    m._mats[key] = bad
    return m


# seed -> (number of messages, sha256 prefix of the report joined by newlines)
RANDOM_CORRUPTION_REPORTS = {
    0: (6, "031e063253fc6107"),
    1: (6, "18c1a624dd288c82"),
    2: (1, "db5b4f06a405526e"),
    3: (11, "fb25e29bc6989239"),
    4: (8, "2b6a120c7b9355d2"),
    5: (0, "e3b0c44298fc1c14"),
    6: (1, "6c3e04088dc4bb04"),
    7: (0, "e3b0c44298fc1c14"),
    8: (6, "78c29fdecf335a56"),
    9: (4, "3eaf5b6f218181be"),
    10: (1, "6c3e04088dc4bb04"),
    11: (5, "96faf25de293a30f"),
    12: (4, "58d89304be4813e9"),
    13: (0, "e3b0c44298fc1c14"),
    14: (6, "a5b599dca4a45344"),
    15: (6, "350c64c5412a91f0"),
    16: (6, "2665a8f794005c7c"),
    17: (2, "885c08e350db4e3d"),
    18: (6, "132e4e0c81bab00e"),
    19: (6, "a5b599dca4a45344"),
    20: (10, "d4c16ea28eddcccd"),
    21: (7, "b8f87a378ffc5db6"),
    22: (6, "a7a3c853a837b15b"),
    23: (1, "1b8e615fb89d83b5"),
}


class TestAxiomChecker:
    def test_detects_corrupted_table(self):
        m = fundamental_gmodule(2, 1)
        m.matrix("e", 1, 0)
        bad = mat_from_columns({0: {1: ONE}})
        m._mats[("e", 1, 0)] = bad
        assert check_axioms(m) != []

    def test_detects_corrupted_current_table(self):
        a = evaluation_module(simple_gmodule(1, (1,)), 0)
        b = evaluation_module(simple_gmodule(1, (1,)), 1)
        t = tensor_modules([a, b])
        t.matrix("h", 1, 1)
        t._mats[("h", 1, 1)] = mat_from_columns({0: {0: Fraction(7)}})
        assert check_axioms(t) != []

    @pytest.mark.parametrize("case", sorted(AXIOM_CORRUPTIONS))
    def test_corruption_report_is_pinned(self, case):
        """One stored matrix corrupted per identity family; the exact
        report list, message for message and in order."""
        build, key, replace, want = AXIOM_CORRUPTIONS[case]
        m = unshared(build)
        key = key(m)
        m._mats[key] = replace(m.matrix(*key))
        assert check_axioms(m) == want

    def test_each_bracket_is_computed_once(self, monkeypatch):
        """One check_axioms pass never brackets the same pair of stored
        matrices twice: each adjacent root vector is built once and
        reused for every split of its t-power."""
        m = fusion_product(2, 1, (2, 1))
        bracket = krfl.modules.mat_bracket
        pairs = Counter()

        def spy(a, b):
            pairs[id(a), id(b)] += 1
            return bracket(a, b)

        monkeypatch.setattr(krfl.modules, "mat_bracket", spy)
        assert check_axioms(m) == []
        assert pairs and max(pairs.values()) == 1

    def test_each_scaled_target_is_built_once(self, monkeypatch):
        """The targets a x_j t^q of the h-brackets are scaled once per
        (matrix, factor) in one check_axioms pass."""
        m = fusion_product(3, 1, (2, 2, 1))
        assert check_axioms(m) == []  # builds every matrix the check reads
        scale = krfl.modules.mat_scale
        pairs = Counter()

        def spy(a, c):
            pairs[id(a), c] += 1
            return scale(a, c)

        monkeypatch.setattr(krfl.modules, "mat_scale", spy)
        assert check_axioms(m) == []
        assert pairs and max(pairs.values()) == 1

    def test_graded_top_degree_is_clean(self):
        m = fusion_product(1, 1, (1, 1))
        top = m.top_degree()
        assert m.matrix("e", 1, top + 1) == {}
        assert m.matrix("f", 1, top + 1) == {}

    @pytest.mark.parametrize("seed", sorted(RANDOM_CORRUPTION_REPORTS))
    def test_random_corruption_report_is_pinned(self, seed):
        """The report on one randomly corrupted matrix: its length and
        sha256 prefix, as written before check_axioms skipped the
        brackets its first two checks prove."""
        report = check_axioms(_randomly_corrupted(seed))
        digest = hashlib.sha256("\n".join(report).encode()).hexdigest()[:16]
        assert (len(report), digest) == RANDOM_CORRUPTION_REPORTS[seed], report

    @pytest.mark.parametrize(
        "build",
        [
            lambda: fusion_product(2, 1, (2, 1)),
            lambda: _evaluation_tensor(2, (1, 0), (0, 1, 2)),
            lambda: simple_gmodule(3, (1, 0, 1)),
        ],
    )
    def test_clean_module_brackets_no_h_at_t0(self, build, monkeypatch):
        """h_i t^0 is the weight diagonal and every generator homogeneous,
        so no bracket with h_i t^0 is computed."""
        m = build()
        h0 = {id(m.matrix("h", i, 0)) for i in range(1, m.rank + 1)}
        bracket = krfl.modules.mat_bracket
        with_h0 = []

        def spy(a, b):
            if id(a) in h0 or id(b) in h0:
                with_h0.append((a, b))
            return bracket(a, b)

        monkeypatch.setattr(krfl.modules, "mat_bracket", spy)
        assert check_axioms(m) == []
        assert with_h0 == []


class TestCrossChecks:
    """Graded fusion characters against independent classical data."""

    @pytest.mark.parametrize("xi", [(1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1)])
    def test_sl2_fusion_collapse(self, xi):
        m = fusion_product(1, 1, xi)
        gc = graded_character(m)
        want = char_simple((xi[0],))
        for c in xi[1:]:
            want = want * char_simple((c,))
        assert gc.collapse() == want

    def test_point_permutation_invariance(self):
        rng = random.Random(11)
        pts = (0, 1, 2)
        xi = (2, 1, 1)
        base = graded_character(fusion_product(1, 1, xi, pts))
        for perm in itertools.permutations(pts):
            assert graded_character(fusion_product(1, 1, xi, perm)) == base
        for _ in range(2):
            alt = tuple(rng.sample(range(-9, 10), 3))
            assert graded_character(fusion_product(1, 1, xi, alt)) == base

    def test_sl3_fusion_weight_space_dims(self):
        m = fusion_product(2, 1, (1, 1))
        gc = graded_character(m)
        assert sum(gc.mults.values()) == 9
        assert gc.collapse() == char_simple((1, 0)) * char_simple((1, 0))
        assert gc.degree_slice(0) == char_simple((2, 0))
