"""Property and edge-case tests for the echelon kernel and the closures."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from krfl import InvariantError
from krfl.demazure import gen_demazure, local_weyl, rect_demazure
from krfl.linalg import Echelon, mat_apply, mat_bracket, mat_from_columns
from krfl.modules import (
    GtModule,
    _closure_echelon,
    _closure_label,
    _target,
    apply_word,
    cyclic_submodule,
    evaluation_module,
    fundamental_gmodule,
    fusion_filtration,
    fusion_product,
    graded_character,
    module_store,
    simple_gmodule,
    tensor_modules,
)
from krfl.typea import (
    _orbit,
    dominant_rep,
    dominates,
    height,
    weyl_act,
    weyl_elements,
)

ONE = Fraction(1)
BLOCKS = 3  # label of index i is i % BLOCKS
SIZE = 10  # label spaces of dimension 4, 3 and 3, small enough to fill
CAPACITY = Counter(i % BLOCKS for i in range(SIZE))

coeff = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def block_vectors(draw, count):
    """Vectors homogeneous for the label i % BLOCKS, with their labels."""
    out = []
    for _ in range(draw(st.integers(1, count))):
        label = draw(st.integers(0, BLOCKS - 1))
        idx = draw(st.sets(st.sampled_from(range(label, SIZE, BLOCKS)), min_size=1))
        vec = {i: Fraction(draw(coeff)) for i in idx}
        vec = {i: x for i, x in vec.items() if x}
        if vec:
            out.append((vec, label))
    return out


def _rebuilt(ech, coeffs, residual):
    out = dict(residual)
    for r, c in coeffs.items():
        for i, x in ech.rows[r].items():
            y = out.get(i, 0) + Fraction(c) * x / ech.scales[r]
            if y:
                out[i] = y
            else:
                out.pop(i, None)
    return out


def _reference_rows(inserted):
    """Rows and scales of a triangular Fraction elimination.

    Each vector is reduced against the earlier rows of its label in
    ascending pivot order; a nonzero residual is stored as a primitive
    integer vector with a positive pivot coefficient.
    """
    rows, blocks = [], {}
    for vec, label in inserted:
        v = dict(vec)
        block = blocks.setdefault(label, {})
        for p in sorted(block):
            if p in v:
                c = v[p] / block[p][p]
                for i, x in block[p].items():
                    v[i] = v.get(i, 0) - c * x
                    if not v[i]:
                        del v[i]
        if v:
            denom = math.lcm(*(x.denominator for x in v.values()))
            ints = {i: int(x * denom) for i, x in v.items()}
            g = math.gcd(*ints.values()) * (1 if ints[min(ints)] > 0 else -1)
            row = {i: x // g for i, x in ints.items()}
            block[min(row)] = row
            rows.append(row)
    return rows, [row[min(row)] for row in rows]


@settings(max_examples=40, deadline=None)
@given(block_vectors(10), block_vectors(4))
@example(
    # block 0 rejects its second vector and builds its reduced copy,
    # which the next two accepted rows rewrite; block 1 never rejects
    [
        ({3: ONE, 6: Fraction(2)}, 0),
        ({3: Fraction(-1, 2), 6: -ONE}, 0),
        ({0: ONE, 3: Fraction(3)}, 0),
        ({6: Fraction(5), 9: ONE}, 0),
        ({1: Fraction(1, 2), 4: Fraction(3)}, 1),
    ],
    [({0: ONE, 6: ONE}, 0)],
)
def test_echelon_coordinates_reduce_and_insert_agree(inserted, probes):
    ech = Echelon(CAPACITY)
    rejected = set()  # labels that rejected a vector while not full
    for vec, label in inserted:
        residual = ech.reduce(vec, label)
        full = ech.full(label)
        row = ech.insert(vec, label)
        assert (row is None) == (residual == {})
        if row is None and not full:
            rejected.add(label)
        assert ech.full(label) == (len(ech.pivots.get(label, ())) == CAPACITY[label])
        assert ech.room.get(label, 0) == CAPACITY[label] - len(ech.pivots.get(label, ()))
    assert (ech.rows, ech.scales) == _reference_rows(inserted)
    for label in CAPACITY:
        if not ech.full(label):
            # a block keeps a reduced copy from its first rejection on
            assert (label in ech._reduced) == (label in rejected)
    for label in CAPACITY:
        if ech.full(label):
            # a full block keeps no reduced rows and rejects every vector
            assert label not in ech._reduced
            for i in range(label, SIZE, BLOCKS):
                assert ech.insert({i: Fraction(-3, 2)}, label) is None
                assert ech.reduce({i: ONE}, label) == {}
    residuals = []
    for vec, label in inserted + probes:
        coeffs, residual = ech.coordinates(vec, label)
        assert _rebuilt(ech, coeffs, residual) == vec
        assert all(type(c) is int for c in coeffs.values() if c.denominator == 1)
        assert residual == ech.reduce(vec, label)
        assert ech.reduce(residual, label) == residual
        if (vec, label) in inserted or ech.full(label):
            assert residual == {}
        residuals.append(residual)
    ech.release()
    assert ech.room == {}
    for (vec, label), residual in zip(inserted + probes, residuals):
        assert ech.coordinates(vec, label)[1] == residual
        with pytest.raises(InvariantError):
            ech.insert(vec, label)
        with pytest.raises(InvariantError):
            ech.reduce(vec, label)


@settings(max_examples=40, deadline=None)
@given(block_vectors(10), st.lists(st.booleans(), min_size=10, max_size=10))
def test_appended_rows_settle_to_the_rows_insert_stores(inserted, appends):
    """Rows appended by recipe, made and reduced only when their block is
    read, settle to the rows insert stores from the same vectors in the
    same order, inserts and appends interleaved; each vector is made
    once, and a row in the span of its block raises when it settles."""
    ref = Echelon(CAPACITY)
    kept = [(vec, label) for vec, label in inserted if ref.insert(vec, label) is not None]
    assume(kept)
    made = []

    def make(source, vec):
        made.append(vec)
        return vec

    ech = Echelon(CAPACITY, make)
    appended = 0
    for n, ((vec, label), add) in enumerate(zip(kept, appends)):
        if n and add:  # row 0, the source of every recipe, is inserted
            j = ech.append((0, vec), label)
            assert (ech.rows[j], ech.scales[j]) == (None, None)
            appended += 1
        else:
            assert ech.insert(vec, label) is not None
        assert ech.room.get(label, 0) == CAPACITY[label] - sum(
            lab == label for _, lab in kept[: n + 1]
        )
    ech.settle()
    assert (ech.rows, ech.scales) == (ref.rows, ref.scales)
    assert ech.recipes == {} and len(made) == appended
    vec, label = kept[0]
    if not ech.full(label):
        ech.append((0, vec), label)
        with pytest.raises(InvariantError):
            ech.coordinates(vec, label)


@st.composite
def typed_block_vectors(draw, count, mixed):
    """block_vectors with int values, or with mixed int and Fraction ones
    (some of denominator one)."""
    value = st.integers(-6, 6)
    if mixed:
        value = st.one_of(value, st.fractions(-4, 4, max_denominator=6))
    out = []
    for _ in range(draw(st.integers(1, count))):
        label = draw(st.integers(0, BLOCKS - 1))
        idx = draw(st.sets(st.sampled_from(range(label, SIZE, BLOCKS)), min_size=1))
        vec = {i: x for i in idx if (x := draw(value))}
        if vec:
            out.append((vec, label))
    return out


class _GeneralEchelon(Echelon):
    """An Echelon whose _cleared scans every vector for denominators."""

    @staticmethod
    def _cleared(v):
        scale = math.lcm(*(x.denominator for x in v.values()))
        return {i: x.numerator * (scale // x.denominator) for i, x in v.items()}, scale


def _typed(vec):
    return sorted((i, type(x), x) for i, x in vec.items())


@settings(max_examples=40, deadline=None)
@given(st.booleans().flatmap(
    lambda mixed: st.tuples(typed_block_vectors(10, mixed), typed_block_vectors(4, mixed))
))
def test_integer_fast_path_of_cleared_matches_the_general_path(vectors):
    """All-int vectors skip the denominator scan of Echelon._cleared;
    insert, reduce and coordinates return exactly what the general path
    returns, value types included, and no input is altered."""
    inserted, probes = vectors
    fast, general = Echelon(CAPACITY), _GeneralEchelon(CAPACITY)
    for vec, label in inserted:
        before = dict(vec)
        assert _typed(fast.reduce(vec, label)) == _typed(general.reduce(vec, label))
        assert fast.insert(vec, label) == general.insert(vec, label)
        assert vec == before
    assert (fast.rows, fast.scales) == (general.rows, general.scales)
    for vec, label in inserted + probes:
        (c1, r1), (c2, r2) = fast.coordinates(vec, label), general.coordinates(vec, label)
        assert (_typed(c1), _typed(r1)) == (_typed(c2), _typed(r2))
        w, scale = Echelon._cleared(vec)
        assert w is not vec and (w, scale) == _GeneralEchelon._cleared(vec)


weights = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple)
)


def _plain_shift(n, sym, i):
    """+alpha_i, -alpha_i or 0 from the Cartan matrix entries."""
    sign = {"e": 1, "f": -1, "h": 0}[sym]
    return tuple(sign * (2 if j == i else -1 if abs(j - i) == 1 else 0)
                 for j in range(1, n + 1))


def _plain_dominant(lam):
    """Reflect at a negative coordinate until none is left."""
    lam = list(lam)
    while (i := next((i for i, c in enumerate(lam, 1) if c < 0), None)) is not None:
        c = lam[i - 1]
        lam = [a - c * b for a, b in zip(lam, _plain_shift(len(lam), "e", i))]
    return tuple(lam)


def _plain_dominates(mu, nu):
    """The simple-root coefficients of mu - nu, from the inverse Cartan
    matrix, are non-negative integers."""
    n = len(mu)
    diff = [a - b for a, b in zip(mu, nu)]
    coeffs = [
        sum(Fraction(min(i, j) * (n + 1 - max(i, j)), n + 1) * diff[j - 1]
            for j in range(1, n + 1))
        for i in range(1, n + 1)
    ]
    return all(c >= 0 and c.denominator == 1 for c in coeffs)


@settings(max_examples=150, deadline=None)
@given(weights, st.data())
def test_cached_weight_helpers_equal_a_plain_rederivation(lam, data):
    """Each process-wide cached weight helper gives, cold or warm, what a
    re-derivation from the definitions gives."""
    n = len(lam)
    mu = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple))
    dom = _plain_dominant(lam)
    orbit = {weyl_act(w, dom) for w in weyl_elements(n)}
    # 2<lam, rho^vee> is the sum of <lam, alpha^vee> over the positive roots
    two_rho = sum(sum(lam[a:b]) for a in range(n) for b in range(a + 1, n + 1))
    for _ in range(2):  # the second call of each is a cache hit
        assert height(lam) == two_rho
        assert dominant_rep(lam) == dom
        assert dominates(lam, mu) == _plain_dominates(lam, mu)
        assert dominates(dom, lam)
        got = _orbit(dom)
        assert len(got) == len(orbit) and set(got) == orbit
        for sym in "efh":
            for i in range(1, n + 1):
                wt2 = tuple(a + b for a, b in zip(lam, _plain_shift(n, sym, i)))
                assert _target(lam, sym, i) == wt2
                assert dominant_rep(wt2) == _plain_dominant(wt2)


def test_a_cached_orbit_cannot_be_altered_through_its_value():
    orbit = _orbit((1, 0, 1))
    assert isinstance(orbit, (tuple, frozenset))
    with pytest.raises((AttributeError, TypeError)):
        orbit.add((0, 0, 0))
    with pytest.raises((AttributeError, TypeError)):
        orbit[0] = (0, 0, 0)
    assert _orbit((1, 0, 1)) is orbit and len(orbit) == 12 and (0, 0, 0) not in orbit


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=3, unique=True))
def test_rank_one_fusion_character_is_point_free(points):
    base = graded_character(fusion_product(1, 1, (2, 1, 1)))
    assert graded_character(fusion_product(1, 1, (2, 1, 1), points)) == base


@settings(max_examples=4, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=2, unique=True))
def test_rank_two_fusion_character_is_point_free(points):
    base = graded_character(fusion_product(2, 1, (2, 1)))
    assert graded_character(fusion_product(2, 1, (2, 1), points)) == base


def _pair(z0, z1):
    v = simple_gmodule(1, (1,))
    return tensor_modules([evaluation_module(v, z0), evaluation_module(v, z1)])


def test_fusion_filtration_rejects_non_highest_weight_generator():
    t = _pair(0, 1)
    for vec in ({t.flat_index[(1, 0)]: ONE}, {t.flat_index[(1, 1)]: ONE}):
        with pytest.raises(ValueError, match="highest-weight"):
            fusion_filtration(t, vec)


@settings(max_examples=5, deadline=None)
@given(st.integers(-3, 3))
def test_cyclic_submodule_of_lowest_vector_at_one_point(z):
    t = _pair(z, z)
    sub = cyclic_submodule(t, {t.flat_index[(1, 1)]: ONE})
    assert sub.dim == 3
    assert sorted(sub.weights) == [(-2,), (0,), (2,)]


def _evaluation_factors(lams, points):
    return [evaluation_module(simple_gmodule(2, lam), z) for lam, z in zip(lams, points)]


def _evaluation_tensor(lams, points):
    return tensor_modules(_evaluation_factors(lams, points))


TENSOR_FACTORS = {
    "g-module": lambda: [fundamental_gmodule(2, i) for i in (1, 2, 1)],
    "evaluation-pair": lambda: _evaluation_factors([(1, 1), (1, 0)], (0, 2)),
    "evaluation-triple": lambda: _evaluation_factors(
        [(1, 0), (0, 1), (1, 0)], (-1, 0, 3)
    ),
    # h ⊗ t^k sums z^k-scaled weights of both factors, Fractions whose sum
    # is often integral, and such a sum must be an int
    "evaluation-halves": lambda: _evaluation_factors(
        [(1, 0), (1, 1)], (Fraction(1, 2), Fraction(3, 2))
    ),
    "graded-pair": lambda: [local_weyl(2, (1, 1)), local_weyl(2, (1, 0))],
    # h ⊗ t^0 is diagonal, h ⊗ t^k for k ≥ 1 moves degrees in each factor
    "graded-triple": lambda: [
        local_weyl(2, (1, 0)), local_weyl(2, (1, 1)), local_weyl(2, (0, 1))
    ],
}
TENSORS = {
    name: lambda factors=factors: tensor_modules(factors())
    for name, factors in TENSOR_FACTORS.items()
}


def _factor_sum(factors, amb, sym, i, k, vec):
    """sum_f I ⊗ X_f ⊗ I applied to vec, X_f the (sym, i, k) matrix of
    factor f: a reference read from the factor matrices alone, each index
    moved through amb.flat_index."""
    labels = {flat: lab for lab, flat in amb.flat_index.items()}
    out = {}
    for j, x in vec.items():
        lab = labels[j]
        for f, m in enumerate(factors):
            for r, c in m.matrix(sym, i, k).get(lab[f], ()):
                dest = amb.flat_index[lab[:f] + (r,) + lab[f + 1 :]]
                out[dest] = out.get(dest, 0) + x * c
    return {r: c for r, c in out.items() if c}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vector_action_of_tensor_equals_matrix_action(data):
    """On a fresh module of any route, act through the column store
    equals the built matrix applied; on a tensor, also the factor sum."""
    name = data.draw(st.sampled_from(sorted(ROUTES)))
    module_store.cache_clear()
    simple_gmodule.cache_clear()
    factors = TENSOR_FACTORS[name]() if name in TENSOR_FACTORS else None
    m = ROUTES[name]() if factors is None else tensor_modules(factors)
    idx = data.draw(st.sets(st.integers(0, m.dim - 1), min_size=1, max_size=6))
    vec = {j: data.draw(st.integers(-3, 3).filter(bool)) for j in sorted(idx)}
    sym = data.draw(st.sampled_from("efh"))
    i = data.draw(st.integers(1, m.rank))
    # k = trunc + 1 and trunc + 2 reach past the stored powers
    k = data.draw(st.integers(0, m.trunc + 2))
    assert not m._mats
    if k > m.trunc and m.points is None and not m.graded:
        with pytest.raises(ValueError):
            m.act(sym, i, k, vec)
        with pytest.raises(ValueError):
            m.matrix(sym, i, k)
        return
    img = m.act(sym, i, k, vec)
    assert not m._mats
    if factors is not None:
        assert img == _factor_sum(factors, m, sym, i, k, vec)
    assert img == mat_apply(m.matrix(sym, i, k), vec)


def test_integral_sums_of_fractions_act_as_ints():
    """e_2 ⊗ t on the evaluation tensor at 1/2 and 3/2 sums Fraction
    entries of two columns to 3: both action paths return the int."""
    vec = {0: 1, 1: 1, 2: 2}
    amb = _evaluation_tensor([(1, 0), (1, 1)], (Fraction(1, 2), Fraction(3, 2)))
    for img in (amb.act("e", 2, 1, vec), mat_apply(amb.matrix("e", 2, 1), vec)):
        assert img == {0: 3}
        assert type(img[0]) is int


@pytest.mark.parametrize("name", sorted(TENSOR_FACTORS))
def test_every_tensor_column_is_the_sum_over_its_factors(name):
    """Each column of every generator, through act and through matrix,
    is the factor sum, with integral entries as ints."""
    factors = TENSOR_FACTORS[name]()
    amb = tensor_modules(factors)
    top = amb.trunc + (2 if amb.graded or amb.points is not None else 0)
    for sym in "efh":
        for i in range(1, amb.rank + 1):
            for k in range(top + 1):
                mat = amb.matrix(sym, i, k)
                for j in range(amb.dim):
                    want = _factor_sum(factors, amb, sym, i, k, {j: 1})
                    col = amb.act(sym, i, k, {j: 1})
                    assert col == want == dict(mat.get(j, ())), (sym, i, k, j)
                    ints = [c for c in col.values() if c.denominator == 1]
                    assert all(type(c) is int for c in ints), (sym, i, k, j)


MAT_SIZE = 5


@st.composite
def sparse_mats(draw):
    """Small sparse matrices in normal form, with int and Fraction entries."""
    cells = draw(st.dictionaries(st.tuples(*[st.integers(0, MAT_SIZE - 1)] * 2), coeff))
    cols = {}
    for (r, c), x in cells.items():
        cols.setdefault(c, {})[r] = x
    return mat_from_columns(cols)


def _dense(mat):
    out = [[Fraction(0)] * MAT_SIZE for _ in range(MAT_SIZE)]
    for c, col in mat.items():
        for r, x in col:
            out[r][c] = Fraction(x)
    return out


HALF_E01 = {1: ((0, Fraction(1, 2)),)}  # (1/2)·E_01
DIAGONAL = {0: ((0, 3),), 1: ((1, Fraction(1, 2)),)}


@settings(max_examples=60, deadline=None)
@given(sparse_mats(), sparse_mats())
@example({}, HALF_E01)  # an empty operand on either side
@example(HALF_E01, {})
@example(HALF_E01, {0: ((1, 4),)})  # Fraction products that cancel to ints
@example(DIAGONAL, {0: ((0, -1),), 2: ((2, 5),)})  # commuting: exactly zero
@example(HALF_E01, HALF_E01)
def test_mat_bracket_is_the_dense_commutator_in_normal_form(a, b):
    da, db = _dense(a), _dense(b)
    want = {}
    for c in range(MAT_SIZE):
        col = []
        for r in range(MAT_SIZE):
            x = Fraction(0)
            for k in range(MAT_SIZE):
                x += da[r][k] * db[k][c] - db[r][k] * da[k][c]
            if x:
                col.append((r, x))
        if col:
            want[c] = tuple(col)
    got = mat_bracket(a, b)
    assert got == want
    assert got == mat_from_columns({c: dict(col) for c, col in got.items()})
    entries = [x for col in got.values() for _, x in col]
    assert all(type(x) is int for x in entries if x.denominator == 1)


ROUTES = {
    **TENSORS,
    "fundamental_gmodule": lambda: fundamental_gmodule(3, 2),
    "simple_gmodule": lambda: simple_gmodule(2, (1, 1)),
    "evaluation_module": lambda: evaluation_module(simple_gmodule(2, (1, 0)), 3),
    "cyclic_submodule": lambda: cyclic_submodule(
        _evaluation_tensor([(1, 0), (1, 0)], (0, 1)), {0: ONE}
    ),
    "fusion_product": lambda: fusion_product(2, 1, (1, 1)),
    "local_weyl": lambda: local_weyl(2, (1, 1)),
    "rect_demazure": lambda: rect_demazure(2, 2, (2, 0)),
    "gen_demazure": lambda: gen_demazure(2, 1, (2, 1)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_action_matrix_is_in_normal_form(route):
    """check_axioms compares matrices with ==, which is exact only for
    the normal form of mat_from_columns: sorted columns, no zero entry
    and no empty column."""
    m = ROUTES[route]()
    top = m.trunc + (1 if m.graded or m.points is not None else 0)
    for sym in "efh":
        for i in range(1, m.rank + 1):
            for k in range(top + 1):
                mat = m.matrix(sym, i, k)
                assert mat == mat_from_columns({c: dict(col) for c, col in mat.items()})


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_rejects_a_power_or_count_that_is_not_an_int(route):
    m = ROUTES[route]()
    vec = {m.cyclic_index: ONE}
    for k in (1.5, 0.5, 1.0, 0.0, True, Fraction(1), -1):
        with pytest.raises(ValueError, match="t-power"):
            m.matrix("e", 1, k)
        with pytest.raises(ValueError, match="t-power"):
            m.act("e", 1, k, vec)
        with pytest.raises(ValueError, match="t-power"):
            apply_word(m, vec, [("e", 1, k, 1)])
    for count in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="repeat count"):
            apply_word(m, vec, [("f", 1, 0, count)])


GRADED_ROUTES = [
    "fusion_product", "gen_demazure", "graded-pair", "graded-triple", "local_weyl", "rect_demazure"
]


@pytest.mark.parametrize("route", GRADED_ROUTES)
def test_a_graded_route_acts_by_zero_one_power_above_its_truncation(route, monkeypatch):
    """act lets an int t-power within trunc through without asking
    _acts_by_zero, and hands it every other: trunc + 1 acts by zero."""
    m = ROUTES[route]()
    assert m.graded
    vec = {m.cyclic_index: ONE}
    asked = []
    acts_by_zero = GtModule._acts_by_zero

    def spy(self, k):
        if self is m:
            asked.append(k)
        return acts_by_zero(self, k)

    monkeypatch.setattr(GtModule, "_acts_by_zero", spy)
    for k in range(m.trunc + 1):
        m.act("f", 1, k, vec)
    assert asked == []
    for sym in "efh":
        assert m.act(sym, 1, m.trunc + 1, vec) == {}
    assert asked == [m.trunc + 1] * 3


def _windowed_tensor():
    t = _evaluation_tensor([(2, 0), (1, 0)], (0, 1))
    t.floor = (0, 0)  # as fusion_of_simples sets it for a windowed build
    return t


@pytest.mark.parametrize("build", [
    lambda: _evaluation_tensor([(1, 1), (1, 0)], (0, 2)),
    lambda: tensor_modules([local_weyl(2, (1, 1)), local_weyl(2, (1, 0))]),
    _windowed_tensor,
], ids=["ungraded", "graded", "windowed"])
def test_closure_echelon_counts_the_closure_labels_of_the_basis(build):
    """The capacity of a closure label is the number of basis vectors
    carrying it, below a window's floor too; the room of an empty
    echelon is the same count."""
    m = build()
    degrees = m.degrees if m.graded else [0] * m.dim
    want = Counter(_closure_label(m, w, d) for w, d in zip(m.weights, degrees))
    ech = _closure_echelon(m)
    assert ech.capacity == want
    assert ech.room == dict(want)
    if m.floor is not None:
        assert not all(dominates(w, m.floor) for w in m.weights)
