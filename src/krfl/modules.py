"""Explicit finite dimensional modules, exact over the rationals.

One module type.  GtModule is a module over the polynomial current
algebra: generators are x_i^+ ⊗ t^k, x_i^- ⊗ t^k, h_i ⊗ t^k, addressed
by (sym, node, k) with sym in "efh".  A module is graded (a degree per
basis vector), of evaluation type (it carries the points that fix
every power of t), or a g-module: ungraded, without points and with
trunc = 0, so only the t^0 generators, the Chevalley generators of the
finite simple Lie algebra, act on it.

One action path.  Each construction hands GtModule a column maker,
column(sym, i, k) -> make, with make(j) column j of that action
matrix built alone: a fundamental module reads its stored matrices, an
evaluation module its base matrix scaled by z^k, a tensor product takes
the off-diagonal entries of the factors' columns straight into place and
sums only their diagonal entries, those of h, and a subquotient writes
the ambient image of its row j in the rows (_module_on_rows).  act
applies the matrix once matrix has built it, and otherwise reads each
column of the vector's support from the column store (sym, i, k) ->
{index: column}, making a missing one once.  Single vectors (the Borel
phase, relation words, root vectors) and passes over every row (the
lowering closures, the truncation check) alike go through act, so a
closure builds no whole ambient matrix; matrix builds one only when a
caller asks for it (check_axioms, the factors of a tensor product).

Vectors are sparse dicts in the module's own coordinates.  Every basis
element is weight homogeneous (and degree homogeneous in the graded
case), so the echelon kernel can keep its pivot tables block local.

Submodules come from one closure routine.  _closure puts the generating
vector into an echelon and closes it, first under the Borel generators
and then under the lowering generators alone (PBW).  Every row carries
a tag: the generator's degree, plus k for each a ⊗ t^k applied on the
way.  Candidates are processed in ascending tag order, so the rows of
tag ≤ r span the r-th piece of the t-degree filtration; in a graded
module the tag is the degree.  Inside a tag they go from high weights
to low.  Each stage, F^r/F^{r-1} or one degree of a graded module, is
a g-module, so its weight multiplicities are W-invariant: once a stage
holds as many rows at a non-dominant weight as at the dominant weight
of its orbit, whose count is final by then, the lowering phase offers
that weight no further candidate of the stage (see _close).  In an
ungraded closure the first such candidate fills the weight mu first:
for mu_i = -p < 0, f_i^p ⊗ t^0 maps the stage's part at s_i mu
isomorphically onto its part at mu, so the images of the rows there
reach the count at once and no candidate is tried at mu.  The fill
rows are appended as recipes, made and reduced only when read
(Echelon.append), so most of them are never made.
cyclic_submodule and fusion_filtration differ only in the checks they
make afterwards and in how _module_on_rows reads the rows.

The weight arithmetic of a closure is cached for the whole process:
_target gives a generator's target weight, from _shift and the cached
helpers of krfl.typea, and _module_on_rows, check_axioms and the
truncation check read their target weights from it too.  All of these
are pure functions of weights and return immutable values, so the
caches change no row, candidate order or output; they only spare
recomputing the same weights in every closure.  Each holds at most
WEIGHT_CACHE_SIZE entries.  Inside one closure, _close looks up the
targets of a source weight and t-power once, window test and dominant
representative included, and keeps them for every later row there.

A graded character can be had from a part of the module alone.  Every
degree of a fusion product or Demazure-type module is a g-module, so its
dominant multiplicities fix it, and window_character builds only the
weights at or above the lowest dominant weight of the highest weight's
coset: the closure skips every lower target (_close), so its ambient
builds no column outside the window.  The window is the keyword _floor
of the public builders themselves (fusion_of_simples here, the three of
krfl.demazure), so a windowed build runs the code of the full one.  A
module whose window holds all its weights is built whole, as its full
build (_window_floor).

A graded module is built once while it is stored.  fusion_of_simples
and demazure.rect_demazure (level above one) take their module from
module_store, keyed by the construction call, so every caller making
the same call gets the same object; a stored module is shared and must
not be altered.  The store is bounded by the total dimension of what
it holds (STORE_BUDGET, least recently used out first), and
module_store.cache_clear() empties it.

Non-simple root vectors are fixed as left-normed brackets,
x_{(a,b)} = [x_{(a,b-1)}, x_b] for the interval root alpha_a + ... +
alpha_b; the relations tested through root vectors do not depend on
the resulting sign convention.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial

from .errors import InvariantError
from .linalg import (
    Echelon,
    _canon,
    _canon_vec,
    mat_apply,
    mat_bracket,
    mat_from_columns,
    mat_scale,
    vec_iadd_scaled,
)
from .typea import (
    WEIGHT_CACHE_SIZE,
    Character,
    _orbit,
    cartan_matrix,
    dominant_rep,
    dominates,
    fundamental_weight,
    height,
    integral_weight,
    is_dominant,
    lowest_dominant,
    simple_root,
    weight_add,
    weight_scale,
    weyl_dim,
    zero_weight,
)

ONE = Fraction(1)
STORE_BUDGET = 5000  # total dimension of the modules module_store keeps


def _module_store():
    # key -> module, least recently used first; a plain dict, as walking
    # an OrderedDict's values hashes every key, each a tuple of Fractions
    entries = {}

    def module_store(key, build):
        """The module stored under key, or build() stored under key.

        After a store the least recently used modules are dropped until
        their total dimension is within STORE_BUDGET, never the one just
        stored: the store holds at most the budget plus one module.
        """
        m = entries.pop(key, None)
        if m is not None:
            entries[key] = m
            return m
        m = entries[key] = build()
        total = sum(x.dim for x in entries.values())
        while total > STORE_BUDGET and len(entries) > 1:
            total -= entries.pop(next(iter(entries))).dim
        return m

    module_store.entries = entries
    module_store.cache_clear = entries.clear
    return module_store


module_store = _module_store()


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def _shift(rank, sym, i):
    """Weight shift of e_i or f_i: +alpha_i or -alpha_i."""
    root = simple_root(rank, i)
    return root if sym == "e" else tuple(-x for x in root)


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def _target(wt, sym, i):
    """The weight to which sym_i ⊗ t^k, any k, moves the weight wt; h
    keeps the weight, so its target is wt itself, not a copy."""
    return wt if sym == "h" else weight_add(wt, _shift(len(wt), sym, i))


def fundamental_gmodule(n: int, i: int) -> GtModule:
    """The i-th exterior power of the natural (n+1)-dimensional module.

    Basis: i-element subsets of {1..n+1}; x_i^+ replaces i+1 by i and
    x_i^- replaces i by i+1, always with coefficient one because the
    two moved letters are adjacent.
    """
    if not 1 <= i <= n:
        raise ValueError("node out of range")
    subsets = list(itertools.combinations(range(1, n + 2), i))
    index = {s: j for j, s in enumerate(subsets)}
    weights = []
    for s in subsets:
        a = [1 if k in s else 0 for k in range(1, n + 2)]
        weights.append(tuple(a[k] - a[k + 1] for k in range(n)))
    mats = {}
    for node in range(1, n + 1):
        e_cols, f_cols, h_cols = {}, {}, {}
        for j, s in enumerate(subsets):
            members = set(s)
            if node + 1 in members and node not in members:
                t = tuple(sorted(members - {node + 1} | {node}))
                e_cols[j] = {index[t]: ONE}
            if node in members and node + 1 not in members:
                t = tuple(sorted(members - {node} | {node + 1}))
                f_cols[j] = {index[t]: ONE}
            c = weights[j][node - 1]
            if c:
                h_cols[j] = {j: Fraction(c)}
        mats[("e", node)] = mat_from_columns(e_cols)
        mats[("f", node)] = mat_from_columns(f_cols)
        mats[("h", node)] = mat_from_columns(h_cols)
    top = index[tuple(range(1, i + 1))]
    return GtModule(
        n, weights, None, 0, lambda sym, node, k: mats[(sym, node)].get, cyclic_index=top
    )


def _borel_gens(rank, trunc):
    """e_i ⊗ t^k for k <= trunc and h_i ⊗ t^k for 1 <= k <= trunc.

    h_i ⊗ t^0 acts on a weight vector by its weight, so it can never add
    a row and is left out.
    """
    gens = [("e", i, k) for i in range(1, rank + 1) for k in range(trunc + 1)]
    return gens + [("h", i, k) for i in range(1, rank + 1) for k in range(1, trunc + 1)]


def _lowering_gens(rank, powers):
    return [("f", i, k) for i in range(1, rank + 1) for k in powers]


def _lower(m, vec, i, power):
    """f_i^power ⊗ t^0 of vec, through m.act: the make of a closure
    echelon, which builds the vectors of the fill rows."""
    for _ in range(power):
        vec = m.act("f", i, 0, vec)
    return vec


def _reflection_fill(ech, rows, i, power, label, meta):
    """Append f_i^power ⊗ t^0 of each of the given rows to ech under
    label and meta, as the recipe (row, i, power); returns the new row
    numbers."""
    return [ech.append((j, i, power), label, meta) for j in rows]


def _close(m, ech, rows, gens):
    """Close the span of ech under gens, starting from the given rows;
    returns the accepted row numbers.

    Row j's meta is (weight, tag), and the image of row j under
    a ⊗ t^k is a candidate of tag tag_j + k.  Candidates are taken in
    ascending order of (tag, -h(source weight)), h(mu) = 2<mu, rho^vee>
    = sum_i i(n+1-i) mu_i, and an accepted candidate becomes a row of
    its tag whose images join the queue.  Tags come in ascending order,
    so the rows of tag ≤ r span the r-th filtration piece.  A generator
    whose target block is already full is not applied: ech.room, read
    directly, answers that in one lookup.

    Stage skip.  When every generator lowers and every stored row is
    final for its tag (a graded ambient, whose labels keep degrees
    apart, or a closure started from its generator alone), the rows of
    tag r at weight mu count the mu-part of a g-module, one degree of a
    graded cyclic module or F^r/F^{r-1} (Chari–Loktev 2006), so
    c(mu, r) ends equal to c(w mu, r) for every w in W.  Lowering by
    alpha_i lowers h by exactly 2, and a candidate of tag r comes from
    a row of tag ≤ r, so the tag-r candidates come in non-increasing
    source h: when one aimed at mu comes up, every row of tag r at a
    weight of higher h than mu is final.  For non-dominant mu,
    dominant_rep(mu) - mu is a nonzero sum of positive roots, so
    dominant_rep(mu) is such a weight, and once
    c(mu, r) ≥ c(dominant_rep(mu), r) the stage's mu-part is complete:
    the image lies in the span, and the candidate is skipped.  The
    (mu, r) goes into the set complete then, and every later candidate
    aimed there is skipped by that one lookup: c(dominant_rep(mu), r)
    is final and c(mu, r) only grows, so the test would hold again.  An
    ungraded closure whose Borel phase accepted rows keeps them in the
    same blocks at every tag, so its counts are not stage dimensions
    and nothing is skipped.

    Reflection fill.  In an ungraded ambient under the stage skip, the
    first tag-r candidate aimed at a non-dominant mu first fills the
    stage's mu-part by a Weyl reflection (_reflection_fill).  Take the
    i with mu_i = -p < 0 and p least, and mu' = s_i mu = mu + p alpha_i,
    of h(mu) + 2p, so the rows of tag r at mu' are final.  In the
    stage, a g-module, the sl_2 of node i maps the mu'-part onto the
    mu-part by f_i^p, an isomorphism since <mu', alpha_i^vee> = p.  So
    f_i^p ⊗ t^0 of the rows of tag r at mu', all in F^r, span F^r at mu
    together with the rows of lower tag, c(mu, r) reaches c(mu', r) =
    c(dominant_rep(mu), r), and the skip discards every later tag-r
    candidate aimed at mu.  The fill rows are appended unreduced
    (Echelon.append): each counts against mu's room at once, and mu's
    block is settled, its fill rows made and reduced, the first time
    something reads the block: here, the first time a target that is
    neither full nor complete needs one of its rows, whose candidates
    are then as sparse as those of a row insert stored.  Settling gives
    the rows insert would have stored, so every candidate and every
    residual is the same.  By the isomorphism above no fill row
    settles to zero; one that does raises InvariantError.  A graded ambient stays
    on candidates: reflected rows there made the module's matrix
    entries Fraction-valued and its check_axioms slower.

    Window.  If m.floor is set, a generator whose target weight is not
    ≥ floor is not applied.  Every generator lowers or raises by a
    simple root, so a row at a weight ≥ floor comes from rows at weights
    ≥ floor alone, and the rows of each window weight are those of the
    full closure; a reflection from mu ≥ floor passes only weights
    between mu and mu', all ≥ floor.
    """
    floor, graded = m.floor, m.graded
    groups = {}
    for sym, i, k in gens:
        groups.setdefault(k, []).append((sym, i))
    stage = all(sym == "f" for sym, _, _ in gens) and (graded or len(ech) == 1)
    fill = stage and not graded
    members = {}  # (weight, tag) -> row numbers stored
    for j, meta in enumerate(ech.meta):
        members.setdefault(meta, []).append(j)
    filled = set()  # (weight, tag) filled by reflection
    complete = set()  # (weight, tag) the stage skip found complete
    room = ech.room
    heap = []
    accepted = []
    # (source weight, t-power) -> [(sym, i, target weight, its dominant
    # representative or None)] for the generators aimed inside the window
    aims = {}

    def aimed(wt, k):
        out = aims[wt, k] = []
        for sym, i in groups[k]:
            wt2 = _target(wt, sym, i)
            if floor is None or dominates(wt2, floor):
                dom = dominant_rep(wt2)
                out.append((sym, i, wt2, None if dom == wt2 else dom))
        return out

    def queue(j):
        wt, tag = ech.meta[j]
        h = height(wt)
        for k in groups:
            heapq.heappush(heap, (tag + k, -h, j, k))

    def accept(new):
        accepted.append(new)
        members.setdefault(ech.meta[new], []).append(new)
        queue(new)

    for j in rows:
        queue(j)
    while heap:
        tag, _, j, k = heapq.heappop(heap)
        row, wt = ech.rows[j], ech.meta[j][0]
        targets = aims.get((wt, k))
        if targets is None:
            targets = aimed(wt, k)
        for sym, i, wt2, dom in targets:
            meta = (wt2, tag)
            label = meta if graded else wt2  # _closure_label
            if not room.get(label) or meta in complete:
                continue
            if stage and dom is not None:
                if fill and meta not in filled:
                    filled.add(meta)
                    power, node = min((-c, a) for a, c in enumerate(wt2, 1) if c < 0)
                    up = weight_scale(power, simple_root(m.rank, node))
                    sources = members.get((weight_add(wt2, up), tag), ())
                    for new in _reflection_fill(ech, sources, node, power, label, meta):
                        accept(new)
                if len(members.get(meta, ())) >= len(members.get((dom, tag), ())):
                    complete.add(meta)
                    continue
            if row is None:  # a fill row: settle its block first
                row = ech.row(j, _closure_label(m, *ech.meta[j]))
            img = m.act(sym, i, k, row)
            if img:
                new = ech.insert(img, label, meta)
                if new is not None:
                    accept(new)
    return accepted


@lru_cache(maxsize=None)
def simple_gmodule(n: int, lam) -> GtModule:
    """The simple g-module of highest weight lam, realized as the
    submodule generated by the top pure tensor inside a product of
    exterior powers."""
    lam = integral_weight(lam)
    if len(lam) != n or not is_dominant(lam):
        raise ValueError("weight must be dominant of matching rank")
    factors = []
    for i in range(1, n + 1):
        factors.extend(fundamental_gmodule(n, i) for _ in range(lam[i - 1]))
    if not factors:
        return GtModule(n, [zero_weight(n)], None, 0, lambda sym, i, k: {}.get, cyclic_index=0)
    amb = tensor_modules(factors)
    out = cyclic_submodule(amb, {amb.cyclic_index: ONE})
    if out.dim != weyl_dim(lam):
        raise InvariantError("simple module dimension differs from the Weyl dimension")
    return out


class GtModule:
    """Module over the current algebra, optionally graded.

    degrees is None for ungraded modules and a per-basis list for
    graded ones.  trunc is the largest t-power the construction needs:
    graded modules return the zero matrix above it, evaluation-type
    modules can produce every power exactly from their points, and a
    module without either (a g-module) refuses every power above it.
    column(sym, i, k) -> make is the one action: make(j) is column j of
    that matrix built alone, as (row, coefficient) pairs, nonzero and
    with integral values as ints, or empty or None for a zero column.
    Until matrix builds a whole matrix, act reads a vector's columns
    from the column store, _cols, which makes each once, on first
    touch.  A subquotient reads the column store of its ambient, which
    it drops whenever it has read through it.

    floor is None except in a builder called with _floor (the character
    builds of window_character): the builder sets it on the ambient of
    its closure and the result inherits it.  Such a module holds only
    the part on the weights ≥ floor: a closure inside it visits no lower
    weight (_close), and an image below floor acts as zero.  Only a
    caller that passes _floor gets one back.
    """

    ambient = None  # the module a subquotient's columns are read through

    def __init__(
        self, rank, weights, degrees, trunc, column, points=None, cyclic_index=None, floor=None
    ):
        self.rank = rank
        self.weights = [tuple(w) for w in weights]
        self.degrees = None if degrees is None else [int(d) for d in degrees]
        self.trunc = trunc
        self.points = points
        self.cyclic_index = cyclic_index
        self._column = column
        self._mats = {}
        self._cols = {}  # (sym, i, k) -> ({index: column}, make)
        self.floor = floor

    @property
    def dim(self):
        return len(self.weights)

    @property
    def graded(self):
        return self.degrees is not None

    def top_degree(self):
        return max(self.degrees) if self.degrees else 0

    def _acts_by_zero(self, k):
        """Whether t^k acts by zero; raises ValueError unless k is an int
        the module can produce."""
        if type(k) is not int:
            raise ValueError(f"t-power must be an int, got {k!r}")
        if k < 0:
            raise ValueError("negative t-power")
        if k <= self.trunc:
            return False
        if self.graded:
            return True
        if self.points is None:
            raise ValueError("t-power beyond truncation and no point data")
        return False

    def matrix(self, sym, i, k):
        """The whole (sym, i, k) matrix in normal form, built once; the
        column store of the generator is dropped then.  A column maker
        that is the get of a stored matrix in normal form (a fundamental
        or evaluation module) hands over that matrix itself."""
        key = (sym, i, k)
        mat = self._mats.get(key)
        if mat is None or type(k) is not int:  # 1.0 finds the key of 1
            mat = {}
            if not self._acts_by_zero(k):
                make = self.column_maker(*key)
                stored = getattr(make, "__self__", None)
                if type(stored) is dict:
                    mat = stored
                else:
                    for j in range(self.dim):
                        if col := make(j):
                            mat[j] = tuple(sorted(col))
            self._mats[key] = mat
            self._cols.pop(key, None)
            if self.ambient is not None:
                self.ambient._cols.clear()
        return mat

    def column_maker(self, sym, i, k):
        """make, with make(j) column j of matrix(sym, i, k) built alone."""
        return self._column(sym, i, k)

    def act(self, sym, i, k, vec):
        """The image of vec: through the matrix once it is built, else
        through the column store, which makes the missing columns.  An
        int t-power within trunc passes without the call to
        _acts_by_zero, which checks every other."""
        inside = type(k) is int and 0 <= k <= self.trunc
        if not inside and self._acts_by_zero(k) or not vec:
            return {}
        key = (sym, i, k)
        mat = self._mats.get(key)
        if mat is not None:
            return mat_apply(mat, vec)
        store = self._cols.get(key)
        if store is None:
            store = self._cols[key] = ({}, self.column_maker(*key))
        cols, make = store
        out = {}
        for j, x in vec.items():
            col = cols.get(j)
            if col is None:
                col = cols[j] = make(j) or ()
            for r, c in col:
                y = out.get(r, 0) + x * c
                if y:
                    out[r] = y
                else:
                    out.pop(r, None)
        if self.ambient is not None:  # its columns are read by now
            self.ambient._cols.clear()
        return _canon_vec(out)

    def weight_of(self, vec):
        """The common weight of the support, or raise if mixed."""
        _check_indices(self, vec)
        wts = {self.weights[j] for j in vec}
        if len(wts) != 1:
            raise ValueError("vector is not weight homogeneous")
        return wts.pop()

    def degree_of(self, vec):
        """The common degree of the support, or raise if mixed or if
        the module carries no grading."""
        if not self.graded:
            raise ValueError("module carries no grading")
        _check_indices(self, vec)
        ds = {self.degrees[j] for j in vec}
        if len(ds) != 1:
            raise ValueError("vector is not degree homogeneous")
        return ds.pop()


def evaluation_module(m: GtModule, z) -> GtModule:
    """Pull a g-module back through evaluation at the point z: a ⊗ t^k
    acts by z^k a."""
    z = Fraction(z)

    def column(sym, i, k):
        base = m.matrix(sym, i, 0)
        return (base if k == 0 else mat_scale(base, _canon(z**k))).get

    return GtModule(m.rank, m.weights, None, 0, column, points=(z,), cyclic_index=m.cyclic_index)


def tensor_modules(ms) -> GtModule:
    """Tensor product with the coproduct action a⊗t^k -> sum over factors.

    All evaluation-type factors: the result is evaluation-type with
    trunc = p - 1 for p points in all; higher powers are exact
    Vandermonde combinations of the stored ones and are computed
    directly from the points.  All graded factors: the result is graded
    with trunc = the max factor truncation, since higher powers kill
    every factor.  A factor without points or grading is a g-module,
    and so is the result: ungraded, no points, trunc = 0.
    """
    if not ms:
        raise ValueError("at least one factor required")
    rank = ms[0].rank
    if any(m.rank != rank for m in ms):
        raise ValueError("rank mismatch")
    gradedness = {m.graded for m in ms}
    if len(gradedness) != 1:
        raise ValueError("cannot mix graded and evaluation factors")
    graded = gradedness.pop()
    labels = list(itertools.product(*[range(m.dim) for m in ms]))
    # flat = sum of lab[f] * strides[f], so factor f moving its coordinate
    # from j to r moves the flat index by (r - j) * strides[f].  Every
    # vector and matrix takes its indices from flats, one int object per
    # index, so dict lookups in the elimination sweep match keys by
    # identity instead of comparing equal ints.
    dims = [m.dim for m in ms]
    strides = [math.prod(dims[f + 1 :]) for f in range(len(ms))]
    flats = list(range(len(labels)))
    index = dict(zip(labels, flats))
    # in the order of labels: the weight and degree of each factor summed,
    # each distinct weight one tuple object
    distinct = {}
    weights = []
    for ws in itertools.product(*(m.weights for m in ms)):
        w = tuple(map(sum, zip(*ws)))
        weights.append(distinct.setdefault(w, w))
    degrees = None
    if graded:
        degrees = [sum(ds) for ds in itertools.product(*(m.degrees for m in ms))]

    def column(sym, i, k):
        """Column flat of the (sym, i, k) matrix: each factor's column at
        its coordinate j of flat, moved into place.

        Factor f moving j to r moves flat by (r - j) * strides[f],
        computed per entry, so the store keeps no per-factor table.  Each
        factor moves only its own coordinate, so no two off-diagonal
        entries of a column meet and they go into it as they are; only
        the diagonal entries (those of h) add up, and their sum is
        canonicalised once.  The column is a tuple of (row, coefficient)
        pairs, nonzero and unsorted.
        """
        factors = [
            (st, d, mat) for m, st, d in zip(ms, strides, dims) if (mat := m.matrix(sym, i, k))
        ]

        def make(flat):
            col = []
            diagonal = 0
            for st, d, mat in factors:
                j = flat // st % d
                for r, c in mat.get(j, ()):
                    if r == j:
                        diagonal += c
                    else:
                        col.append((flats[flat + (r - j) * st], c))
            if diagonal:
                col.append((flats[flat], _canon(diagonal)))
            return tuple(col)

        return make

    if graded:
        trunc = max(m.trunc for m in ms)
        points = None
    elif all(m.points is not None for m in ms):
        points = tuple(z for m in ms for z in m.points)
        trunc = len(points) - 1
    else:
        trunc = 0
        points = None
    cyclic = None
    if all(m.cyclic_index is not None for m in ms):
        cyclic = index[tuple(m.cyclic_index for m in ms)]
    out = GtModule(rank, weights, degrees, trunc, column, points=points, cyclic_index=cyclic)
    out.flat_index = index
    return out


# a g-module is a GtModule, so the g-module tensor is the same routine
tensor_gmodules = tensor_modules


def _closure_label(m: GtModule, wt, deg):
    return (wt, deg) if m.graded else wt


def _closure_echelon(m: GtModule) -> Echelon:
    """An empty echelon for a closure inside m: the capacity of a label is
    the number of basis vectors of m that carry it, and a label no basis
    vector carries has capacity 0, so its block is full from the start.
    The labels are counted as _closure_label makes them, in one pass.
    The echelon makes the vectors of fill rows through m (_lower)."""
    counts = Counter(zip(m.weights, m.degrees) if m.graded else m.weights)
    return Echelon(counts, partial(_lower, m))


def _module_on_rows(m, ech, degrees, trunc, points):
    """The module whose basis vector j is row j of ech, acted on through m.

    ech.meta[j] is the (weight, tag) of row j.  The image of a basis
    vector of tag d under a ⊗ t^k is written in the rows of its block,
    which must span it.  Those coordinates are the column of the new
    module, unless degrees (the tags) are given for an ungraded m: then
    it is fusion_filtration's associated graded, and the column keeps the
    rows of tag d + k, a row of higher tag raises, and for d + k > trunc,
    the top tag, neither the image nor its coordinates are computed, as
    both checks are vacuous there.  Column j is made from m.act of row
    j, divided by its scale; row j's block, and the block of its image,
    are settled first (Echelon.settle), which makes the vectors of their
    appended rows through m.  Both closures end here, so the reduced
    copy of ech and m's column store are released; the new module
    drops m's column store whenever it has read through it (act,
    matrix), settles included.  The new module inherits m's floor: an
    image below it is not computed and acts as zero.
    """
    ech.release()
    m._cols.clear()
    floor = m.floor
    graded_quotient = degrees is not None and not m.graded

    def zero(sym, i, k, wt, deg):
        # an image known to vanish: above the top tag, or below the floor
        if graded_quotient and deg + k > trunc:
            return True
        if floor is None:
            return False
        return not dominates(_target(wt, sym, i), floor)

    def coords(sym, i, k, img, wt, deg):
        if not img:
            return {}
        wt2 = _target(wt, sym, i)
        coeffs, residual = ech.coordinates(img, _closure_label(m, wt2, deg + k))
        if residual:
            raise InvariantError("closure is not action stable")
        if not graded_quotient:
            return coeffs
        if any(degrees[r] > deg + k for r in coeffs):
            raise InvariantError("filtration violated")
        return {r: c for r, c in coeffs.items() if degrees[r] == deg + k}

    def column(sym, i, k):
        def make(j):
            wt, deg = ech.meta[j]
            if zero(sym, i, k, wt, deg):
                return ()
            row = ech.rows[j] or ech.row(j, _closure_label(m, wt, deg))
            # act on the integer row, which is scales[j] times basis vector
            # j, so the ambient action stays in int arithmetic
            col = coords(sym, i, k, m.act(sym, i, k, row), wt, deg)
            g = ech.scales[j]
            if g == 1:
                return tuple(col.items())
            return tuple((r, _canon(Fraction(c, g))) for r, c in col.items())

        return make

    out = GtModule(
        m.rank,
        [meta[0] for meta in ech.meta],
        degrees,
        trunc,
        column,
        points=points,
        cyclic_index=0,
        floor=floor,
    )
    out.ambient = m
    return out


def _closure(m: GtModule, vec):
    """The echelon of U(g[t])·vec inside m, and the rows of its Borel phase.

    vec must be weight homogeneous, and degree homogeneous if m is
    graded; it becomes row 0, tagged with its degree (0 if m is
    ungraded).  By PBW, U(g[t]) = U(n⁻[t]) U(b[t]) (Chari–Loktev,
    Weyl, Demazure and fusion modules for the current algebra of
    sl_{r+1}, 2006, arXiv:math/0502165), so vec is closed first under
    the Borel generators (_borel_gens), one vector at a time through
    m.act, and the result then under the lowering generators f_i ⊗ t^k
    alone, t-powers up to the truncation, row by row.  For a
    highest-weight vec the Borel phase accepts no row; that is exactly
    the premise under which U(n⁻[t])·vec already is U(g[t])·vec.  For
    any other vec it yields U(b[t])·vec, so every weight vector is a
    valid input.  In a windowed m (m.floor set) the closure keeps to the
    weights ≥ floor (_close).  m builds only the columns its rows touch
    (GtModule.act).
    """
    if not vec:
        raise ValueError("cannot close the zero vector")
    wt = m.weight_of(vec)
    deg = m.degree_of(vec) if m.graded else 0
    ech = _closure_echelon(m)
    ech.insert(vec, _closure_label(m, wt, deg), (wt, deg))
    borel = _close(m, ech, [0], _borel_gens(m.rank, m.trunc))
    lowering = _lowering_gens(m.rank, range(m.trunc + 1))
    _close(m, ech, range(len(ech)), lowering)
    return ech, borel


def cyclic_submodule(m: GtModule, vec) -> GtModule:
    """Smallest submodule containing vec, with vec's class as row 0.

    Built by _closure.  In a graded m a row's tag is its degree and the
    echelon keeps degrees apart; an ungraded closure ignores tags.  For
    evaluation-type inputs the sufficiency of the truncation is checked
    by re-applying two extra powers afterwards; the action-stability
    check on every matrix built later catches a closure that is not
    stable under e.
    """
    ech, _ = _closure(m, vec)
    if m.points is not None and not m.graded:
        _assert_truncation_sufficient(m, ech)
    degrees = [meta[1] for meta in ech.meta] if m.graded else None
    return _module_on_rows(m, ech, degrees, m.trunc, m.points)


def _assert_truncation_sufficient(m: GtModule, ech: Echelon):
    ech.settle()
    for sym in "efh":
        for i in range(1, m.rank + 1):
            for k in (m.trunc + 1, m.trunc + 2):
                for row, meta in zip(ech.rows, ech.meta):
                    if ech.reduce(m.act(sym, i, k, row), _target(meta[0], sym, i)):
                        raise InvariantError("truncated generator set failed to close")


def fusion_filtration(m: GtModule, vec) -> GtModule:
    """Associated graded of the t-degree filtration generated by vec.

    F^r = U(g[t])_{≤r}·vec is spanned by products of total t-degree at
    most r applied to vec (Feigin–Loktev 1999).  vec must be a
    highest-weight vector, so the Borel phase of _closure accepts no
    row (ValueError otherwise), and by PBW F^r = U(n⁻[t])_{≤r}·vec.  The
    lowering phase takes candidates in ascending tag order: while those
    of tag r are processed every stored row has tag ≤ r, and a row
    accepted there gets tag r.  So the rows of tag ≤ r span F^r, and
    row j represents its class in F^{d_j}/F^{d_j - 1}, d_j its tag.
    Raises ValueError if vec does not generate m, or, in a windowed m,
    if the rows are fewer than m's basis vectors at weights ≥ m.floor.
    """
    if m.graded:
        raise ValueError("input is already graded")
    ech, borel = _closure(m, vec)
    if borel:
        raise ValueError("generator is not a highest-weight vector")
    inside = m.dim if m.floor is None else sum(
        c for wt, c in ech.capacity.items() if dominates(wt, m.floor)
    )
    if len(ech) < inside:
        raise ValueError("vector is not cyclic")

    tags = [meta[1] for meta in ech.meta]
    return _module_on_rows(m, ech, tags, max(tags), None)


def default_points(p: int):
    return tuple(range(p))


def _window_floor(top, floor):
    """floor, or None if the window at floor holds every weight of a
    module with highest weight top: its lowest weight w0 top, and so
    every weight, is ≥ floor.  The module is then built and stored
    whole, as the full build of the same call."""
    if floor is None or dominates(tuple(-c for c in reversed(top)), floor):
        return None
    return floor


def fusion_of_simples(n, lams, points, *, _floor=None) -> GtModule:
    """Graded fusion of the simple modules V(lam_k) at the given points,
    built once per (n, lams, points) while module_store keeps it; with
    _floor, its part on the weights ≥ _floor, under a key of its own."""
    lams = tuple(integral_weight(lam) for lam in lams)
    points = tuple(Fraction(z) for z in points)
    if not lams:
        raise ValueError("at least one factor required")
    if len(points) != len(lams):
        raise ValueError("one point per factor required")
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")
    floor = _window_floor(tuple(map(sum, zip(*lams))), _floor)

    def build():
        factors = [
            evaluation_module(simple_gmodule(n, lam), z) for lam, z in zip(lams, points)
        ]
        big = factors[0] if len(factors) == 1 else tensor_modules(factors)
        big.floor = floor
        return fusion_filtration(big, {big.cyclic_index: ONE})

    key = ("fusion_of_simples", n, lams, points)
    return module_store(key if floor is None else (*key, floor), build)


def _one_node(n, i, xi, points):
    """The highest weights xi_k omega_i and the points of fusion_product."""
    parts = tuple(xi)
    if points is None:
        points = default_points(len(parts))
    return [weight_scale(c, fundamental_weight(n, i)) for c in parts], points


def fusion_product(n: int, i: int, xi, points=None) -> GtModule:
    """Fusion of the one-node simples with highest weights xi_k omega_i."""
    return fusion_of_simples(n, *_one_node(n, i, xi, points))


def fusion_character(n: int, i: int, xi, points=None) -> GradedCharacter:
    """graded_character(fusion_product(n, i, xi, points)), built on the
    dominant window (window_character)."""
    lams, points = _one_node(n, i, xi, points)
    top = tuple(map(sum, zip(zero_weight(n), *lams)))
    return window_character(top, lambda floor: fusion_of_simples(n, lams, points, _floor=floor))


def window_character(lam, build) -> GradedCharacter:
    """graded_character(build(None)), computed from build(floor) alone.

    build(floor) is the part on the weights ≥ floor of a graded module
    with highest weight lam, every degree of which is a g-module (a
    fusion product or a Demazure-type module; Chari–Loktev 2006).  The
    floor is the lowest dominant weight of lam's coset, so every
    dominant weight of the module lies in the window, and each dominant
    multiplicity of a degree spreads over its W-orbit.
    """
    m = build(lowest_dominant(integral_weight(lam)))
    dominant = Counter((w, d) for w, d in zip(m.weights, m.degrees) if is_dominant(w))
    return GradedCharacter(
        m.rank, {(w, d): c for (mu, d), c in dominant.items() for w in _orbit(mu)}
    )


class GradedCharacter:
    """Finite map (weight, degree) -> positive multiplicity."""

    def __init__(self, rank, mults=None):
        self.rank = rank
        self.mults = {}
        for (w, d), k in (mults or {}).items():
            if k:
                self.mults[(tuple(w), int(d))] = int(k)

    def __eq__(self, other):
        return (
            isinstance(other, GradedCharacter)
            and self.rank == other.rank
            and self.mults == other.mults
        )

    def __repr__(self):
        return f"GradedCharacter({self.rank}, {sorted(self.mults.items())})"

    def degree_dims(self):
        out = {}
        for (_, d), k in self.mults.items():
            out[d] = out.get(d, 0) + k
        return out

    def collapse(self) -> Character:
        out = {}
        for (w, _), k in self.mults.items():
            out[w] = out.get(w, 0) + k
        return Character(out)

    def degree_slice(self, d) -> Character:
        return Character({w: k for (w, dd), k in self.mults.items() if dd == d})

    def to_json(self):
        entries = sorted(
            (
                {"weight": list(w), "degree": d, "mult": k}
                for (w, d), k in self.mults.items()
            ),
            key=lambda e: (e["degree"], e["weight"]),
        )
        return {"rank": self.rank, "entries": entries}

    @staticmethod
    def from_json(data) -> "GradedCharacter":
        """Inverse of to_json.  Raises ValueError on any field to_json
        cannot have written (bools are not ints), so a malformed cache
        entry is a miss."""
        rank = data["rank"]
        if type(rank) is not int or rank < 1:
            raise ValueError(f"bad rank {rank!r}")
        mults = {}
        for e in data["entries"]:
            w, d, k = e["weight"], e["degree"], e["mult"]
            if (
                type(w) is not list
                or len(w) != rank
                or set(map(type, w)) != {int}
                or type(d) is not int
                or d < 0
                or type(k) is not int
                or k < 1
            ):
                raise ValueError(f"bad character entry {e!r}")
            key = (tuple(w), d)
            mults[key] = mults.get(key, 0) + k
        return GradedCharacter(rank, mults)


def graded_character(m: GtModule) -> GradedCharacter:
    if not m.graded:
        raise ValueError("module carries no grading")
    mults = {}
    for w, d in zip(m.weights, m.degrees):
        mults[(w, d)] = mults.get((w, d), 0) + 1
    return GradedCharacter(m.rank, mults)


def _root_apply(m, sym, interval, k, vec):
    """One application of the interval root generator, bracket by bracket.

    [x ⊗ t^k, y_b ⊗ t^0] applied to vec; recursion peels the last node off
    the interval so only simple-generator columns are ever needed.
    """
    a, b = interval
    if a == b:
        return m.act(sym, a, k, vec)
    inner = (a, b - 1)
    out = _root_apply(m, sym, inner, k, m.act(sym, b, 0, vec))
    vec_iadd_scaled(out, m.act(sym, b, 0, _root_apply(m, sym, inner, k, vec)), -1)
    return out


def _check_word(m: GtModule, word):
    """ValueError unless every entry of the word can act on m."""
    for sym, loc, k, power in word:
        if sym not in ("e", "f", "h"):
            raise ValueError(f"unknown generator {sym!r}")
        a, b = loc if isinstance(loc, tuple) else (loc, loc)
        if not 1 <= a <= b <= m.rank:
            raise ValueError("bad interval")
        if sym == "h" and a != b:
            # the torus generator h acts at single nodes, so (a, a) is its
            # one interval
            raise ValueError("h acts at single nodes, not on an interval root")
        m._acts_by_zero(k)  # raises for a t-power m cannot produce
        if type(power) is not int or power < 0:
            raise ValueError(f"repeat count must be an int ≥ 0, got {power!r}")


def _check_indices(m: GtModule, vec):
    """ValueError unless every key of vec is the int index of a basis vector."""
    if not all(type(j) is int and 0 <= j < m.dim for j in vec):
        raise ValueError("vector index outside the basis")


def apply_word(m: GtModule, vec, word):
    """Apply a product of generator powers to a vector.

    Each word entry is (sym, node or interval, t-power, repeat count),
    where an interval (a, b) with a < b names a root vector of e or f;
    entries act in list order on the running vector.  Every entry is
    checked before any acts, so a malformed word raises ValueError even
    on a vector it would kill, as does a key of vec outside the basis.
    Returns the exact image, {} iff the product kills vec.
    """
    _check_word(m, word)
    _check_indices(m, vec)
    out = dict(vec)
    for sym, loc, k, power in word:
        for _ in range(power):
            if not out:
                return {}
            if isinstance(loc, tuple):
                out = _root_apply(m, sym, loc, k, out)
            else:
                out = m.act(sym, loc, k, out)
    return out


def _check_homogeneous(weights, degrees, sym, i, k, mat, report):
    """Report mat's first break of weight or degree homogeneity; returns
    whether there was none."""
    for col, entries in mat.items():
        want = _target(weights[col], sym, i)
        for row, _ in entries:
            if weights[row] != want:
                report.append(f"{sym}_{i} t^{k} breaks weight homogeneity")
                return False
            if degrees is not None and degrees[row] != degrees[col] + k:
                report.append(f"{sym}_{i} t^{k} breaks degree homogeneity")
                return False
    return True


def check_axioms(m: GtModule) -> list:
    """Exact verification of the defining identities; empty list = pass.

    h_i ⊗ t^0 is the weight diagonal; weight and degree homogeneity of
    every stored generator; loop brackets [a t^r, b t^s] = [a, b] t^{r+s}
    for r + s within the truncation across all generator pairs whose
    bracket is again expressible (e-f, h-e, h-f, h-h, and e-e / f-f,
    whose bracket for adjacent nodes is the adjacent root vector, itself
    checked as the bracket [x_a t^{r+s}, x_{a+1} t^0]); vanishing above
    the top degree for graded modules; and the dependence of the p-th
    power on lower powers forced by the points of an evaluation tensor.
    A g-module (trunc 0) is checked at t^0 alone.  Every matrix is in
    the normal form of mat_from_columns, so each identity is one ==.

    No bracket is computed twice: each adjacent root vector is built once
    per t-power, and the split that defines it is not rechecked; each
    target a x_j t^q of an h-bracket is scaled once per (x, j, q, a); an h-h,
    e-e or f-f identity whose mirror [x_j t^s, x_i t^r] came first takes
    its verdict, as both of its sides are minus the mirror's.

    Nor is a bracket computed that the first two checks prove: if
    h_i t^0 is the weight diagonal and x_j t^s (x in e, f, h) shifts
    weights by beta, [h_i t^0, x_j t^s] is exactly <beta, alpha_i^vee>
    x_j t^s, the identity's right side (a, -a or 0 times x_j t^s), so it
    and its h-h mirror hold, and the report is the same on every input.
    """
    report = []
    n = m.rank
    cart = cartan_matrix(n)
    kmax = m.trunc
    mat = m.matrix
    diagonal = set()  # i with h_i t^0 the weight diagonal
    for i in range(1, n + 1):
        diag = mat_from_columns({j: {j: w[i - 1]} for j, w in enumerate(m.weights)})
        if mat("h", i, 0) == diag:
            diagonal.add(i)
        else:
            report.append(f"h_{i} is not the weight diagonal")
    homogeneous = set()  # (sym, i, k) of the homogeneous generators
    for sym in "efh":
        for i in range(1, n + 1):
            for k in range(kmax + 1):
                if _check_homogeneous(
                    m.weights, m.degrees, sym, i, k, mat(sym, i, k), report
                ):
                    homogeneous.add((sym, i, k))

    def proven(i, r, sym, j, s):
        """Whether [h_i t^r, x_j t^s] is proven by the checks above."""
        return r == 0 and i in diagonal and (sym, j, s) in homogeneous
    failed = set()  # (sym, i, j, r, s) of the failed same-family brackets
    scaled = {}  # (sym, j, q, c) -> c x_j t^q, the h-bracket targets

    def scale(sym, j, q, c):
        key = (sym, j, q, c)
        if key not in scaled:
            scaled[key] = mat_scale(mat(sym, j, q), c)
        return scaled[key]

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a = cart[i - 1][j - 1]
            roots = {}  # (sym, r + s) -> [x_i t^{r+s}, x_{i+1} t^0], one bracket each
            for r in range(kmax + 1):
                for s in range(kmax + 1 - r):
                    want = mat("h", i, r + s) if i == j else {}
                    if mat_bracket(mat("e", i, r), mat("f", j, s)) != want:
                        report.append(f"[e_{i} t^{r}, f_{j} t^{s}] wrong")
                    for sym, c in (("e", a), ("f", -a)):
                        if proven(i, r, sym, j, s):
                            continue
                        want = scale(sym, j, r + s, c)
                        if mat_bracket(mat("h", i, r), mat(sym, j, s)) != want:
                            report.append(f"[h_{i} t^{r}, {sym}_{j} t^{s}] wrong")
                    for sym in "hef":
                        if (j, s) <= (i, r):
                            # both sides are minus those of the mirror
                            # [x_j t^s, x_i t^r], checked before (or x = y)
                            wrong = (sym, j, i, s, r) in failed
                        elif sym == "h" and (
                            proven(i, r, "h", j, s) or proven(j, s, "h", i, r)
                        ):
                            wrong = False
                        elif sym == "h" or j != i + 1:
                            wrong = bool(mat_bracket(mat(sym, i, r), mat(sym, j, s)))
                        elif s == 0:
                            wrong = False  # the adjacent root vector's definition
                        else:
                            root = roots.get((sym, r + s))
                            if root is None:
                                root = roots[sym, r + s] = mat_bracket(
                                    mat(sym, i, r + s), mat(sym, j, 0)
                                )
                            wrong = mat_bracket(mat(sym, i, r), mat(sym, j, s)) != root
                        if wrong:
                            failed.add((sym, i, j, r, s))
                            report.append(f"[{sym}_{i} t^{r}, {sym}_{j} t^{s}] wrong")
    if m.graded:
        top = m.top_degree()
        for i in range(1, n + 1):
            if mat("e", i, top + 1) or mat("f", i, top + 1):
                report.append("action above the top degree")
    elif m.points is not None:
        p = len(m.points)
        poly = [1]
        for z in m.points:
            poly = [a - z * b for a, b in zip(poly + [0], [0] + poly)]
        # poly holds the coefficients of prod (x - z_f), leading term first,
        # so sum_d poly[d] x^{p-d} vanishes at every point
        for i in range(1, n + 1):
            for sym in "ef":
                cols = {}
                for d in range(p + 1):
                    for c, col in mat(sym, i, p - d).items():
                        vec_iadd_scaled(cols.setdefault(c, {}), dict(col), poly[d])
                if any(cols.values()):
                    report.append(f"power {p} of {sym}_{i} breaks point dependence")
    return report
