"""Explicit finite dimensional modules, exact over the rationals.

One module type.  GtModule is a module over the polynomial current
algebra: generators are x_i^+ ⊗ t^k, x_i^- ⊗ t^k, h_i ⊗ t^k, addressed
by (sym, node, k) with sym in "efh".  A module is graded (a degree per
basis vector), of evaluation type (it carries the points that fix
every power of t), or a g-module: ungraded, without points and with
trunc = 0, so only the t^0 generators, the Chevalley generators of the
finite simple Lie algebra, act on it.

Action matrices are produced on demand by a construction-specific
builder and cached.  One rule, fixed by the call site, picks the form
of the action.  Work on a single vector (the Borel phase of a closure,
relation words, root vectors, the action of a subquotient) goes
through act, which uses the cached matrix if there is one and the
module's vector-level action otherwise; a tensor product moves the
factor images of the vector's coordinates into place and builds no
matrix of its own.  A pass over every row (the lowering closures, the
truncation check, a subquotient matrix) reads matrix once per
generator and applies it row by row.  So neither the Borel phase nor
a relation word builds a matrix of an ambient tensor product.

Vectors are sparse dicts in the module's own coordinates.  Every basis
element is weight homogeneous (and degree homogeneous in the graded
case), so the echelon kernel can keep its pivot tables block local.

Submodules come from one closure routine.  _closure puts the generating
vector into an echelon and closes it, first under the Borel generators
and then under the lowering generators alone (PBW).  Every row carries
a tag: the generator's degree, plus k for each a ⊗ t^k applied on the
way.  Candidates are processed in ascending tag order, so the rows of
tag ≤ r span the r-th piece of the t-degree filtration; in a graded
module the tag is the degree.  cyclic_submodule and fusion_filtration
differ only in the checks they make afterwards and in how
_module_on_rows reads the rows.

Non-simple root vectors are fixed as left-normed brackets,
x_{(a,b)} = [x_{(a,b-1)}, x_b] for the interval root alpha_a + ... +
alpha_b; the relations tested through root vectors do not depend on
the resulting sign convention.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantError
from .linalg import (
    Echelon,
    _canon,
    mat_add_scaled,
    mat_apply,
    mat_bracket,
    mat_eq,
    mat_from_columns,
    mat_scale,
    vec_iadd_scaled,
)
from .typea import (
    Character,
    cartan_matrix,
    fundamental_weight,
    is_dominant,
    simple_root,
    weight_add,
    weight_scale,
    weyl_dim,
    zero_weight,
)

ONE = Fraction(1)


def _shift(rank, sym, i):
    """Weight shift of the generator: +alpha_i, -alpha_i, or 0."""
    if sym == "e":
        return simple_root(rank, i)
    if sym == "f":
        return tuple(-x for x in simple_root(rank, i))
    return zero_weight(rank)


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
        n, weights, None, 0, lambda sym, node, k: mats[(sym, node)], cyclic_index=top
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


def _row_pass(m):
    """The action for a pass over every row: each generator's matrix is
    read (and built, if need be) once and applied row by row."""
    mats = {}

    def act(sym, i, k, vec):
        key = (sym, i, k)
        if key not in mats:
            mats[key] = m.matrix(*key)
        return mat_apply(mats[key], vec)

    return act


def _close(m, ech, rows, gens, act):
    """Close the span of ech under gens, starting from the given rows;
    returns the accepted row numbers.

    Row j's meta is (weight, tag), and the image of row j under
    a ⊗ t^k is a candidate of tag tag_j + k.  Candidates wait in
    buckets keyed by their tag.  The buckets are emptied in ascending
    order, each depth first, and an accepted candidate becomes a row of
    its bucket's tag whose own images join the buckets.  A generator
    whose target block is already full is not applied.
    """
    powers = {}
    for sym, i, k in gens:
        powers.setdefault(k, []).append((sym, i, k, _shift(m.rank, sym, i)))
    buckets = {}

    def queue(j):
        tag = ech.meta[j][1]
        for k, group in powers.items():
            buckets.setdefault(tag + k, []).append((j, group))

    for j in rows:
        queue(j)
    accepted = []
    while buckets:
        tag = min(buckets)
        todo = buckets[tag]
        while todo:
            j, group = todo.pop()
            row, wt = ech.rows[j], ech.meta[j][0]
            for sym, i, k, shift in group:
                wt2 = weight_add(wt, shift)
                label = _closure_label(m, wt2, tag)
                if ech.full(label):
                    continue
                img = act(sym, i, k, row)
                if img:
                    new = ech.insert(img, label, (wt2, tag))
                    if new is not None:
                        accepted.append(new)
                        queue(new)
        del buckets[tag]
    return accepted


@lru_cache(maxsize=None)
def simple_gmodule(n: int, lam) -> GtModule:
    """The simple g-module of highest weight lam, realized as the
    submodule generated by the top pure tensor inside a product of
    exterior powers."""
    lam = tuple(int(x) for x in lam)
    if len(lam) != n or not is_dominant(lam):
        raise ValueError("weight must be dominant of matching rank")
    factors = []
    for i in range(1, n + 1):
        factors.extend(fundamental_gmodule(n, i) for _ in range(lam[i - 1]))
    if not factors:
        return GtModule(
            n, [zero_weight(n)], None, 0, lambda sym, i, k: {}, cyclic_index=0
        )
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
    apply, if given, is a vector-level action apply(sym, i, k, vec).
    act, the path for work on one vector, uses it while the matrix is
    not cached; a pass over every row reads matrix instead, which
    builds and caches the whole matrix once.
    """

    def __init__(
        self,
        rank,
        weights,
        degrees,
        trunc,
        builder,
        points=None,
        cyclic_index=None,
        apply=None,
    ):
        self.rank = rank
        self.weights = [tuple(w) for w in weights]
        self.degrees = None if degrees is None else [int(d) for d in degrees]
        self.trunc = trunc
        self.points = points
        self.cyclic_index = cyclic_index
        self._builder = builder
        self._mats = {}
        self._apply_vec = apply

    @property
    def dim(self):
        return len(self.weights)

    @property
    def graded(self):
        return self.degrees is not None

    def top_degree(self):
        return max(self.degrees) if self.degrees else 0

    def character(self) -> Character:
        """Weight multiplicities, forgetting the grading if there is one."""
        out = {}
        for w in self.weights:
            out[w] = out.get(w, 0) + 1
        return Character(out)

    def _acts_by_zero(self, k):
        """Whether t^k acts by zero; raises if the module cannot produce it."""
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
        key = (sym, i, k)
        if key not in self._mats:
            self._mats[key] = {} if self._acts_by_zero(k) else self._builder(sym, i, k)
        return self._mats[key]

    def act(self, sym, i, k, vec):
        if k < 0:
            raise ValueError("negative t-power")
        if not vec:
            return {}
        mat = self._mats.get((sym, i, k))
        if mat is None and self._apply_vec is not None:
            return {} if self._acts_by_zero(k) else self._apply_vec(sym, i, k, vec)
        return mat_apply(self.matrix(sym, i, k) if mat is None else mat, vec)

    def weight_of(self, vec):
        """The common weight of the support, or raise if mixed."""
        wts = {self.weights[j] for j in vec}
        if len(wts) != 1:
            raise ValueError("vector is not weight homogeneous")
        return wts.pop()

    def degree_of(self, vec):
        ds = {self.degrees[j] for j in vec}
        if len(ds) != 1:
            raise ValueError("vector is not degree homogeneous")
        return ds.pop()


def evaluation_module(m: GtModule, z) -> GtModule:
    """Pull a g-module back through evaluation at the point z: a ⊗ t^k
    acts by z^k a."""
    z = Fraction(z)

    def build(sym, i, k):
        base = m.matrix(sym, i, 0)
        if k == 0:
            return base
        return mat_scale(base, z**k)

    return GtModule(
        m.rank,
        m.weights,
        None,
        0,
        build,
        points=(z,),
        cyclic_index=m.cyclic_index,
    )


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
    weights = []
    degrees = [] if graded else None
    for lab in labels:
        w = zero_weight(rank)
        for f, j in enumerate(lab):
            w = weight_add(w, ms[f].weights[j])
        weights.append(w)
        if graded:
            degrees.append(sum(ms[f].degrees[j] for f, j in enumerate(lab)))

    def build(sym, i, k):
        factor_mats = [
            (mat, st, d)
            for mat, st, d in zip((m.matrix(sym, i, k) for m in ms), strides, dims)
            if mat
        ]
        cols = {}
        for flat in flats:
            col = {}
            for mat, st, d in factor_mats:
                j = flat // st % d
                for r, c in mat.get(j, ()):
                    dest = flats[flat + (r - j) * st]
                    col[dest] = col.get(dest, 0) + c
            if col:
                cols[flat] = col
        return mat_from_columns(cols)

    def apply(sym, i, k, vec):
        """The coproduct action on one vector: each factor acts once on
        each of its coordinates that occurs in vec."""
        out = {}
        for m, st, d in zip(ms, strides, dims):
            images = {}
            for flat, x in vec.items():
                j = flat // st % d
                img = images.get(j)
                if img is None:
                    img = images[j] = m.act(sym, i, k, {j: 1})
                for r, c in img.items():
                    dest = flats[flat + (r - j) * st]
                    y = out.get(dest, 0) + x * c
                    if y:
                        out[dest] = y
                    else:
                        out.pop(dest, None)
        return out

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
    out = GtModule(
        rank,
        weights,
        degrees,
        trunc,
        build,
        points=points,
        cyclic_index=cyclic,
        apply=apply,
    )
    out.flat_index = index
    return out


# a g-module is a GtModule, so the g-module tensor is the same routine
tensor_gmodules = tensor_modules


def _closure_label(m: GtModule, wt, deg):
    return (wt, deg) if m.graded else wt


def _closure_echelon(m: GtModule) -> Echelon:
    """An empty echelon for a closure inside m: the capacity of a label is
    the number of basis vectors of m that carry it, and a label no basis
    vector carries has capacity 0, so its block is full from the start."""
    degrees = m.degrees if m.graded else itertools.repeat(0)
    return Echelon(Counter(_closure_label(m, w, d) for w, d in zip(m.weights, degrees)))


def _lift(ech, part):
    """Ambient vector for a dict of basis coefficients; rows carry a scale.

    Integral coefficients stay int: int arithmetic is an order of
    magnitude faster than Fraction downstream.
    """
    amb = {}
    for j, c in part.items():
        g = ech.scales[j]
        vec_iadd_scaled(amb, ech.rows[j], _canon(c if g == 1 else Fraction(c, g)))
    return amb


def _module_on_rows(m, ech, degrees, trunc, points, slot):
    """The module whose basis vector j is row j of ech, acted on through m.

    ech.meta[j] is the (weight, tag) of row j; the tag is the degree of
    a graded closure and the filtration degree in fusion_filtration, and
    an ungraded cyclic submodule ignores it.  The image of a basis
    vector of tag d under a ⊗ t^k is written in the rows of its block,
    which must span it, and slot(coeffs, d + k) turns those coordinates
    into the column of the new module: cyclic_submodule keeps them all,
    fusion_filtration keeps its graded slot.  The action on one vector lifts it to m and
    goes through m.act; a matrix reads m.matrix once and applies it to
    every row.  Both closures end here, so the reduced copy of ech is
    released.
    """
    ech.release()

    def coords(sym, i, k, img, wt, deg):
        if not img:
            return {}
        wt2 = weight_add(wt, _shift(m.rank, sym, i))
        coeffs, residual = ech.coordinates(img, _closure_label(m, wt2, deg + k))
        if residual:
            raise InvariantError("closure is not action stable")
        return slot(coeffs, deg + k)

    def apply(sym, i, k, vec):
        groups = {}
        for j, c in vec.items():
            groups.setdefault(ech.meta[j], {})[j] = c
        out = {}
        for (wt, deg), part in groups.items():
            img = m.act(sym, i, k, _lift(ech, part))
            vec_iadd_scaled(out, coords(sym, i, k, img, wt, deg), 1)
        return out

    def build(sym, i, k):
        mat = m.matrix(sym, i, k)
        cols = {}
        for j, row in enumerate(ech.rows):
            # act on the integer row, which is scales[j] times basis vector
            # j, so the ambient action stays in int arithmetic
            col = coords(sym, i, k, mat_apply(mat, row), *ech.meta[j])
            g = ech.scales[j]
            if col:
                cols[j] = col if g == 1 else {r: Fraction(c, g) for r, c in col.items()}
        return mat_from_columns(cols)

    return GtModule(
        m.rank,
        [meta[0] for meta in ech.meta],
        degrees,
        trunc,
        build,
        points=points,
        cyclic_index=0,
        apply=apply,
    )


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
    valid input.
    """
    if not vec:
        raise ValueError("cannot close the zero vector")
    wt = m.weight_of(vec)
    deg = m.degree_of(vec) if m.graded else 0
    ech = _closure_echelon(m)
    ech.insert(vec, _closure_label(m, wt, deg), (wt, deg))
    borel = _close(m, ech, [0], _borel_gens(m.rank, m.trunc), m.act)
    lowering = _lowering_gens(m.rank, range(m.trunc + 1))
    _close(m, ech, range(len(ech)), lowering, _row_pass(m))
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
    return _module_on_rows(m, ech, degrees, m.trunc, m.points, lambda coeffs, d: coeffs)


def _assert_truncation_sufficient(m: GtModule, ech: Echelon):
    for sym in "efh":
        for i in range(1, m.rank + 1):
            shift = _shift(m.rank, sym, i)
            for k in (m.trunc + 1, m.trunc + 2):
                mat = m.matrix(sym, i, k)
                for row, meta in zip(ech.rows, ech.meta):
                    if ech.reduce(mat_apply(mat, row), weight_add(meta[0], shift)):
                        raise InvariantError("truncated generator set failed to close")


def fusion_filtration(m: GtModule, vec) -> GtModule:
    """Associated graded of the t-degree filtration generated by vec.

    F^r = U(g[t])_{≤r}·vec is spanned by products of total t-degree at
    most r applied to vec (Feigin–Loktev 1999).  vec must be a
    highest-weight vector, so the Borel phase of _closure accepts no
    row (ValueError otherwise), and by PBW F^r = U(n⁻[t])_{≤r}·vec.  The
    lowering phase empties its buckets in ascending tag order: while
    bucket r is processed every stored row has tag ≤ r, and a row
    accepted there gets tag r.  So the rows of tag ≤ r span F^r, and
    row j represents its class in F^{d_j}/F^{d_j - 1}, d_j its tag.
    Raises ValueError if vec does not generate m.
    """
    if m.graded:
        raise ValueError("input is already graded")
    ech, borel = _closure(m, vec)
    if borel:
        raise ValueError("generator is not a highest-weight vector")
    if len(ech) < m.dim:
        raise ValueError("vector is not cyclic")

    tags = [meta[1] for meta in ech.meta]

    def slot(coeffs, d):
        """Truncate an image of degree d to F^d/F^{d-1}."""
        if any(tags[r] > d for r in coeffs):
            raise InvariantError("filtration violated")
        return {r: c for r, c in coeffs.items() if tags[r] == d}

    return _module_on_rows(m, ech, tags, max(tags), None, slot)


def default_points(p: int):
    return tuple(range(p))


def fusion_of_simples(n, lams, points) -> GtModule:
    """Graded fusion of the simple modules V(lam_k) at the given points."""
    points = tuple(Fraction(z) for z in points)
    if len(points) != len(lams):
        raise ValueError("one point per factor required")
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")
    factors = [
        evaluation_module(simple_gmodule(n, tuple(lam)), z)
        for lam, z in zip(lams, points)
    ]
    big = factors[0] if len(factors) == 1 else tensor_modules(factors)
    return fusion_filtration(big, {big.cyclic_index: ONE})


def fusion_product(n: int, i: int, xi, points=None) -> GtModule:
    """Fusion of the one-node simples with highest weights xi_k omega_i."""
    parts = tuple(xi)
    if points is None:
        points = default_points(len(parts))
    lams = [weight_scale(c, fundamental_weight(n, i)) for c in parts]
    return fusion_of_simples(n, lams, points)


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

    def total_dim(self):
        return sum(self.mults.values())

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
        mults = {}
        for e in data["entries"]:
            key = (tuple(e["weight"]), int(e["degree"]))
            mults[key] = mults.get(key, 0) + int(e["mult"])
        return GradedCharacter(int(data["rank"]), mults)


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
    if not 1 <= a <= b <= m.rank:
        raise ValueError("bad interval")
    if sym == "h":
        out = {}
        for j in range(a, b + 1):
            vec_iadd_scaled(out, m.act("h", j, k, vec), 1)
        return out
    if a == b:
        return m.act(sym, a, k, vec)
    inner = (a, b - 1)
    out = _root_apply(m, sym, inner, k, m.act(sym, b, 0, vec))
    vec_iadd_scaled(out, m.act(sym, b, 0, _root_apply(m, sym, inner, k, vec)), -1)
    return out


def apply_word(m: GtModule, vec, word):
    """Apply a product of generator powers to a vector.

    Each word entry is (sym, node or interval, t-power, repeat count);
    entries act in list order on the running vector.  Returns the exact
    image, {} iff the product kills vec.
    """
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


def _check_homogeneous(rank, weights, degrees, sym, i, k, mat, report):
    shift = _shift(rank, sym, i)
    for col, entries in mat.items():
        want = weight_add(weights[col], shift)
        for row, _ in entries:
            if weights[row] != want:
                report.append(f"{sym}_{i} t^{k} breaks weight homogeneity")
                return
            if degrees is not None and degrees[row] != degrees[col] + k:
                report.append(f"{sym}_{i} t^{k} breaks degree homogeneity")
                return


def check_axioms(m: GtModule) -> list:
    """Exact verification of the defining identities; empty list = pass.

    h_i ⊗ t^0 is the weight diagonal; weight and degree homogeneity of
    every stored generator; loop brackets [a t^r, b t^s] = [a, b] t^{r+s}
    for r + s within the truncation across all generator pairs whose
    bracket is again expressible (e-f, h-e, h-f, h-h, and e-e / f-f
    through interval root vectors, built column by column with
    _root_apply); vanishing above the top degree for graded modules;
    and the dependence of the p-th power on lower powers forced by the
    points of an evaluation tensor.  A g-module (trunc 0) is checked at
    t^0 alone.
    """
    report = []
    n = m.rank
    cart = cartan_matrix(n)
    kmax = m.trunc
    roots = {}

    def adjacent_root(sym, a, k):
        """Generator for alpha_a + alpha_{a+1} at t^k, cached per call."""
        key = (sym, a, k)
        if key not in roots:
            cols = {c: _root_apply(m, sym, (a, a + 1), k, {c: 1}) for c in range(m.dim)}
            roots[key] = mat_from_columns(cols)
        return roots[key]

    for i in range(1, n + 1):
        diag = mat_from_columns({j: {j: w[i - 1]} for j, w in enumerate(m.weights)})
        if not mat_eq(m.matrix("h", i, 0), diag):
            report.append(f"h_{i} is not the weight diagonal")
    for sym in "efh":
        for i in range(1, n + 1):
            for k in range(kmax + 1):
                _check_homogeneous(
                    n, m.weights, m.degrees, sym, i, k, m.matrix(sym, i, k), report
                )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for r in range(kmax + 1):
                for s in range(kmax + 1 - r):
                    b = mat_bracket(m.matrix("e", i, r), m.matrix("f", j, s))
                    want = m.matrix("h", i, r + s) if i == j else {}
                    if not mat_eq(b, want):
                        report.append(f"[e_{i} t^{r}, f_{j} t^{s}] wrong")
                    a = Fraction(cart[i - 1][j - 1])
                    if not mat_eq(
                        mat_bracket(m.matrix("h", i, r), m.matrix("e", j, s)),
                        mat_scale(m.matrix("e", j, r + s), a),
                    ):
                        report.append(f"[h_{i} t^{r}, e_{j} t^{s}] wrong")
                    if not mat_eq(
                        mat_bracket(m.matrix("h", i, r), m.matrix("f", j, s)),
                        mat_scale(m.matrix("f", j, r + s), -a),
                    ):
                        report.append(f"[h_{i} t^{r}, f_{j} t^{s}] wrong")
                    if not mat_eq(
                        mat_bracket(m.matrix("h", i, r), m.matrix("h", j, s)), {}
                    ):
                        report.append(f"[h_{i} t^{r}, h_{j} t^{s}] wrong")
                    for sym in "ef":
                        b = mat_bracket(m.matrix(sym, i, r), m.matrix(sym, j, s))
                        if j == i + 1:
                            want = adjacent_root(sym, i, r + s)
                        elif i == j + 1:
                            want = mat_scale(adjacent_root(sym, j, r + s), -ONE)
                        else:
                            want = {}
                        if not mat_eq(b, want):
                            report.append(
                                f"[{sym}_{i} t^{r}, {sym}_{j} t^{s}] wrong"
                            )
    if m.graded:
        top = m.top_degree()
        for i in range(1, n + 1):
            if m.matrix("e", i, top + 1) or m.matrix("f", i, top + 1):
                report.append("action above the top degree")
    elif m.points is not None:
        p = len(m.points)
        poly = [ONE]
        for z in m.points:
            poly = [
                a - z * b
                for a, b in zip(poly + [Fraction(0)], [Fraction(0)] + poly)
            ]
        # poly holds the coefficients of prod (x - z_f), leading term first
        for i in range(1, n + 1):
            for sym in "ef":
                combo = mat_add_scaled(
                    [(m.matrix(sym, i, p - d), -poly[d]) for d in range(1, p + 1)]
                )
                if not mat_eq(m.matrix(sym, i, p), combo):
                    report.append(f"power {p} of {sym}_{i} breaks point dependence")
    return report
