"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping coordinate index to a nonzero int or Fraction;
values with denominator one are kept as plain ints.  Matrices are stored
column-wise: column index -> tuple of (row, coeff) pairs.  All
elimination is exact; there is no floating point anywhere in this
package.

A matrix is in normal form when every column is sorted by row, has no
zero entry and is not empty; mat_from_columns and mat_bracket return
it, and mat_scale keeps it.  Two matrices in normal form are
equal exactly when they compare equal with ==, so no matrix difference
is ever formed to test an identity.  mat_bracket builds that form
directly, one column dict at a time, from both operands' column tuples.

Row reduction is block local.  Every vector handled by the module engine is
homogeneous for some label (a weight, or a weight-degree pair), and vectors
with different labels have disjoint support, so the echelon basis keeps an
independent pivot table per label.  Pivoting is deterministic: the pivot of
a row is its smallest coordinate index, and the first nonzero column wins.
A block decides membership by a triangular sweep over its rows until
it first rejects a vector; from then on, while the closure runs, it
keeps a fully reduced copy of its rows, so a decision takes one pass.
The copy is released when the closure ends.  Each label carries the
dimension of its label space, and a block that reaches it is full: it
accepts nothing more and needs no elimination.

A row can also be appended unreduced, as a recipe for its vector;
its block makes and reduces it ("settles") the first time something
reads the block (Echelon.append).
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .errors import InvariantError


def _canon(x):
    """Collapse denominator-one values to plain ints; they add and multiply
    an order of magnitude faster than Fraction and mix with it exactly."""
    return x.numerator if x.denominator == 1 else x

SparseVec = dict  # index -> int or Fraction, all values nonzero
SparseMat = dict  # col index -> tuple[(row index, int or Fraction), ...]


def vec_iadd_scaled(v, w, c):
    """v += c*w in place; drops cancelled entries."""
    if c == 0:
        return v
    for i, x in w.items():
        y = v.get(i, 0) + c * x
        if y:
            v[i] = y
        else:
            v.pop(i, None)
    return v


def _canon_vec(v):
    """v, in place, with every integral Fraction made an int: a sum of
    Fractions can come out integral."""
    if type(sum(v.values())) is not int:  # a Fraction is among them
        for i, x in v.items():
            if x.denominator == 1:
                v[i] = x.numerator
    return v


def mat_apply(mat, v):
    """Matrix times vector, both sparse, integral values as ints."""
    out = {}
    for i, x in v.items():
        col = mat.get(i)
        if not col:
            continue
        for j, c in col:
            y = out.get(j, 0) + x * c
            if y:
                out[j] = y
            else:
                out.pop(j, None)
    return _canon_vec(out)


def mat_from_columns(cols):
    """Normalize a dict col -> SparseVec into column tuples, dropping zeros."""
    out = {}
    for i, v in cols.items():
        col = tuple(sorted((j, _canon(x)) for j, x in v.items() if x))
        if col:
            out[i] = col
    return out


def mat_scale(a, c):
    if c == 0:
        return {}
    return {i: tuple((j, _canon(c * x)) for j, x in col) for i, col in a.items()}


def mat_bracket(a, b):
    """Commutator a∘b - b∘a, in normal form.

    Column c sums x·a[j] over the entries (j, x) of b[c] and -x·b[j]
    over those of a[c] into one dict, sorted once; an empty operand
    gives {} at once.
    """
    if not a or not b:
        return {}
    out = {}
    for c in a.keys() | b.keys():
        acc = {}
        for j, x in b.get(c, ()):
            for i, y in a.get(j, ()):
                acc[i] = acc.get(i, 0) + x * y
        for j, x in a.get(c, ()):
            for i, y in b.get(j, ()):
                acc[i] = acc.get(i, 0) - x * y
        col = [(i, _canon(y)) for i, y in acc.items() if y]
        if col:
            col.sort()
            out[c] = tuple(col)
    return out


def _cancel(v, c, row, p, g, scale):
    """Cancel the entry c of v at p, in place, against row, whose pivot p
    has coefficient g; returns the new scale of v.

    With d = gcd(c, g), v is scaled by g/d and (c/d) times row is
    subtracted.  When g divides c, the common case, v is not rescaled,
    so entries and the running scale stay small.
    """
    if g != 1:
        d = math.gcd(c, g)
        if d != g:
            s = g // d
            for i in v:
                v[i] *= s
            scale *= s
        c //= d
    for i, x in row.items():
        if i == p:
            continue
        y = v.get(i, 0) - c * x
        if y:
            v[i] = y
        else:
            v.pop(i, None)
    return scale


class Echelon:
    """Incremental spanning set with block-local pivots.

    Rows are stored in insertion order as primitive integer vectors whose
    pivot (smallest index in the support) has a positive coefficient, kept
    in self.scales; the basis vector row j represents is rows[j]/scales[j].
    `label(index)` must be constant on the support of every inserted
    vector; only rows with the same label are ever combined.  capacity
    maps every label to the dimension of its label space.

    Membership (insert, reduce) is decided by the triangular sweep over
    rows (_sweep) until the block first rejects a vector in insert.
    The block then builds a fully reduced copy of its rows and decides
    against it from then on: every reduced row is zero at each other
    pivot of its block, so one pass over the pivots in v's own support
    clears them all, each by the gcd-scaled integer step of _cancel.
    An accepted row w with pivot p and coefficient g rewrites each
    reduced row with entry a at p as (g/d)·row - (a/d)·w, d = gcd(a, g),
    divided by its content; the copy is built by that same step, row by
    row in insertion order.  A reduced row shares its dict with rows[j]
    until a rewrite replaces it; no stored row is mutated.  So a block
    that never rejects pays for no copy, and one that rejects often
    clears each candidate in one pass.

    The residual of v is v minus a span element that is zero at every
    pivot, so it is the same whichever basis of the block cleared it:
    rows is what a triangular elimination would store, with or without
    the copy.  coordinates always runs the triangular sweep, which
    needs no reduced copy.

    A block whose row count, appended rows included, reaches its
    capacity spans its label space: insert rejects and reduce clears
    every vector of it without elimination, and its reduced rows are
    dropped.  release() drops the rest once the closure is done; insert
    and reduce then raise InvariantError, and coordinates keeps working.

    room maps each label whose block is not full to the dimension its
    rows do not span yet, capacity minus row count; insert and append
    count it down and delete a label that reaches 0, and a label of
    capacity 0 is never in it.  So a block is full exactly when room.get(label) is
    falsy, one dict lookup: full() is that test, and a closure reads
    room itself for every candidate it weighs (modules._close).
    release() empties room too, as nothing can be inserted after it,
    and drops capacity, which only a caller reads before it.

    append(recipe, label, meta) adds row j unreduced: rows[j] and
    scales[j] are None, and recipes[j] = (source row, *args), until the
    block settles.  settle(label) reduces the label's appended rows in
    row order, each made from its recipe as make(vector of the source,
    *args), and row(j, label) is row j after settling its block;
    insert, reduce and coordinates settle their block first, so
    appended rows always follow the settled ones of their block.  The
    residual of a vector depends only on the vector modulo the span of
    the earlier rows, so a caller that appends a row equal, modulo
    those rows, to one insert would accept gets the row insert would
    have stored; a row that settles to zero raises InvariantError.  A
    full block is settled by coordinates, row or settle alone, as
    insert and reduce decide it without elimination.
    """

    def __init__(self, capacity, make=None):
        self.capacity = capacity  # label -> dimension of the label space
        self.room = {label: c for label, c in capacity.items() if c}
        self.rows = []        # primitive integer SparseVecs, insertion order
        self.scales = []      # positive pivot coefficient per row
        self.meta = []        # caller data per row, parallel to rows
        self.pivots = {}      # label -> {pivot index -> row number}
        self._order = {}      # label -> sorted list of pivot indices
        # label -> {pivot -> fully reduced row}, for the blocks that have
        # rejected a vector and are not full; None once released
        self._reduced = {}
        self._make = make     # (vector, *args) -> vector of an appended row
        self.recipes = {}     # row number -> (source row, *args), until settled
        self._made = {}       # row number -> vector made from its recipe
        self._pending = {}    # label -> appended row numbers, in row order

    def __len__(self):
        return len(self.rows)

    def full(self, label):
        """Whether the block spans the whole label space."""
        return not self.room.get(label)

    def release(self):
        """Drop the reduced copy, the room table, capacity and the
        vectors made for appended rows; insert, reduce and append refuse
        from now on."""
        self._reduced = None
        self.room = {}
        self.capacity = None
        self._made = {}

    @staticmethod
    def _cleared(v):
        """Integer copy of v and the factor it was scaled up by."""
        if type(sum(v.values())) is int:  # no Fraction among them
            return dict(v), 1  # the common case: nothing to scan or convert
        L = 1
        for x in v.values():
            d = x.denominator
            if d != 1:
                L = L * d // math.gcd(L, d)
        if L == 1:
            return {i: x.numerator for i, x in v.items()}, 1
        return {i: x.numerator * (L // x.denominator) for i, x in v.items()}, L

    def _open(self, label):
        """Whether the label's block can still take a row; raises once
        released."""
        if self._reduced is None:
            raise InvariantError("echelon reduced copy already released")
        return not self.full(label)

    @staticmethod
    def _eliminate(v, block, scale):
        """One pass over the pivots in v's support, in place; returns the
        final scale.  The vector represented is v/scale throughout."""
        for p in [p for p in v if p in block]:
            row = block[p]
            scale = _cancel(v, v.pop(p), row, p, row[p], scale)
        return scale

    def _sweep(self, v, label, scale, coeffs=None):
        """Triangular in-place elimination against rows; returns the final
        scale and, if coeffs is given, stores the exact basis coefficient
        of every row hit in it.

        The vector represented is v/scale throughout.  A pivot is the
        minimum of its row's support, so cancelling at pivot p only
        introduces entries above p and one ascending pass suffices.
        Each pivot is popped at most once, so a row gets one coefficient
        per sweep: the int c itself while the scale is 1, which is the
        common case, and c/scale otherwise.  The sweep stops once v is
        empty, as no later pivot can then be hit.
        """
        block = self.pivots.get(label)
        if not block or not v:
            return scale
        order = self._order[label]
        for p in order[bisect.bisect_left(order, min(v)):]:
            c = v.pop(p, None)
            if c is None:
                continue
            row_no = block[p]
            if coeffs is not None:
                coeffs[row_no] = c if scale == 1 else _canon(Fraction(c, scale))
            scale = _cancel(v, c, self.rows[row_no], p, self.scales[row_no], scale)
            if not v:
                break
        return scale

    def _clear(self, v, label, block, scale):
        """Clear every pivot of the label's block from v, in place: one
        pass against its reduced copy block, or the triangular sweep if
        block is None.  Returns the final scale."""
        if block is None:
            return self._sweep(v, label, scale)
        return self._eliminate(v, block, scale)

    @staticmethod
    def _extend(block, w, p):
        """Add the accepted row w, pivot p, to the reduced copy block:
        every reduced row with an entry at p is rewritten to clear it."""
        g = w[p]
        for q, row in block.items():
            a = row.get(p)
            if a is None:
                continue
            d = math.gcd(a, g)
            new = dict(row) if g == d else {i: g // d * x for i, x in row.items()}
            vec_iadd_scaled(new, w, -(a // d))
            c = math.gcd(*new.values())
            block[q] = new if c == 1 else {i: x // c for i, x in new.items()}
        block[p] = w

    def reduce(self, v, label):
        """Eliminate every pivot position from v; returns the exact residual."""
        if not self._open(label):
            return {}
        self.settle(label)
        w, scale = self._cleared(v)
        scale = self._clear(w, label, self._reduced.get(label), scale)
        if scale == 1:
            return w
        return {i: _canon(Fraction(x, scale)) for i, x in w.items()}

    def _store(self, j, w, label):
        """Store the nonzero integer residual w, made primitive with a
        positive pivot, as row j of the label's block; returns its pivot."""
        content = math.gcd(*w.values())
        p = min(w)
        if w[p] < 0:
            content = -content
        if content != 1:
            w = {i: x // content for i, x in w.items()}
        self.rows[j] = w
        self.scales[j] = w[p]
        self.pivots.setdefault(label, {})[p] = j
        bisect.insort(self._order.setdefault(label, []), p)
        return p

    def _new_row(self, label, meta):
        """Row number of a new row of the label, counted against its room;
        the block drops its reduced copy when that makes it full."""
        idx = len(self.rows)
        self.rows.append(None)
        self.scales.append(None)
        self.meta.append(meta)
        left = self.room[label] - 1
        if left:
            self.room[label] = left
        else:
            del self.room[label]
            self._reduced.pop(label, None)
        return idx

    def insert(self, v, label, meta=None):
        """Reduce v and insert the residual if nonzero.

        Returns the new row number, or None if v was already in the span.
        The first rejection in a block that is not full builds its
        reduced copy.
        """
        if not self._open(label):
            return None
        self.settle(label)
        block = self._reduced.get(label)
        w, _ = self._cleared(v)
        self._clear(w, label, block, 1)
        if not w:
            if block is None:
                block = self._reduced[label] = {}
                for p, j in self.pivots.get(label, {}).items():  # insertion order
                    self._extend(block, self.rows[j], p)
            return None
        idx = self._new_row(label, meta)
        p = self._store(idx, w, label)
        block = self._reduced.get(label)  # gone if the row filled the block
        if block is not None:
            self._extend(block, self.rows[idx], p)
        return idx

    def append(self, recipe, label, meta=None):
        """Add a row of the label by its recipe, (source row, *args),
        unreduced; returns its row number.  Raises InvariantError if the
        block is full."""
        if not self._open(label):
            raise InvariantError("appended row exceeds its label space")
        idx = self._new_row(label, meta)
        self.recipes[idx] = recipe
        self._pending.setdefault(label, []).append(idx)
        return idx

    def _vector(self, j):
        """Row j's vector: the stored row, or, while row j waits to be
        settled, make of its source's vector, made once."""
        row = self.rows[j]
        if row is None:
            row = self._made.get(j)
            if row is None:
                source, *args = self.recipes[j]
                row = self._made[j] = self._make(self._vector(source), *args)
        return row

    def row(self, j, label):
        """Row j, whose label is label, its block settled first."""
        if self.rows[j] is None:
            self.settle(label)
        return self.rows[j]

    def settle(self, label=None):
        """Reduce the appended rows of the label, or of every label, in
        row order; raises InvariantError on one in the span of the rows
        before it.  Once released, no vector made on the way is kept."""
        for lab in list(self._pending) if label is None else [label]:
            pending = self._pending.pop(lab, None)
            if pending is None:
                continue
            block = None if self._reduced is None else self._reduced.get(lab)
            for j in pending:
                w, _ = self._cleared(self._vector(j))
                self._clear(w, lab, block, 1)
                if not w:
                    raise InvariantError("appended row lies in the span of its block")
                p = self._store(j, w, lab)
                if block is not None:
                    self._extend(block, self.rows[j], p)
                del self.recipes[j]
                self._made.pop(j, None)
        if self._reduced is None:  # released: keep no vector made for a source
            self._made = {}

    def coordinates(self, v, label):
        """Write v as a combination of basis vectors; returns (coeffs, residual).

        coeffs maps row number -> exact coefficient of rows[j]/scales[j].
        residual is empty iff v lies in the current span of the label's block.
        The block is settled first.
        """
        self.settle(label)
        w, scale = self._cleared(v)
        coeffs = {}
        scale = self._sweep(w, label, scale, coeffs)
        if scale == 1:
            return coeffs, w
        return coeffs, {i: _canon(Fraction(x, scale)) for i, x in w.items()}
