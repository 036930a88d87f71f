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

    A block whose pivot count reaches its capacity spans its label
    space: insert rejects and reduce clears every vector of it without
    elimination, and its reduced rows are dropped.  release() drops the
    rest once the closure is done; insert and reduce then raise
    InvariantError, and coordinates keeps working.

    room maps each label whose block is not full to the dimension its
    rows do not span yet, capacity minus pivot count; insert counts it
    down and deletes a label that reaches 0, and a label of capacity 0
    is never in it.  So a block is full exactly when room.get(label) is
    falsy, one dict lookup: full() is that test, and a closure reads
    room itself for every candidate it weighs (modules._close).
    release() empties room too, as nothing can be inserted after it.
    """

    def __init__(self, capacity):
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

    def __len__(self):
        return len(self.rows)

    def full(self, label):
        """Whether the block spans the whole label space."""
        return not self.room.get(label)

    def release(self):
        """Drop the reduced copy and the room table; insert and reduce
        refuse from now on."""
        self._reduced = None
        self.room = {}

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

    def _block(self, label):
        """The reduced copy of the label's block, or None while it has
        none; raises once released."""
        if self._reduced is None:
            raise InvariantError("echelon reduced copy already released")
        return self._reduced.get(label)

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
        block = self._block(label)
        if self.full(label):
            return {}
        w, scale = self._cleared(v)
        scale = self._clear(w, label, block, scale)
        if scale == 1:
            return w
        return {i: _canon(Fraction(x, scale)) for i, x in w.items()}

    def insert(self, v, label, meta=None):
        """Reduce v and insert the residual if nonzero.

        Returns the new row number, or None if v was already in the span.
        The first rejection in a block that is not full builds its
        reduced copy.
        """
        block = self._block(label)
        if self.full(label):
            return None
        w, _ = self._cleared(v)
        self._clear(w, label, block, 1)
        if not w:
            if block is None:
                block = self._reduced[label] = {}
                for p, j in self.pivots.get(label, {}).items():  # insertion order
                    self._extend(block, self.rows[j], p)
            return None
        content = math.gcd(*w.values())
        p = min(w)
        if w[p] < 0:
            content = -content
        if content != 1:
            w = {i: x // content for i, x in w.items()}
        idx = len(self.rows)
        self.rows.append(w)
        self.scales.append(w[p])
        self.meta.append(meta)
        self.pivots.setdefault(label, {})[p] = idx
        bisect.insort(self._order.setdefault(label, []), p)
        left = self.room[label] - 1
        if left:
            self.room[label] = left
            if block is not None:
                self._extend(block, w, p)
        else:
            del self.room[label]
            self._reduced.pop(label, None)
        return idx

    def coordinates(self, v, label):
        """Write v as a combination of basis vectors; returns (coeffs, residual).

        coeffs maps row number -> exact coefficient of rows[j]/scales[j].
        residual is empty iff v lies in the current span of the label's block.
        """
        w, scale = self._cleared(v)
        coeffs = {}
        scale = self._sweep(w, label, scale, coeffs)
        if scale == 1:
            return coeffs, w
        return coeffs, {i: _canon(Fraction(x, scale)) for i, x in w.items()}
