"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping coordinate index to a nonzero Fraction.  Matrices
are stored column-wise: column index -> tuple of (row, coeff) pairs.  All
elimination is exact; there is no floating point anywhere in this package.

Row reduction is block local.  Every vector handled by the module engine is
homogeneous for some label (a weight, or a weight-degree pair), and vectors
with different labels have disjoint support, so the echelon basis keeps an
independent pivot table per label.  Pivoting is deterministic: the pivot of
a row is its smallest coordinate index, and the first nonzero column wins.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _canon(x):
    """Collapse denominator-one values to plain ints; they add and multiply
    an order of magnitude faster than Fraction and mix with it exactly."""
    return x.numerator if x.denominator == 1 else x

SparseVec = dict  # index -> Fraction, all values nonzero
SparseMat = dict  # col index -> tuple[(row index, Fraction), ...]


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


def mat_apply(mat, v):
    """Matrix times vector, both sparse."""
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
    return out


def mat_from_columns(cols):
    """Normalize a dict col -> SparseVec into column tuples, dropping zeros."""
    out = {}
    for i, v in cols.items():
        col = tuple(sorted((j, _canon(x)) for j, x in v.items() if x))
        if col:
            out[i] = col
    return out


def mat_compose(a, b):
    """Matrix product a∘b (apply b first)."""
    cols = {}
    for i, col in b.items():
        v = mat_apply(a, dict(col))
        if v:
            cols[i] = v
    return mat_from_columns(cols)


def mat_scale(a, c):
    if c == 0:
        return {}
    c = _canon(c)
    return {i: tuple((j, c * x) for j, x in col) for i, col in a.items()}


def mat_sub(a, b):
    cols = {}
    for i in set(a) | set(b):
        v = dict(a.get(i, ()))
        vec_iadd_scaled(v, dict(b.get(i, ())), -ONE)
        if v:
            cols[i] = v
    return mat_from_columns(cols)


def mat_bracket(a, b):
    """Commutator a∘b - b∘a."""
    return mat_sub(mat_compose(a, b), mat_compose(b, a))


def mat_add_scaled(mats_and_coeffs):
    """Linear combination of matrices given as (mat, coeff) pairs."""
    cols = {}
    for mat, c in mats_and_coeffs:
        if c == 0:
            continue
        for i, col in mat.items():
            v = cols.setdefault(i, {})
            vec_iadd_scaled(v, dict(col), c)
    return mat_from_columns(cols)


def mat_is_zero(a):
    return all(not col for col in a.values())


def mat_eq(a, b):
    return mat_is_zero(mat_sub(a, b))


class Echelon:
    """Incremental reduced spanning set with block-local pivots.

    Rows are stored in insertion order as primitive integer vectors whose
    pivot (smallest index in the support) has a positive coefficient, kept
    in self.scales; the basis vector row j represents is rows[j]/scales[j].
    `label(index)` must be constant on the support of every inserted
    vector; only rows with the same label are ever combined.

    Elimination clears denominators once, then runs a single ascending
    integer sweep over the block's pivot list: a pivot is the minimum of
    its row's support, so cancelling at pivot p only introduces entries
    above p and no pivot needs a second visit.  A running scale keeps the
    sweep fraction free; exact values are restored on the way out.

    Cancelling an entry c against a row with pivot coefficient g takes
    d = gcd(c, g), scales the vector by g/d and subtracts (c/d) times
    the row.  When g divides c, which is the common case, the vector is
    not rescaled at all, so entries and the running scale stay small.
    """

    def __init__(self):
        self.rows = []        # primitive integer SparseVecs, insertion order
        self.scales = []      # positive pivot coefficient per row
        self.meta = []        # caller data per row, parallel to rows
        self.pivots = {}      # label -> {pivot index -> row number}
        self._order = {}      # label -> sorted list of pivot indices

    def __len__(self):
        return len(self.rows)

    @staticmethod
    def _cleared(v):
        """Integer copy of v and the factor it was scaled up by."""
        L = 1
        for x in v.values():
            d = x.denominator
            if d != 1:
                L = L * d // math.gcd(L, d)
        if L == 1:
            return {i: x.numerator for i, x in v.items()}, 1
        return {i: x.numerator * (L // x.denominator) for i, x in v.items()}, L

    def _sweep(self, v, label, scale, coeffs=None):
        """In-place integer elimination; returns the final scale.

        The vector represented is v/scale throughout.  With coeffs a dict,
        accumulates the exact basis coefficient of every row hit.
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
                coeffs[row_no] = coeffs.get(row_no, 0) + Fraction(c, scale)
            row = self.rows[row_no]
            g = self.scales[row_no]
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

    def reduce(self, v, label):
        """Eliminate every pivot position from v; returns the exact residual."""
        w, scale = self._cleared(v)
        scale = self._sweep(w, label, scale)
        if scale == 1:
            return w
        return {i: _canon(Fraction(x, scale)) for i, x in w.items()}

    def insert(self, v, label, meta=None):
        """Reduce v and insert the residual if nonzero.

        Returns the new row number, or None if v was already in the span.
        """
        w, scale = self._cleared(v)
        self._sweep(w, label, scale)
        if not w:
            return None
        g = 0
        for x in w.values():
            g = math.gcd(g, x)
        p = min(w)
        if w[p] < 0:
            g = -g
        if g != 1:
            w = {i: x // g for i, x in w.items()}
        idx = len(self.rows)
        self.rows.append(w)
        self.scales.append(w[p])
        self.meta.append(meta)
        self.pivots.setdefault(label, {})[p] = idx
        bisect.insort(self._order.setdefault(label, []), p)
        return idx

    def coordinates(self, v, label):
        """Write v as a combination of basis vectors; returns (coeffs, residual).

        coeffs maps row number -> exact coefficient of rows[j]/scales[j].
        residual is empty iff v lies in the current span of the label's block.
        """
        w, scale = self._cleared(v)
        coeffs = {}
        scale = self._sweep(w, label, scale, coeffs)
        coeffs = {r: _canon(c) for r, c in coeffs.items()}
        if scale == 1:
            return coeffs, w
        return coeffs, {i: _canon(Fraction(x, scale)) for i, x in w.items()}
