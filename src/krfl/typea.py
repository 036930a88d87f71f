"""Root system combinatorics for sl_{n+1}.

Weights are tuples of integers in the fundamental weight basis, so
lam[i-1] = lam(h_i).  The bilinear form is normalized so that every root
has squared length 2; with that normalization the Gram matrix of the
fundamental weights is the inverse Cartan matrix.

Weyl group elements are permutations of {1, ..., n+1}, stored as tuples
perm[k-1] = image of k, acting on epsilon coordinates.

height, dominant_rep, dominates and _orbit are lru_caches that live for
the whole process, as the closures of krfl.modules ask them about the
same few hundred weights many thousand times.  Each is a pure function
of its weights, tuples of ints, and returns an immutable value (_orbit
a tuple), so a cached answer is the one a fresh call computes and no
caller can alter it.  Each, like the target caches of krfl.modules,
holds at most WEIGHT_CACHE_SIZE entries, least recently used out
first: far above the weights of the largest sweep, about 11,000
targets at rank 4 and size 4, so no sweep evicts, while a process that
walks ever more weights stays bounded.  cache_clear() empties each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantError

Weight = tuple  # tuple[int, ...] of length n, fundamental weight basis
WEIGHT_CACHE_SIZE = 2**16  # entries per weight cache
WeylElt = tuple  # permutation of 1..n+1


def integral_weight(lam) -> Weight:
    """lam as ints; ValueError unless every coordinate is integral."""
    lam = tuple(lam)
    try:
        out = tuple(int(c) for c in lam)
    except (OverflowError, ValueError):  # an infinite or NaN coordinate
        out = None
    if out != lam:
        raise ValueError(f"weight coordinates must be integers, got {lam}")
    return out


def rank_of(lam) -> int:
    n = len(lam)
    if n < 1:
        raise ValueError("rank must be at least 1")
    return n


@lru_cache(maxsize=None)
def cartan_matrix(n: int):
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def gram_matrix(n: int):
    """(omega_i, omega_j) as Fractions; inverse of the A_n Cartan matrix."""
    return tuple(
        tuple(
            Fraction(min(i, j) * (n + 1 - max(i, j)), n + 1)
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )


def inner_product(lam, mu) -> Fraction:
    n = rank_of(lam)
    if len(mu) != n:
        raise ValueError("rank mismatch")
    g = gram_matrix(n)
    total = Fraction(0)
    for i, a in enumerate(lam):
        if not a:
            continue
        row = g[i]
        for j, b in enumerate(mu):
            if b:
                total += a * row[j] * b
    return total


@lru_cache(maxsize=None)
def simple_root(n: int, i: int) -> Weight:
    """alpha_i in the fundamental weight basis (column i of the Cartan matrix)."""
    if not 1 <= i <= n:
        raise ValueError("node out of range")
    return tuple(cartan_matrix(n)[j][i - 1] for j in range(n))


@lru_cache(maxsize=None)
def positive_roots(n: int):
    """Positive roots as intervals (a, b), meaning alpha_a + ... + alpha_b."""
    return tuple((a, b) for a in range(1, n + 1) for b in range(a, n + 1))


@lru_cache(maxsize=None)
def root_weight(n: int, a: int, b: int) -> Weight:
    v = [0] * n
    for j in range(a, b + 1):
        alpha = simple_root(n, j)
        for k in range(n):
            v[k] += alpha[k]
    return tuple(v)


def weight_add(lam, mu):
    return tuple(a + b for a, b in zip(lam, mu, strict=True))


def weight_sub(lam, mu):
    return tuple(a - b for a, b in zip(lam, mu, strict=True))


def weight_scale(c, lam):
    return tuple(c * a for a in lam)


def zero_weight(n: int) -> Weight:
    return (0,) * n


def fundamental_weight(n: int, i: int) -> Weight:
    if not 1 <= i <= n:
        raise ValueError("node out of range")
    return tuple(1 if j == i else 0 for j in range(1, n + 1))


def rho(n: int) -> Weight:
    return (1,) * n


def is_dominant(lam) -> bool:
    return all(a >= 0 for a in lam)


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def height(lam) -> int:
    """2<lam, rho> = sum_i i(n+1-i) lam_i, an integer; lowering by a
    simple root lowers it by exactly 2."""
    n = len(lam)
    return sum(i * (n + 1 - i) * a for i, a in enumerate(lam, 1))


def lowest_dominant(lam) -> Weight:
    """The lowest dominant weight of lam's coset modulo the root lattice:
    omega_r for r = sum_i i lam_i mod (n+1), or 0.  It is minuscule, so
    every dominant weight of the coset is above it in the root order."""
    n = len(lam)
    r = sum(i * a for i, a in enumerate(lam, 1)) % (n + 1)
    return fundamental_weight(n, r) if r else zero_weight(n)


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def dominates(mu, nu) -> bool:
    """Whether mu >= nu in the root order: mu - nu is a sum of positive
    roots.  With a the epsilon coordinates of mu - nu, its coefficient at
    alpha_j is the j-th partial sum of a minus j times their mean."""
    a = to_avec(weight_sub(mu, nu))
    size, total, partial = len(a), sum(a), 0
    for j, x in enumerate(a[:-1], 1):
        partial += x
        c = size * partial - j * total
        if c < 0 or c % size:
            return False
    return True


def to_avec(lam):
    """Epsilon coordinates (a_1, ..., a_{n+1}) normalized by a_{n+1} = 0."""
    n = len(lam)
    a = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        a[i] = a[i + 1] + lam[i]
    return tuple(a)


def from_avec(a):
    return tuple(a[i] - a[i + 1] for i in range(len(a) - 1))


def weyl_elements(n: int):
    """All of W = S_{n+1}; fine at the ranks this package targets."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 2))]


def weyl_identity(n: int) -> WeylElt:
    return tuple(range(1, n + 2))


def weyl_longest(n: int) -> WeylElt:
    return tuple(range(n + 1, 0, -1))


def weyl_simple(n: int, i: int) -> WeylElt:
    p = list(range(1, n + 2))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def weyl_compose(p, q) -> WeylElt:
    """p∘q as maps, (p∘q)(k) = p(q(k))."""
    return tuple(p[q[k] - 1] for k in range(len(p)))


def weyl_act(p, lam) -> Weight:
    """Permutation action on a weight: sigma(eps_k) = eps_{sigma(k)}."""
    a = to_avec(lam)
    out = [0] * len(a)
    for k in range(len(a)):
        out[p[k] - 1] = a[k]
    return from_avec(out)


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def dominant_rep(lam) -> Weight:
    """The dominant weight in the W-orbit of lam."""
    return from_avec(tuple(sorted(to_avec(lam), reverse=True)))


def weyl_dim(lam) -> int:
    """Dimension of the simple module V(lam), by the Weyl formula.

    For type A this is the product over intervals [a, b] of
    (sum of lam_j + 1 over the interval) / (b - a + 1).
    """
    lam = integral_weight(lam)
    n = rank_of(lam)
    if not is_dominant(lam):
        raise ValueError("weight must be dominant")
    num = 1
    den = 1
    for a, b in positive_roots(n):
        num *= sum(lam[a - 1 : b]) + (b - a + 1)
        den *= b - a + 1
    d, r = divmod(num, den)
    if r:
        raise InvariantError("Weyl dimension product is not integral")
    return d


class Character:
    """Finite formal sum of weights with integer multiplicities."""

    def __init__(self, mult=None):
        self.mult = {w: m for w, m in (mult or {}).items() if m}

    def __eq__(self, other):
        return isinstance(other, Character) and self.mult == other.mult

    def __repr__(self):
        items = sorted(self.mult.items())
        return f"Character({dict(items)})"

    def mass(self) -> int:
        return sum(self.mult.values())

    def __mul__(self, other):
        """Product of characters = convolution of multiplicity functions."""
        out = {}
        for w1, m1 in self.mult.items():
            for w2, m2 in other.mult.items():
                w = weight_add(w1, w2)
                out[w] = out.get(w, 0) + m1 * m2
        return Character(out)

    def sub_scaled(self, other, c):
        out = dict(self.mult)
        for w, m in other.mult.items():
            v = out.get(w, 0) - c * m
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        return Character(out)

    def is_weyl_invariant(self) -> bool:
        if not self.mult:
            return True
        n = len(next(iter(self.mult)))
        for w, m in self.mult.items():
            for i in range(1, n + 1):
                if self.mult.get(weyl_act(weyl_simple(n, i), w), 0) != m:
                    return False
        return True

    def to_json(self):
        n = len(next(iter(self.mult))) if self.mult else 0
        entries = [
            {"weight": list(w), "mult": m} for w, m in sorted(self.mult.items())
        ]
        return {"rank": n, "entries": entries}


def _reach(start, steps):
    """Every weight reached from start by repeatedly taking steps(weight)."""
    seen = {start}
    stack = [start]
    while stack:
        for nu in steps(stack.pop()):
            if nu not in seen:
                seen.add(nu)
                stack.append(nu)
    return seen


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def _orbit(mu) -> tuple:
    """The W-orbit of the dominant weight mu, as a tuple: from mu, apply
    s_i wherever the current weight has a positive i-th coordinate."""
    n = len(mu)
    return tuple(_reach(mu, lambda nu: (
        weight_sub(nu, weight_scale(c, simple_root(n, i)))
        for i, c in enumerate(nu, 1) if c > 0
    )))


@lru_cache(maxsize=None)
def char_simple(lam) -> Character:
    """Character of V(lam) by the Freudenthal multiplicity recursion.

    Multiplicities are W-invariant, so the recursion runs over the
    dominant weights only, each below lam in the root order.  In type A
    a cover between dominant weights moves one box, which is one
    positive root, so subtracting positive roots from lam without
    leaving the dominant chamber reaches all of them.  Inside the
    recursion m(nu) is read as m(dominant_rep(nu)), and each dominant
    multiplicity then spreads over its orbit.

    Exact rational arithmetic throughout; multiplicities are asserted to
    come out as positive integers.  An independent tableau-counting oracle
    lives in the test suite.
    """
    lam = integral_weight(lam)
    n = rank_of(lam)
    if not is_dominant(lam):
        raise ValueError("weight must be dominant")
    roots = [root_weight(n, a, b) for a, b in positive_roots(n)]
    dominant = _reach(
        lam, lambda mu: filter(is_dominant, (weight_sub(mu, a) for a in roots))
    )
    rho_w = rho(n)
    lam_rho = weight_add(lam, rho_w)
    norm_top = inner_product(lam_rho, lam_rho)

    # Process by decreasing height so every dominant_rep(mu + k*alpha) is done.
    order = sorted(dominant, key=height, reverse=True)
    mult = {}
    for mu in order:
        if mu == lam:
            mult[mu] = 1
            continue
        num = Fraction(0)
        for alpha in roots:
            nu = weight_add(mu, alpha)
            while (top := dominant_rep(nu)) in dominant:
                num += mult[top] * inner_product(nu, alpha)
                nu = weight_add(nu, alpha)
        mu_rho = weight_add(mu, rho_w)
        den = norm_top - inner_product(mu_rho, mu_rho)
        if den <= 0:
            raise InvariantError("Freudenthal denominator is not positive")
        m = 2 * num / den
        if m.denominator != 1 or m < 1:
            raise InvariantError("Freudenthal multiplicity is not a positive integer")
        mult[mu] = int(m)
    ch = Character({w: m for mu, m in mult.items() for w in _orbit(mu)})
    if ch.mass() != weyl_dim(lam):
        raise InvariantError("character mass differs from the Weyl dimension")
    return ch


def tensor_decompose(lam, mu) -> dict:
    """Multiplicities of simples in V(lam) ⊗ V(mu), by character division.

    Multiplies the two characters, then repeatedly strips the character of
    the highest surviving weight.  The Littlewood-Richardson rule is kept
    as an independent oracle in the tests.
    """
    n = rank_of(lam)
    if len(mu) != n:
        raise ValueError("rank mismatch")
    rem = char_simple(lam) * char_simple(mu)
    out = {}
    while rem.mult:
        top = max(rem.mult, key=lambda w: (height(w), w))
        c = rem.mult[top]
        if not is_dominant(top) or c <= 0:
            raise InvariantError("character division met a non-dominant top weight")
        out[top] = out.get(top, 0) + c
        rem = rem.sub_scaled(char_simple(top), c)
    if weyl_dim(lam) * weyl_dim(mu) != sum(m * weyl_dim(w) for w, m in out.items()):
        raise InvariantError("tensor decomposition misses the product dimension")
    return out


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers; may be empty."""

    parts: tuple

    def __post_init__(self):
        p = tuple(self.parts)
        object.__setattr__(self, "parts", p)
        if any(int(x) != x or x < 1 for x in p):
            raise ValueError("parts must be positive integers")
        if any(p[k] < p[k + 1] for k in range(len(p) - 1)):
            raise ValueError("parts must be weakly decreasing")

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def rle(self):
        """Run-length form ((m_1, b_1), ..., (m_s, b_s)) with m_1 < ... < m_s."""
        counts = {}
        for x in self.parts:
            counts[x] = counts.get(x, 0) + 1
        return tuple(sorted(counts.items()))

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: part j counts the rows of length at least j."""
        width = self.parts[0] if self.parts else 0
        return Partition(
            tuple(sum(x >= j for x in self.parts) for j in range(1, width + 1))
        )


def partitions_of(m: int):
    """All partitions of m, largest part first, in lexicographic order."""
    if m == 0:
        yield Partition(())
        return

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    for parts in rec(m, m):
        yield Partition(parts)
