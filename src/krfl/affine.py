"""Extended affine Weyl group and affine weights for untwisted type A.

An affine weight is stored as (finite part, level, delta coefficient); the
basic imaginary root delta is (0, 0, 1) and Lambda_0 is (0, 1, 0).  Group
elements are pairs (w, mu) standing for t_mu ∘ w, where w is a finite Weyl
permutation and t_mu translates by mu:

    t_mu(lam)      = lam - (lam, mu) delta        for finite lam,
    t_mu(Lambda_0) = Lambda_0 + mu - (mu, mu)/2 delta.

Lengths are computed by counting positive affine real roots sent to
negative ones; translation components are permitted anywhere in the weight
lattice, so diagram automorphisms never have to be materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError
from .typea import (
    Weight,
    fundamental_weight,
    highest_root,
    inner_product,
    is_dominant,
    simple_root,
    to_avec,
    weight_add,
    weight_scale,
    weyl_act,
    weyl_compose,
    weyl_identity,
    weyl_inverse,
    weyl_longest,
    zero_weight,
)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class AffineWeight:
    finite: tuple  # length n, Fractions
    level: Fraction
    dcoef: Fraction

    def __post_init__(self):
        object.__setattr__(self, "finite", tuple(_frac(x) for x in self.finite))
        object.__setattr__(self, "level", _frac(self.level))
        object.__setattr__(self, "dcoef", _frac(self.dcoef))

    @property
    def rank(self) -> int:
        return len(self.finite)

    def pair_h(self, i: int) -> Fraction:
        """Pairing with the affine coroot h_i, i in {0, ..., n}.

        h_0 = c - h_theta, and every omega_j(h_theta) = 1 in type A.
        """
        if i == 0:
            return self.level - sum(self.finite)
        return self.finite[i - 1]

    def eq_mod_delta(self, other: "AffineWeight") -> bool:
        return self.finite == other.finite and self.level == other.level

    def is_dominant(self) -> bool:
        return all(self.pair_h(i) >= 0 for i in range(self.rank + 1))

    def add(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(
            weight_add(self.finite, other.finite),
            self.level + other.level,
            self.dcoef + other.dcoef,
        )

    def scale(self, c) -> "AffineWeight":
        c = _frac(c)
        return AffineWeight(
            tuple(c * x for x in self.finite), c * self.level, c * self.dcoef
        )

    def to_json(self):
        return {
            "finite": [str(x) for x in self.finite],
            "level": str(self.level),
            "dcoef": str(self.dcoef),
        }

    @staticmethod
    def from_json(data) -> "AffineWeight":
        return AffineWeight(
            tuple(Fraction(x) for x in data["finite"]),
            Fraction(data["level"]),
            Fraction(data["dcoef"]),
        )


def lambda0(n: int) -> AffineWeight:
    return AffineWeight(zero_weight(n), Fraction(1), Fraction(0))


def delta(n: int) -> AffineWeight:
    return AffineWeight(zero_weight(n), Fraction(0), Fraction(1))


def affine_fundamental(n: int, i: int) -> AffineWeight:
    """Lambda_i = omega_i + omega_i(h_theta) Lambda_0; level 1 in type A."""
    if i == 0:
        return lambda0(n)
    return AffineWeight(fundamental_weight(n, i), Fraction(1), Fraction(0))


def from_finite(lam, level=0, dcoef=0) -> AffineWeight:
    return AffineWeight(tuple(lam), Fraction(level), Fraction(dcoef))


def affine_simple_root(n: int, i: int) -> AffineWeight:
    """alpha_i as an affine weight; alpha_0 = delta - theta."""
    if i == 0:
        return AffineWeight(
            tuple(-x for x in highest_root(n)), Fraction(0), Fraction(1)
        )
    return AffineWeight(simple_root(n, i), Fraction(0), Fraction(0))


def translate(mu, L: AffineWeight) -> AffineWeight:
    """Action of t_mu; mu is a finite integral weight."""
    n = L.rank
    if len(mu) != n:
        raise ValueError("rank mismatch")
    finite = weight_add(L.finite, weight_scale(L.level, mu))
    drop = inner_product(L.finite, mu) + L.level * inner_product(mu, mu) / 2
    return AffineWeight(finite, L.level, L.dcoef - drop)


def reflect(i: int, L: AffineWeight) -> AffineWeight:
    """Simple reflection s_i, i in {0, ..., n}."""
    n = L.rank
    if not 0 <= i <= n:
        raise ValueError("node out of range")
    c = L.pair_h(i)
    if c == 0:
        return L
    return L.add(affine_simple_root(n, i).scale(-c))


@dataclass(frozen=True)
class ExtAffineElt:
    """Element t_mu ∘ w of the extended affine Weyl group W ⋉ t(P)."""

    w: tuple  # finite Weyl permutation of 1..n+1
    mu: Weight  # integral weight

    def __post_init__(self):
        if any(int(x) != x for x in self.mu):
            raise ValueError("translation part must be an integral weight")
        object.__setattr__(self, "mu", tuple(int(x) for x in self.mu))

    @property
    def rank(self) -> int:
        return len(self.mu)

    def compose(self, other: "ExtAffineElt") -> "ExtAffineElt":
        """(w, mu) ∘ (w', mu') = (w w', mu + w mu')."""
        return ExtAffineElt(
            weyl_compose(self.w, other.w),
            weight_add(self.mu, weyl_act(self.w, other.mu)),
        )

    def inverse(self) -> "ExtAffineElt":
        wi = weyl_inverse(self.w)
        return ExtAffineElt(wi, tuple(-x for x in weyl_act(wi, self.mu)))

    def act(self, L: AffineWeight) -> AffineWeight:
        """Apply w first, then the translation."""
        moved = AffineWeight(weyl_act(self.w, L.finite), L.level, L.dcoef)
        return translate(self.mu, moved)

    def is_identity(self) -> bool:
        return self.w == weyl_identity(self.rank) and not any(self.mu)


def ext_identity(n: int) -> ExtAffineElt:
    return ExtAffineElt(weyl_identity(n), zero_weight(n))


def ext_translation(mu) -> ExtAffineElt:
    return ExtAffineElt(weyl_identity(len(mu)), tuple(mu))


def ext_finite(w) -> ExtAffineElt:
    return ExtAffineElt(tuple(w), zero_weight(len(w) - 1))


def ext_simple(n: int, i: int) -> ExtAffineElt:
    """s_i as a group element; s_0 = t_theta ∘ s_theta."""
    if i == 0:
        theta_perm = list(weyl_identity(n))
        theta_perm[0], theta_perm[n] = theta_perm[n], theta_perm[0]
        return ExtAffineElt(tuple(theta_perm), highest_root(n))
    p = list(weyl_identity(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return ExtAffineElt(tuple(p), zero_weight(n))


def length(x: ExtAffineElt) -> int:
    """Number of positive affine real roots mapped to negative ones.

    For x = t_mu ∘ w the image of alpha + k delta is
    w(alpha) + (k - (w(alpha), mu)) delta, so the count reduces to a sum
    over finite roots.  Working with eps_a - eps_b pairs keeps all the
    pairings integer arithmetic.
    """
    n = x.rank
    avec = to_avec(x.mu)
    total = 0
    for a in range(1, n + 2):
        for b in range(1, n + 2):
            if a == b:
                continue
            wa, wb = x.w[a - 1], x.w[b - 1]
            c = avec[wa - 1] - avec[wb - 1]  # (w(alpha), mu)
            image_neg_at_equal = wa > wb
            if a < b:
                total += max(c, 0)
                if image_neg_at_equal and c >= 0:
                    total += 1
            else:
                total += max(c - 1, 0)
                if image_neg_at_equal and c >= 1:
                    total += 1
    return total


def demazure_pair(ell: int, lam) -> tuple:
    """Resolve (ell, lam) into an affine dominant weight and a group element.

    Returns (x, L) with L dominant of level ell and x(L) congruent to
    w_0 lam + ell Lambda_0 modulo delta.  L is the dominant representative
    of the orbit under the non-extended affine Weyl group, found by
    greedily reflecting at the smallest negative node; the resulting x is
    a minimal length representative (asserted against the inversion
    count).  Minimality pins x only up to the stabilizer of L; the greedy
    smallest-index word makes the choice deterministic.
    """
    n = len(lam)
    if ell < 1:
        raise ValueError("level must be positive")
    if not is_dominant(lam):
        raise ValueError("weight must be dominant")
    target = AffineWeight(
        weyl_act(weyl_longest(n), lam), Fraction(ell), Fraction(0)
    )
    z = target
    word = []
    guard = 0
    while True:
        neg = [i for i in range(n + 1) if z.pair_h(i) < 0]
        if not neg:
            break
        i = neg[0]
        z = reflect(i, z)
        word.append(i)
        guard += 1
        if guard > 100000:
            raise RuntimeError("dominantization failed to terminate")
    x = ext_identity(n)
    for i in word:
        x = x.compose(ext_simple(n, i))
    L = AffineWeight(z.finite, z.level, Fraction(0))
    if not x.act(L).eq_mod_delta(target):
        raise InvariantError("dominantizing word does not reach the target")
    if length(x) != len(word):
        raise InvariantError("dominantizing word is not reduced")
    return x, L
