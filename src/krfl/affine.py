"""Extended affine Weyl group elements t_mu ∘ w of untwisted type A and their length.

An element is a pair (w, mu) standing for t_mu ∘ w, where w is a finite
Weyl permutation of 1..n+1 and mu is an integral weight; translation
components are permitted anywhere in the weight lattice, so diagram
automorphisms never have to be materialized.  The length counts the
positive affine real roots alpha + k delta that t_mu ∘ w sends to
negative ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .typea import (
    Weight,
    to_avec,
    weight_add,
    weyl_act,
    weyl_compose,
    weyl_identity,
    zero_weight,
)


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


def ext_translation(mu) -> ExtAffineElt:
    return ExtAffineElt(weyl_identity(len(mu)), tuple(mu))


def ext_finite(w) -> ExtAffineElt:
    return ExtAffineElt(tuple(w), zero_weight(len(w) - 1))


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
