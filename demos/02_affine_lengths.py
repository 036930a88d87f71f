"""Extended affine Weyl elements t_mu ∘ w and the length function.

The length of a translated element controls which extremal vector a
Demazure generator is, and the additivity below is the combinatorial
engine behind tensoring Demazure generators.  All integer arithmetic.
"""

from krfl.affine import ext_finite, ext_translation, length
from krfl.typea import weyl_elements, weyl_longest

n = 2

print("== lengths of pure translations, rank 2 ==")
for mu in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 3)]:
    t = ext_translation(tuple(-c for c in mu))
    print(f"t(-{mu})  length {length(t)}")

print()
print("== additivity: len(t(-lam-mu) w) = len(t(-lam)) + len(t(-mu) w) ==")
lam, mu = (2, 1), (1, 2)
for w in [tuple(weyl_longest(n)), (2, 1, 3), (1, 3, 2)]:
    tail = ext_translation(tuple(-c for c in mu)).compose(ext_finite(w))
    whole = ext_translation(tuple(-c for c in lam)).compose(tail)
    lhs = length(whole)
    rhs = length(ext_translation(tuple(-c for c in lam))) + length(tail)
    print(f"w = {w}: {lhs} = {length(ext_translation(tuple(-c for c in lam)))} + {length(tail)}  ({lhs == rhs})")

print()
print("== every finite element embeds with its finite length ==")
print(sorted(length(ext_finite(w)) for w in weyl_elements(2)))
