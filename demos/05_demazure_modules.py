"""Local Weyl, rectangular, and generalized Demazure modules.

All three are cyclic graded modules built by exact closure.  The
relation checker applies the level defining relations to the
generator; an empty report means every relation holds on the nose.
The finale compares a generalized module against the fusion product
of the conjugate partition, the package's central equality.
"""

from fractions import Fraction

from krfl.demazure import (
    check_demazure_relations,
    gen_demazure,
    level_exponents,
    local_weyl,
    rect_demazure,
)
from krfl.modules import (
    cyclic_submodule,
    fusion_product,
    graded_character,
    tensor_modules,
)
from krfl.typea import Partition, weyl_dim


def gen(m):
    return {m.cyclic_index: Fraction(1)}


print("== local Weyl module, rank 2, weight (1,1) ==")
lw = local_weyl(2, (1, 1))
gc = graded_character(lw)
print("dim", lw.dim, " degree profile", gc.degree_dims())
print("relations:", check_demazure_relations(lw, gen(lw), 1, (1, 1)) or "clean")

print()
print("== rectangular modules interpolate down to the simple ==")
for ell in (1, 2, 4):
    d = rect_demazure(1, ell, (4,))
    print(f"level {ell}: dim {d.dim}, degrees {graded_character(d).degree_dims()}")
print("at level 4 the module is the 5-dimensional simple:",
      rect_demazure(1, 4, (4,)).dim == weyl_dim((4,)))

print()
print("== which t-powers the lowering relations live at ==")
for pairing in (1, 2, 3, 4, 5):
    s, mm = level_exponents(2, pairing)
    print(f"level 2, pairing {pairing}: kill at t^{s}, power {mm + 1} at t^{s - 1}")

print()
print("== a generalized module and its conjugate fusion ==")
xi = (2, 2, 1)
conj = Partition(xi).conjugate().parts
gd = gen_demazure(2, 1, xi)
fus = fusion_product(2, 1, conj)
print(f"blocks of {xi}: dim {gd.dim}; fusion of {conj}: dim {fus.dim}")
print("graded characters agree:",
      graded_character(gd) == graded_character(fus))
blocks = [rect_demazure(2, b, (b * m, 0)) for m, b in reversed(Partition(xi).rle())]
rev = tensor_modules(blocks)
print("block order does not matter:",
      graded_character(cyclic_submodule(rev, gen(rev))) == graded_character(gd))
