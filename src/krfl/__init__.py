"""Exact graded characters for current-algebra modules in type A.

The package builds finite dimensional modules over sl_{n+1} and over
its polynomial current algebra with rational arithmetic throughout,
computes fusion products and Demazure-type cyclic submodules as
explicit bigraded objects, and cross-checks the two constructions
against each other.
"""

from .affine import (
    ExtAffineElt,
    ext_finite,
    ext_translation,
    length,
)
from .demazure import (
    check_demazure_relations,
    check_gradrel_relations,
    find_nonrelation_witness,
    gen_demazure,
    gen_demazure_character,
    local_weyl,
    rect_demazure,
    rect_demazure_character,
)
from .errors import InvariantError
from .lweights import (
    KRFactor,
    LWeight,
    blocks_cyclic,
    cyclic_order_ok,
    kr_monomial,
    pi_blocks,
    pi_from_partition,
    q_factorize,
)
from .modules import (
    GradedCharacter,
    GtModule,
    apply_word,
    check_axioms,
    cyclic_submodule,
    evaluation_module,
    fundamental_gmodule,
    fusion_character,
    fusion_filtration,
    fusion_of_simples,
    fusion_product,
    graded_character,
    simple_gmodule,
    tensor_gmodules,
    tensor_modules,
)
from .typea import (
    Character,
    Partition,
    char_simple,
    fundamental_weight,
    partitions_of,
    tensor_decompose,
    weyl_dim,
)
from .verify import (
    Report,
    suite_ok,
    verify_blocks,
    verify_dim,
    verify_lemma_length,
    verify_main,
    verify_point_independence,
    verify_remark_sl4,
    verify_suite,
)

__version__ = "0.1.0"
