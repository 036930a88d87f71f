"""Cyclic current-algebra modules of Demazure type.

Three constructions, all concrete and exact:

  local_weyl(n, lam)    graded fusion of one fundamental evaluation
                        module per column of lam, at distinct points
  rect_demazure(n, l, lam)
                        level-l module with highest weight lam = l*mu,
                        realized as the closure of the l-fold tensor of
                        generators inside local_weyl(mu)^{tensor l}
  gen_demazure(n, i, xi)
                        closure of the joint generator in an ascending
                        tensor of rectangular modules read off the
                        run-length blocks of the partition xi

rect_demazure_character and gen_demazure_character return the graded
characters of the last two from builds on the dominant window
(modules.window_character).  The three builders take the window as
the keyword _floor and hand each block and each local Weyl factor its
own (_factor_floor), so full and windowed builds take one path.

Also relation checkers that apply the expected defining relations to a
claimed generator and report every violation.  The checkers establish
the necessary direction only; completeness of a presentation is always
certified elsewhere by a dimension or character match against an
independently built module.

Both checkers open with one highest-weight prologue: a generator of
the wrong weight, or a graded one outside degree 0, gets that one
message and no further check; otherwise e_i ⊗ t^k (k <= trunc) and
h_i ⊗ t^k (0 < k <= trunc) must kill it and h_i must act by the weight,
at the simple nodes i only, since e_(a,b) ⊗ t^k is [e_(a,b-1) ⊗ t^k, e_b]
(modules._root_apply).  The mixed words (e_a ⊗ t)^s (f_a)^{r+s} and the
witness search share one walk per root a through node i: f_a is applied
once per power q = r + s and a chain of e_a ⊗ t restarts from each
power, so pairs come in ascending (r + s, s) order; a zero image ends
its chain, and a zero power the walk of its root.
"""

from __future__ import annotations

from fractions import Fraction

from .modules import (
    GradedCharacter,
    GtModule,
    _window_floor,
    apply_word,
    cyclic_submodule,
    default_points,
    fusion_of_simples,
    module_store,
    tensor_modules,
    window_character,
)
from .typea import (
    Partition,
    fundamental_weight,
    integral_weight,
    is_dominant,
    positive_roots,
    weight_scale,
    weight_sub,
    zero_weight,
)

ONE = Fraction(1)


def local_weyl(n: int, lam, points=None, *, _floor=None) -> GtModule:
    """Graded cyclic module with highest weight lam and the largest
    dimension among those, prod_i binom(n+1, i)^{lam_i} in type A.

    Built as the fusion of one fundamental evaluation module per unit
    of each coordinate of lam, at pairwise distinct points: one
    fusion_of_simples call, stored with every other call that makes it.
    """
    lam = integral_weight(lam)
    if len(lam) != n or not is_dominant(lam):
        raise ValueError("weight must be dominant of matching rank")
    lams = []
    for i in range(1, n + 1):
        lams.extend([fundamental_weight(n, i)] * lam[i - 1])
    if not lams:
        lams = [zero_weight(n)]
    return fusion_of_simples(n, lams, _column_points(lam, points), _floor=_floor)


def _column_points(lam, points):
    """points as Fractions; None means default_points, one per column of
    the dominant weight lam (one point for lam = 0)."""
    if points is None:
        points = default_points(max(sum(lam), 1))
    return tuple(Fraction(z) for z in points)


def _factor_floor(floor, lam, part):
    """floor - (lam - part), the window of a factor with highest weight
    part in a tensor with highest weight lam windowed at floor, or None
    if floor is.  Every other factor's weight is at most its highest
    weight, so an ambient weight ≥ floor has its factor weights ≥ theirs."""
    return None if floor is None else weight_sub(floor, weight_sub(lam, part))


def rect_demazure(n: int, ell: int, lam, points=None, *, _floor=None) -> GtModule:
    """Level-ell Demazure-type module with highest weight lam.

    lam must be coordinatewise divisible by ell; with mu = lam/ell the
    module is the closure of the ell-fold tensor of generators inside
    local_weyl(mu)^{tensor ell}.  Level one is local_weyl(mu) itself;
    a higher level is stored in module_store under (n, ell, lam, points)
    with points resolved as local_weyl resolves them, so omitting the
    default points and passing them give one module.  A _floor windows
    it and its factors (_factor_floor; modules.window_character).
    """
    if ell < 1:
        raise ValueError("level must be positive")
    lam = integral_weight(lam)
    if any(c % ell for c in lam):
        raise ValueError("weight must be divisible by the level")
    mu = tuple(c // ell for c in lam)
    points = _column_points(mu, points)
    floor = _window_floor(lam, _floor)
    if ell == 1:
        return local_weyl(n, mu, points, _floor=floor)

    def build():
        factor = local_weyl(n, mu, points, _floor=_factor_floor(floor, lam, mu))
        amb = tensor_modules([factor] * ell)
        amb.floor = floor
        return cyclic_submodule(amb, {amb.cyclic_index: ONE})

    key = ("rect_demazure", n, ell, lam, points)
    return module_store(key if floor is None else (*key, floor), build)


def rect_demazure_character(n: int, ell: int, lam) -> GradedCharacter:
    """graded_character(rect_demazure(n, ell, lam)), built on the dominant
    window (modules.window_character)."""
    return window_character(lam, lambda floor: rect_demazure(n, ell, lam, _floor=floor))


def gen_demazure(n: int, i: int, xi, *, _floor=None) -> GtModule:
    """Closure of the joint generator in a tensor of rectangular modules.

    The run-length blocks of xi, ascending in part size, give one
    factor each: a block of b parts of size m contributes the level-b
    module with highest weight b*m*omega_i, windowed by _factor_floor
    under a _floor.
    """
    omega = fundamental_weight(n, i)
    xi = _nonempty(xi)
    lam = weight_scale(sum(xi.parts), omega)
    floor = _window_floor(lam, _floor)
    factors = []
    for m, b in xi.rle():
        top = weight_scale(b * m, omega)
        factors.append(rect_demazure(n, b, top, _floor=_factor_floor(floor, lam, top)))
    if len(factors) == 1:
        return factors[0]
    amb = tensor_modules(factors)
    amb.floor = floor
    return cyclic_submodule(amb, {amb.cyclic_index: ONE})


def gen_demazure_character(n: int, i: int, xi) -> GradedCharacter:
    """graded_character(gen_demazure(n, i, xi)), built on the dominant
    window (modules.window_character)."""
    lam = weight_scale(sum(xi), fundamental_weight(n, i))
    return window_character(lam, lambda floor: gen_demazure(n, i, xi, _floor=floor))


def _nonempty(xi) -> Partition:
    xi = Partition(xi)
    if not xi.parts:
        raise ValueError("partition must be nonempty")
    return xi


def level_exponents(ell: int, pairing: int):
    """The unique (s, m) with pairing = (s-1)*ell + m and 0 < m <= ell."""
    if ell < 1:
        raise ValueError("level must be positive")
    if pairing < 1:
        raise ValueError("pairing must be positive")
    s = -(-pairing // ell)
    return s, pairing - (s - 1) * ell


def _highest_weight_report(m: GtModule, vec, lam):
    """(report, placed) of the prologue; placed is False on a wrong weight or degree."""
    if m.weight_of(vec) != lam:
        return ["generator does not have the claimed weight"], False
    if m.graded and m.degree_of(vec) != 0:
        return ["generator is not in degree zero"], False
    report = []
    for i in range(1, m.rank + 1):
        for sym, name, first in (("e", "raising", 0), ("h", "torus", 1)):
            for k in range(first, m.trunc + 1):
                if apply_word(m, vec, [(sym, i, k, 1)]):
                    report.append(f"{name} node {i} t^{k} does not kill the generator")
        want = {j: lam[i - 1] * c for j, c in vec.items()} if lam[i - 1] else {}
        if apply_word(m, vec, [("h", i, 0, 1)]) != want:
            report.append(f"torus eigenvalue at node {i} is wrong")
    return report, True


def _lowering_report(m: GtModule, vec, root, powers) -> list:
    """One message per t-power at which f_root does not kill vec."""
    return [
        f"lowering root ({root[0]},{root[1]}) t^{k} does not kill the generator"
        for k in powers
        if apply_word(m, vec, [("f", root, k, 1)])
    ]


def _mixed_words(m: GtModule, vec, i: int, qmax: int, smax: int):
    """The walk over the roots through node i: (root, q - s, s, image) for each
    nonzero (e_root ⊗ t)^s f_root^q vec, 1 <= s < q <= qmax, s <= smax."""
    for root in positive_roots(m.rank):
        if not root[0] <= i <= root[1]:
            continue
        low = vec
        for q in range(1, qmax + 1):
            low = apply_word(m, low, [("f", root, 0, 1)])
            if not low:
                break
            w = low
            for s in range(1, min(q - 1, smax) + 1):
                w = apply_word(m, w, [("e", root, 1, 1)])
                if not w:
                    break
                yield root, q - s, s, w


def check_demazure_relations(m: GtModule, vec, ell: int, lam) -> list:
    """Apply the defining relations of the level-ell module with highest
    weight lam to vec; returns one message per violated relation.

    After the prologue (module docstring), per positive root a, with
    lam(h_a) = (s-1)*ell + mm, 0 < mm <= ell: the lowering generator at
    t-power s kills vec, and the (mm+1)-st power of the one at t-power
    s-1 kills vec.  Roots with lam(h_a) = 0 sit outside that
    parametrization; for them only the t-positive part of the lowering
    family is required to vanish.
    """
    lam = integral_weight(lam)
    report, placed = _highest_weight_report(m, vec, lam)
    if not placed:
        return report
    for a, b in positive_roots(m.rank):
        pairing = sum(lam[a - 1 : b])
        if pairing == 0:
            report += _lowering_report(m, vec, (a, b), range(1, m.trunc + 1))
            continue
        s, mm = level_exponents(ell, pairing)
        report += _lowering_report(m, vec, (a, b), [s])
        if apply_word(m, vec, [("f", (a, b), s - 1, mm + 1)]):
            report.append(
                f"power {mm + 1} of lowering root ({a},{b}) t^{s - 1} is nonzero"
            )
    return report


def gradrel_required(r: int, s: int, parts) -> bool:
    """Whether the pair (r, s) belongs to the defining family for the
    descending part list: some window index k in 1..len(parts) has
    r + s >= 1 + k*r + (parts[k] + parts[k+1] + ...)."""
    parts = tuple(parts)
    return any(
        r + s >= 1 + k * r + sum(parts[k:]) for k in range(1, len(parts) + 1)
    )


def check_gradrel_relations(m: GtModule, vec, i: int, xi) -> list:
    """Apply the graded defining relations of the fusion of one-node
    simples with part sizes xi to vec; returns violations.

    After the prologue for the weight |xi| omega_i: lowering roots not
    containing node i are killed at every stored t-power; lowering
    roots containing i vanish at power |xi| + 1; and for each such root
    the mixed words (raise at t)^s (lower)^{r+s}, r, s <= |xi| + 1,
    vanish on the pairs gradrel_required selects, in walk order.
    """
    parts = _nonempty(xi).parts
    bound = sum(parts) + 1
    lam = weight_scale(sum(parts), fundamental_weight(m.rank, i))
    report, placed = _highest_weight_report(m, vec, lam)
    if not placed:
        return report
    for a, b in positive_roots(m.rank):
        if not a <= i <= b:
            report += _lowering_report(m, vec, (a, b), range(m.trunc + 1))
        elif apply_word(m, vec, [("f", (a, b), 0, bound)]):
            report.append(f"power {bound} of lowering root ({a},{b}) is nonzero")
    for (a, b), r, s, _ in _mixed_words(m, vec, i, 2 * bound, bound):
        if r <= bound and gradrel_required(r, s, parts):
            report.append(f"mixed relation (r={r}, s={s}) at root ({a},{b}) is nonzero")
    return report


def find_nonrelation_witness(m: GtModule, vec, i: int, xi):
    """Smallest out-of-family pair that acts nonzero, or None.

    Walks the mixed words with r + s <= |xi| and returns (root, r, s)
    for the first pair that gradrel_required leaves out.  A witness
    shows the required family is sharp.
    """
    parts = _nonempty(xi).parts
    for root, r, s, _ in _mixed_words(m, vec, i, sum(parts), sum(parts)):
        if not gradrel_required(r, s, parts):
            return root, r, s
    return None
