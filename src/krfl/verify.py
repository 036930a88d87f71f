"""Cross-checks that pit independently built objects against each other.

Every check returns a Report.  The two sides of the main comparison
come from different constructions: the fusion engine filters an
evaluation tensor, the Demazure builder closes a generator inside a
tensor of rectangular modules, so agreement of their graded characters
is evidence, not bookkeeping.  The one exception is xi = (1^k): the
conjugate (k) is a single level-one block, local_weyl(k omega_i), which
is the same stored fusion_of_simples call as fusion_product(n, i,
(1^k)), so both sides are one module and the comparison is an
identity.  An engine-free oracle, the fermionic formula in the tests,
covers those cases.

Checks that would need an ambient space above the dimension cap are
skipped and say so; a skip is never silently counted as a pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod

from .affine import ext_finite, ext_translation, length
from .demazure import (
    check_gradrel_relations,
    gen_demazure,
    local_weyl,
    rect_demazure,
)
from .lweights import blocks_cyclic
from .modules import fusion_character, fusion_product, graded_character
from .typea import (
    Partition,
    fundamental_weight,
    tensor_decompose,
    weight_scale,
    weyl_dim,
    weyl_elements,
    zero_weight,
)

ONE = Fraction(1)
DEFAULT_CAP = 5000
CAP_CHECK = "ambient dimension cap"


@dataclass
class Report:
    name: str
    params: dict
    status: str  # "pass" | "fail" | "skip"
    details: list = field(default_factory=list)

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skip"):
            raise ValueError("unknown status")
        if self.status == "fail" and not self.details:
            raise ValueError("failure must carry a witness")

    @property
    def failed(self):
        return self.status == "fail"

    def to_json(self):
        return {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "details": self.details,
        }


def _witness(check, expected, got):
    return {"check": check, "expected": expected, "got": got}


def _cap_skip(ambient, cap):
    """The witness of a check skipped because its ambient dimension is
    above cap, or None when the ambient fits."""
    if ambient > cap:
        return _witness(CAP_CHECK, f"<= {cap}", ambient)
    return None


def _report(name, params, details) -> Report:
    """Fail on any witness but a cap witness, skip on cap witnesses alone,
    pass on none."""
    if any(d["check"] != CAP_CHECK for d in details):
        return Report(name, params, "fail", details)
    return Report(name, params, "skip" if details else "pass", details)


def _params(n, i=None, xi=None, **extra):
    out = {"rank": n}
    if i is not None:
        out["node"] = i
    if xi is not None:
        if not xi:
            raise ValueError("xi must have at least one part")
        out["xi"] = list(xi)
    out.update(extra)
    return out


def _fusion_ambient(n, i, xi):
    return prod(weyl_dim(weight_scale(c, fundamental_weight(n, i))) for c in xi)


def _blocks(n, i, xi):
    """(length, count, ambient, dimension) per block of the conjugate of
    xi, in pi_blocks order: the block is the level-length rectangular
    module with highest weight length*count*omega_i, closed inside
    local_weyl(count*omega_i)^{tensor length}, and its dimension is
    predicted as the count-th power of dim V(length*omega_i)."""
    fund = comb(n + 1, i)
    return [
        (ell, count, fund ** (ell * count),
         weyl_dim(weight_scale(ell, fundamental_weight(n, i))) ** count)
        for count, ell in Partition(xi).conjugate().rle()
    ]


def verify_main(n, i, xi, points=None, cap=DEFAULT_CAP) -> Report:
    """Graded character of the fusion = graded character of the
    generalized Demazure module of the conjugate partition, plus the
    graded relation family on the fusion generator."""
    xi = tuple(xi)
    params = _params(n, i, xi)
    if points is not None:
        params["points"] = [str(z) for z in points]
    blocks = _blocks(n, i, xi)
    ambients = [a for _, _, a, _ in blocks] + [prod(d for *_, d in blocks)]
    skip = _cap_skip(max(_fusion_ambient(n, i, xi), *ambients), cap)
    if skip:
        return _report("main-isomorphism", params, [skip])
    fus = fusion_product(n, i, xi, points)
    gd = gen_demazure(n, i, Partition(xi).conjugate())
    details = []
    a = graded_character(fus)
    b = graded_character(gd)
    if fus.dim != gd.dim:
        details.append(_witness("dimension equality", fus.dim, gd.dim))
    if a != b:
        details.append(
            _witness("graded character equality", a.to_json(), b.to_json())
        )
    rel = check_gradrel_relations(fus, {fus.cyclic_index: ONE}, i, xi)
    if rel:
        details.append(_witness("graded relation family", "no violations", rel))
    return _report("main-isomorphism", params, details)


def verify_dim(n, i, xi, cap=DEFAULT_CAP) -> Report:
    """Per spectral block: the rectangular module's dimension equals the
    matching power of a simple module's dimension."""
    xi = tuple(xi)
    params = _params(n, i, xi)
    details = []
    for ell, count, ambient, want in _blocks(n, i, xi):
        skip = _cap_skip(ambient, cap)
        if skip:
            details.append(skip)
            continue
        lam = weight_scale(ell * count, fundamental_weight(n, i))
        got = rect_demazure(n, ell, lam).dim
        if got != want:
            details.append(
                _witness(f"block dimension (length {ell}, count {count})", want, got)
            )
    return _report("block-dimensions", params, details)


def verify_blocks(n, i, xi) -> Report:
    """The block factors of the spectral-parameter product, read in
    descending order, satisfy the cyclicity ordering criterion."""
    xi = tuple(xi)
    params = _params(n, i, xi)
    details = []
    if not blocks_cyclic(n, i, Partition(xi)):
        details.append(_witness("cyclicity ordering", True, False))
    return _report("block-order", params, details)


def verify_point_independence(n, i, xi, trials=3, seed=0, cap=DEFAULT_CAP) -> Report:
    """The graded fusion character does not depend on which distinct
    integer points the factors are evaluated at."""
    if trials < 2:
        raise ValueError("need at least two trials")
    xi = tuple(xi)
    rng = random.Random(seed)
    sets = [tuple(rng.sample(range(-9, 10), len(xi))) for _ in range(trials)]
    params = _params(n, i, xi, seed=seed, point_sets=[list(s) for s in sets])
    skip = _cap_skip(_fusion_ambient(n, i, xi), cap)
    if skip:
        return _report("point-independence", params, [skip])
    chars = [fusion_character(n, i, xi, pts) for pts in sets]
    details = []
    for pts, gc in zip(sets[1:], chars[1:]):
        if gc != chars[0]:
            details.append(
                _witness(
                    f"character at points {list(pts)}",
                    chars[0].to_json(),
                    gc.to_json(),
                )
            )
    return _report("point-independence", params, details)


def verify_lemma_length(n, samples=100, seed=0) -> Report:
    """Length additivity of translated affine Weyl elements:
    len(t(-lam-mu) w) = len(t(-lam)) + len(t(-mu) w) for dominant
    lam, mu and any finite w."""
    rng = random.Random(seed)
    perms = weyl_elements(n)
    details = []
    for _ in range(samples):
        lam = tuple(rng.randrange(0, 4) for _ in range(n))
        mu = tuple(rng.randrange(0, 4) for _ in range(n))
        w = perms[rng.randrange(len(perms))]
        tail = ext_translation(weight_scale(-1, mu)).compose(ext_finite(w))
        whole = ext_translation(weight_scale(-1, lam)).compose(tail)
        lhs = length(whole)
        rhs = length(ext_translation(weight_scale(-1, lam))) + length(tail)
        if lhs != rhs:
            details.append(
                _witness(f"additivity at lam={lam}, mu={mu}, w={w}", rhs, lhs)
            )
    return _report("length-additivity", _params(n, samples=samples, seed=seed), details)


def verify_remark_sl4() -> Report:
    """Numerical facts behind the rank-3 example: the two summands of
    the square of the middle fundamental module, and the strictly
    larger graded cyclic module above the 35-dimensional simple sum."""
    details = []
    if weyl_dim((0, 2, 0)) != 20:
        details.append(_witness("dim of doubled middle weight", 20, weyl_dim((0, 2, 0))))
    if weyl_dim((1, 0, 1)) != 15:
        details.append(_witness("dim of adjoint-type summand", 15, weyl_dim((1, 0, 1))))
    dec = tensor_decompose((0, 1, 0), (0, 1, 0))
    want = {(0, 2, 0): 1, (1, 0, 1): 1, (0, 0, 0): 1}
    if dec != want:
        details.append(_witness("square decomposition", want, dec))
    lw = local_weyl(3, (0, 2, 0)).dim
    if not (lw == 36 and lw > weyl_dim((0, 2, 0)) + weyl_dim((1, 0, 1))):
        details.append(_witness("graded module strictly larger", "36 > 35", lw))
    return _report("rank3-remark", _params(3), details)


def verify_suite(max_rank=3, max_size=4, seed=0, cap=DEFAULT_CAP) -> list:
    """Every check over all ranks, nodes, and partitions in range.

    Items are independent; the list is sorted by (name, params) so the
    assembly order never depends on evaluation order.
    """
    from .typea import partitions_of

    reports = []
    for n in range(1, max_rank + 1):
        for i in range(1, n + 1):
            for size in range(1, max_size + 1):
                for xi in partitions_of(size):
                    reports.append(verify_main(n, i, xi.parts, cap=cap))
                    reports.append(verify_dim(n, i, xi.parts, cap=cap))
                    reports.append(verify_blocks(n, i, xi.parts))
        reports.append(verify_lemma_length(n, samples=100, seed=seed))
    if max_rank >= 3:
        reports.append(verify_remark_sl4())
    reports.sort(key=lambda r: (r.name, sorted(r.params.items(), key=str).__repr__()))
    return reports


def suite_ok(reports) -> bool:
    return not any(r.failed for r in reports)
