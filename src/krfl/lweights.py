"""Multiplicative weights with integer q-exponents.

A monomial in the fundamental generators Y_{i, q^z} (node i, integer z)
with non-negative exponents.  Products of these label the spectral data
behind the evaluation parameters used elsewhere in the package; here they
are pure bookkeeping: kr_monomial expands a string, q_factorize
recovers the unique string decomposition, and the cyclicity predicates
are integer inequality checks on factor lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .typea import Partition, Weight, zero_weight


@dataclass(frozen=True, order=True)
class KRFactor:
    node: int
    center: int  # spectral parameter q^center
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be positive")

    def exponents(self):
        """The fundamental factors of the string, top first."""
        return [self.center + self.length - 1 - 2 * j for j in range(self.length)]

    def to_json(self):
        return {"node": self.node, "center": self.center, "len": self.length}

    @staticmethod
    def from_json(data) -> "KRFactor":
        return KRFactor(int(data["node"]), int(data["center"]), int(data["len"]))


class LWeight:
    """Finitely supported map (node, exponent) -> positive multiplicity."""

    __slots__ = ("rank", "mults")

    def __init__(self, rank: int, mults=None):
        table = {}
        for key, m in (mults or {}).items():
            i, z = key
            if not 1 <= i <= rank:
                raise ValueError("node out of range")
            if int(m) != m or m < 0:
                raise ValueError("multiplicities must be non-negative integers")
            if m:
                table[(i, int(z))] = int(m)
        self.rank = rank
        self.mults = table

    def __eq__(self, other):
        return (
            isinstance(other, LWeight)
            and self.rank == other.rank
            and self.mults == other.mults
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.mults.items())))

    def __repr__(self):
        if not self.mults:
            return f"LWeight({self.rank}, 1)"
        body = " ".join(
            f"Y[{i},{z}]^{m}" if m != 1 else f"Y[{i},{z}]"
            for (i, z), m in sorted(self.mults.items())
        )
        return f"LWeight({self.rank}, {body})"

    def times(self, other: "LWeight") -> "LWeight":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        table = dict(self.mults)
        for key, m in other.mults.items():
            table[key] = table.get(key, 0) + m
        return LWeight(self.rank, table)

    def __mul__(self, other):
        return self.times(other)

    def power(self, k: int) -> "LWeight":
        if k < 0:
            raise ValueError("negative power leaves the monoid")
        return LWeight(self.rank, {key: k * m for key, m in self.mults.items()})

    def to_json(self):
        return [
            {"node": i, "exp": z, "mult": m}
            for (i, z), m in sorted(self.mults.items())
        ]

    @staticmethod
    def from_json(rank: int, data) -> "LWeight":
        """Read a JSON list of {"node", "exp", "mult"} integer objects;
        ValueError on anything else."""
        if not isinstance(data, list):
            raise ValueError("expected a JSON list of {node, exp, mult} objects")
        table = {}
        for entry in data:
            if not isinstance(entry, dict) or not {"node", "exp", "mult"} <= entry.keys():
                raise ValueError(f"entry needs node, exp and mult: {entry!r}")
            node, exp, mult = (entry[f] for f in ("node", "exp", "mult"))
            if not all(type(x) is int for x in (node, exp, mult)):
                raise ValueError(f"node, exp and mult must be integers: {entry!r}")
            table[(node, exp)] = table.get((node, exp), 0) + mult
        return LWeight(rank, table)


def trivial_lweight(n: int) -> LWeight:
    return LWeight(n, {})


def fundamental_lweight(n: int, i: int, z: int) -> LWeight:
    return LWeight(n, {(i, z): 1})


def kr_monomial(n: int, f: KRFactor) -> LWeight:
    """Expand the string: product of Y_{i, q^{center + length - 1 - 2j}}."""
    table = {}
    for z in f.exponents():
        table[(f.node, z)] = table.get((f.node, z), 0) + 1
    return LWeight(n, table)


def weight_map(pi: LWeight) -> Weight:
    out = list(zero_weight(pi.rank))
    for (i, _), m in pi.mults.items():
        out[i - 1] += m
    return tuple(out)


def _separated(f: KRFactor, g: KRFactor) -> bool:
    """No partial overlap: the centers avoid +-(len sum - 2p), 0 <= p < min."""
    if f.node != g.node:
        return True
    d = f.center - g.center
    for p in range(min(f.length, g.length)):
        if abs(d) == f.length + g.length - 2 * p:
            return False
    return True


def q_factorize(pi: LWeight) -> list:
    """The unique decomposition into pairwise separated strings.

    Per node, peel the longest run top down: the run containing the
    largest remaining exponent either nests inside or clears every later
    one, so the greedy result is the separated decomposition.  Ordered by
    node, then center descending, then length descending (centers can
    tie across parities).
    """
    factors = []
    nodes = sorted({i for i, _ in pi.mults})
    for i in nodes:
        counts = {z: m for (j, z), m in pi.mults.items() if j == i}
        while counts:
            top = max(counts)
            z = top
            while z in counts:
                counts[z] -= 1
                if not counts[z]:
                    del counts[z]
                z -= 2
            length = (top - z) // 2
            factors.append(KRFactor(i, top - length + 1, length))
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            if not _separated(factors[a], factors[b]):
                raise InvariantError("factorization produced overlapping strings")
    factors.sort(key=lambda f: (f.node, -f.center, -f.length))
    return factors


def cyclic_order_ok(n: int, factors) -> bool:
    """Order criterion for a list of strings to generate their tensor product.

    For every later position r and earlier position s the center gap
    z_s - z_r must avoid n_s + n_r + 2 - 2p + 2k - i_r - i_s over
    1 <= p <= min(n_s, n_r) and min(i_r, i_s) < k + 1 <= min(i_r + i_s, n + 1);
    the ranges are implemented literally, vacuous ranges pass.
    """
    fs = list(factors)
    for r in range(len(fs)):
        for s in range(r):
            a, b = fs[s], fs[r]
            gap = a.center - b.center
            for p in range(1, min(a.length, b.length) + 1):
                for k in range(min(a.node, b.node), min(a.node + b.node, n + 1)):
                    if gap == a.length + b.length + 2 - 2 * p + 2 * k - a.node - b.node:
                        return False
    return True


def pi_from_partition(n: int, i: int, xi: Partition) -> LWeight:
    """Product over the parts: one string of length xi_j centered at xi_j - 1."""
    out = trivial_lweight(n)
    for part in xi:
        out = out.times(kr_monomial(n, KRFactor(i, part - 1, part)))
    return out


def pi_blocks(n: int, i: int, xi: Partition):
    """Group pi_from_partition(n, i, xi) into equal-length string blocks.

    Reading the conjugate shape as n_1^{l_1} ... n_s^{l_s} (values
    ascending), block j is the n_j-th power of the string of length l_j
    centered at l_j - 1 + 2(l_{j+1} + ... + l_s).  Returns
    [(block LWeight, KRFactor, multiplicity n_j)], and the product of the
    blocks is pi_from_partition(n, i, xi).
    """
    blocks = []
    rle = xi.conjugate().rle()
    tail = sum(l for _, l in rle)
    for n_j, l_j in rle:
        tail -= l_j
        f = KRFactor(i, l_j - 1 + 2 * tail, l_j)
        blocks.append((kr_monomial(n, f).power(n_j), f, n_j))
    return blocks


def blocks_cyclic(n: int, i: int, xi: Partition) -> bool:
    """The block list, read last to first and flattened, passes the
    order criterion; holding for every (i, xi) is what makes the
    generalized modules below cyclic on a single vector."""
    flat = []
    for _, f, mult in reversed(pi_blocks(n, i, xi)):
        flat.extend([f] * mult)
    return cyclic_order_ok(n, flat)
