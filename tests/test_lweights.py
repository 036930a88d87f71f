import itertools
import json
import random

import pytest

from krfl.lweights import (
    KRFactor,
    LWeight,
    blocks_cyclic,
    cyclic_order_ok,
    kr_monomial,
    pi_blocks,
    pi_from_partition,
    q_factorize,
    trivial_lweight,
)
from krfl.typea import Partition, partitions_of

from oracles import all_q_string_groupings


def test_kr_monomial_expansion():
    assert kr_monomial(1, KRFactor(1, 1, 2)) == LWeight(1, {(1, 2): 1, (1, 0): 1})
    assert kr_monomial(2, KRFactor(1, 5, 1)) == LWeight(2, {(1, 5): 1})
    assert kr_monomial(2, KRFactor(2, 0, 3)) == LWeight(
        2, {(2, 2): 1, (2, 0): 1, (2, -2): 1}
    )


def test_kr_monomial_rejects_empty():
    with pytest.raises(ValueError):
        KRFactor(1, 0, 0)


def test_q_factorize_merges_adjacent():
    pi = LWeight(1, {(1, 0): 1}).times(LWeight(1, {(1, 2): 1}))
    assert q_factorize(pi) == [KRFactor(1, 1, 2)]


def test_q_factorize_keeps_separated_singletons():
    pi = LWeight(1, {(1, 0): 1}).times(LWeight(1, {(1, 4): 1}))
    assert q_factorize(pi) == [KRFactor(1, 4, 1), KRFactor(1, 0, 1)]


def test_q_factorize_single_fundamental():
    assert q_factorize(LWeight(3, {(2, -5): 1})) == [KRFactor(2, -5, 1)]


def test_q_factorize_repeated_string():
    pi = kr_monomial(1, KRFactor(1, 1, 2)).power(2)
    assert q_factorize(pi) == [KRFactor(1, 1, 2), KRFactor(1, 1, 2)]


def test_q_factorize_nested_strings():
    pi = kr_monomial(1, KRFactor(1, 2, 3)).times(kr_monomial(1, KRFactor(1, 2, 1)))
    assert q_factorize(pi) == [KRFactor(1, 2, 3), KRFactor(1, 2, 1)]


def _separated_pair(f, g):
    if f.node != g.node:
        return True
    return all(
        abs(f.center - g.center) != f.length + g.length - 2 * p
        for p in range(min(f.length, g.length))
    )


def test_q_factorize_round_trip_pairs():
    n = 3
    space = [
        KRFactor(i, z, m)
        for i in range(1, n + 1)
        for z in range(-6, 7)
        for m in range(1, 5)
    ]
    for f in space:
        assert q_factorize(kr_monomial(n, f)) == [f]
    rng = random.Random(5)
    pairs = [(f, g) for f, g in itertools.combinations(space, 2) if _separated_pair(f, g)]
    for f, g in rng.sample(pairs, 4000):
        pi = kr_monomial(n, f).times(kr_monomial(n, g))
        want = sorted([f, g], key=lambda x: (x.node, -x.center, -x.length))
        assert q_factorize(pi) == want


def test_q_factorize_round_trip_triples():
    n = 2
    rng = random.Random(9)
    space = [
        KRFactor(i, z, m)
        for i in range(1, n + 1)
        for z in range(-6, 7)
        for m in range(1, 5)
    ]
    done = 0
    while done < 300:
        trio = [rng.choice(space) for _ in range(3)]
        if not all(_separated_pair(a, b) for a, b in itertools.combinations(trio, 2)):
            continue
        pi = trivial_lweight(n)
        for f in trio:
            pi = pi.times(kr_monomial(n, f))
        want = sorted(trio, key=lambda x: (x.node, -x.center, -x.length))
        assert q_factorize(pi) == want
        done += 1


def test_q_factorize_unique_by_enumeration():
    # one node: compare against brute force over every grouping into strings
    rng = random.Random(11)
    for _ in range(60):
        exps = [2 * rng.randint(-2, 2) for _ in range(rng.randint(1, 5))]
        pi = LWeight(1, {})
        for z in exps:
            pi = pi.times(LWeight(1, {(1, z): 1}))
        found = q_factorize(pi)
        groupings = set()
        for g in all_q_string_groupings(exps):
            groupings.add(tuple(sorted(g)))
        separated = [
            g
            for g in groupings
            if all(
                _separated_pair(KRFactor(1, a, la), KRFactor(1, b, lb))
                for (a, la), (b, lb) in itertools.combinations(g, 2)
            )
        ]
        assert len(separated) == 1
        assert sorted((f.center, f.length) for f in found) == sorted(separated[0])


def test_cyclic_order_sl2():
    assert cyclic_order_ok(1, [KRFactor(1, 0, 1), KRFactor(1, 2, 1)])
    assert not cyclic_order_ok(1, [KRFactor(1, 2, 1), KRFactor(1, 0, 1)])
    assert cyclic_order_ok(1, [KRFactor(1, 2, 1)])
    assert cyclic_order_ok(2, [])


def test_cyclic_order_is_order_sensitive():
    a, b = KRFactor(1, 0, 2), KRFactor(1, 4, 2)
    # gap +-4 is forbidden in exactly one order: 2+2+2-2p+2k-1-1 with
    # p in {1,2}, k = 1 gives {2, 4}
    assert cyclic_order_ok(1, [a, b])
    assert not cyclic_order_ok(1, [b, a])


def test_pi_from_partition_examples():
    assert pi_from_partition(1, 1, Partition((2, 1))) == LWeight(
        1, {(1, 2): 1, (1, 0): 2}
    )
    for m in range(1, 5):
        assert pi_from_partition(2, 1, Partition((m,))) == kr_monomial(
            2, KRFactor(1, m - 1, m)
        )
    assert pi_from_partition(3, 2, Partition((1, 1))) == LWeight(3, {(2, 0): 2})


def test_pi_from_partition_factorizes_to_parts():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            for m in range(1, 7):
                for xi in partitions_of(m):
                    want = sorted(
                        (KRFactor(i, p - 1, p) for p in xi),
                        key=lambda f: (f.node, -f.center, -f.length),
                    )
                    assert q_factorize(pi_from_partition(n, i, xi)) == want


def test_pi_blocks_examples():
    blocks = pi_blocks(1, 1, Partition((2, 1)))
    assert [(f, m) for _, f, m in blocks] == [
        (KRFactor(1, 2, 1), 1),
        (KRFactor(1, 0, 1), 2),
    ]
    blocks = pi_blocks(2, 2, Partition((3,)))
    assert [(f, m) for _, f, m in blocks] == [(KRFactor(2, 2, 3), 1)]
    blocks = pi_blocks(2, 1, Partition((1, 1, 1)))
    assert [(f, m) for _, f, m in blocks] == [(KRFactor(1, 0, 1), 3)]


def test_pi_blocks_product_identity():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            for m in range(1, 7):
                for xi in partitions_of(m):
                    prod = trivial_lweight(n)
                    for block, f, mult in pi_blocks(n, i, xi):
                        assert block == kr_monomial(n, f).power(mult)
                        prod = prod.times(block)
                    assert prod == pi_from_partition(n, i, xi)


def test_blocks_cyclic_sweep():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            for m in range(1, 7):
                for xi in partitions_of(m):
                    assert blocks_cyclic(n, i, xi)


def test_lweight_json_round_trip():
    pi = LWeight(3, {(1, -2): 2, (3, 5): 1})
    assert LWeight.from_json(3, pi.to_json()) == pi


@pytest.mark.parametrize(
    "build",
    [
        lambda: LWeight(2, {(1, 0.5): 1}),
        lambda: LWeight(2, {(1.5, 0): 1}),
        lambda: LWeight(2, {(1, float("inf")): 1}),
        lambda: LWeight(2, {(1, 0): float("inf")}),
        lambda: KRFactor(1, 0.5, 2),
        lambda: KRFactor(1, 0, 1.5),
        lambda: KRFactor(1.5, 0, 1),
    ],
    ids=["exponent", "node", "infinite-exponent", "infinite-multiplicity", "center",
         "length", "factor-node"],
)
def test_non_integral_spectral_data_is_rejected(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_integral_floats_are_read_as_ints():
    assert json.dumps(KRFactor(1, 2.0, 1).to_json()) == json.dumps(
        {"node": 1, "center": 2, "len": 1}
    )
    assert json.dumps(LWeight(2, {(1.0, 2.0): 1}).to_json()) == json.dumps(
        [{"node": 1, "exp": 2, "mult": 1}]
    )


def test_lweight_rejects_bad_input():
    with pytest.raises(ValueError):
        LWeight(2, {(3, 0): 1})
    with pytest.raises(ValueError):
        LWeight(2, {(1, 0): -1})
    with pytest.raises(ValueError):
        LWeight(2, {(1, 0): 1}).power(-1)
