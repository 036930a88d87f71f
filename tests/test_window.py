"""Character builds on the dominant window against full builds.

fusion_character, rect_demazure_character and gen_demazure_character
close only the weights at or above the lowest dominant weight of the
highest weight's coset and spread the dominant multiplicities over
their W-orbits.  Each must give graded_character of the full module.
"""

import itertools
import json
from fractions import Fraction

import pytest

import krfl.demazure
from krfl.cli import main
from krfl.demazure import (
    gen_demazure,
    gen_demazure_character,
    local_weyl,
    rect_demazure,
    rect_demazure_character,
)
from krfl.modules import (
    GtModule,
    evaluation_module,
    fusion_character,
    fusion_filtration,
    fusion_product,
    graded_character,
    module_store,
    simple_gmodule,
    tensor_modules,
)
from krfl.typea import dominates, fundamental_weight, partitions_of, weight_scale

ONE = Fraction(1)


def char_query_lines():
    """The fusion, gendemazure and demazure command lines over rank <= 3,
    size <= 4, as the char-queries benchmark issues them."""
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            for size in range(1, 5):
                for xi in partitions_of(size):
                    part = ",".join(map(str, xi.parts))
                    for cmd in ("fusion", "gendemazure"):
                        yield [cmd, "--rank", str(n), "--node", str(i),
                               "--partition", part]
            for ell in (1, 2):
                for m in (1, 2):
                    lam = weight_scale(ell * m, fundamental_weight(n, i))
                    yield ["demazure", "--rank", str(n), "--ell", str(ell),
                           "--lambda", ",".join(map(str, lam))]


def full_build(argv):
    cmd, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    n = int(opts["--rank"])
    if cmd == "demazure":
        lam = tuple(int(c) for c in opts["--lambda"].split(","))
        return rect_demazure(n, int(opts["--ell"]), lam)
    parts = tuple(int(c) for c in opts["--partition"].split(","))
    build = fusion_product if cmd == "fusion" else gen_demazure
    return build(n, int(opts["--node"]), parts)


def test_every_char_query_matches_the_full_build(capsys):
    lines = list(char_query_lines())
    assert len(lines) == 156
    for argv in lines:
        assert main(argv + ["--no-cache", "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == graded_character(full_build(argv)).to_json(), argv


def test_criterion_04_modules_match_the_full_build():
    for n in (1, 2, 3):
        for lam in itertools.product((0, 1, 2), repeat=n):
            if lam == (2, 2, 2):
                continue  # 9,216-dimensional: its full build takes 15 s
            want = graded_character(local_weyl(n, lam))
            assert rect_demazure_character(n, 1, lam) == want, (n, lam)
        for i in range(1, n + 1):
            for ell in (1, 2):
                for m in (1, 2):
                    lam = weight_scale(ell * m, fundamental_weight(n, i))
                    want = graded_character(rect_demazure(n, ell, lam))
                    got = rect_demazure_character(n, ell, lam)
                    assert got == want, (n, i, ell, m)


def test_largest_fusion_matches_the_full_build():
    # (3,2,(1^5)): 7,776 dimensions, 1,641 of them in the window
    got = fusion_character(3, 2, (1,) * 5)
    assert got == graded_character(fusion_product(3, 2, (1,) * 5))


class TestWindowMechanics:
    def test_windowed_closures_build_no_ambient_column_outside_the_window(
        self, monkeypatch
    ):
        column_maker, matrix = GtModule.column_maker, GtModule.matrix
        built, whole = [], []

        def column_maker_spy(self, sym, i, k):
            make = column_maker(self, sym, i, k)

            def spy(j):
                built.append((self, j))
                return make(j)

            return spy

        def matrix_spy(self, sym, i, k):
            if self.floor is not None and hasattr(self, "flat_index"):
                whole.append((sym, i, k))
            return matrix(self, sym, i, k)

        monkeypatch.setattr(GtModule, "column_maker", column_maker_spy)
        monkeypatch.setattr(GtModule, "matrix", matrix_spy)
        module_store.cache_clear()
        fusion_character(3, 2, (1, 1, 1))
        rect_demazure_character(2, 2, (2, 2))
        gen_demazure_character(3, 1, (2, 2, 1))
        # full modules (the factors' ambients) build columns too
        windowed = [(m, j) for m, j in built if m.floor is not None]
        assert windowed
        assert all(dominates(m.weights[j], m.floor) for m, j in windowed)
        assert whole == []

    def test_windowed_builds_go_through_the_public_builders(self, monkeypatch):
        # patched by module attribute, the way perfbench's tracer wraps them
        windowed = set()

        def spy(name, builder):
            def call(*args, **kwargs):
                if kwargs.get("_floor") is not None:
                    windowed.add(name)
                return builder(*args, **kwargs)

            return call

        for name in ("local_weyl", "rect_demazure", "gen_demazure"):
            monkeypatch.setattr(krfl.demazure, name, spy(name, getattr(krfl.demazure, name)))
        module_store.cache_clear()
        rect_demazure_character(3, 2, (0, 4, 0))
        gen_demazure_character(3, 1, (2, 2, 1))
        assert windowed == {"local_weyl", "rect_demazure", "gen_demazure"}

    def test_public_builders_still_return_full_modules(self):
        module_store.cache_clear()
        windowed = [
            fusion_character(2, 1, (2, 1)),
            rect_demazure_character(2, 1, (1, 1)),
            rect_demazure_character(2, 2, (2, 2)),
            gen_demazure_character(2, 1, (2, 1)),
        ]
        full = [
            fusion_product(2, 1, (2, 1)),
            local_weyl(2, (1, 1)),
            rect_demazure(2, 2, (2, 2)),
            gen_demazure(2, 1, (2, 1)),
        ]
        assert [m.floor for m in full] == [None] * 4
        assert [m.dim for m in full] == [18, 9, 36, 18]
        assert [graded_character(m) for m in full] == windowed
        # each windowed module is stored beside the full one of its call,
        # under that call's key with the floor appended
        entries = module_store.entries
        windowed_keys = [key for key, m in entries.items() if m.floor is not None]
        assert len(windowed_keys) >= 4
        assert all(key[:-1] in entries and key[-1] == entries[key].floor
                   for key in windowed_keys)

    def test_windowed_filtration_counts_only_window_vectors(self):
        # at a repeated point the antisymmetric vector spans a proper
        # trivial submodule: 1 row against 3 basis vectors at weights >= 0
        same = tensor_modules(
            [evaluation_module(simple_gmodule(1, (1,)), 0) for _ in range(2)]
        )
        same.floor = (0,)
        singlet = {same.flat_index[(0, 1)]: ONE, same.flat_index[(1, 0)]: -ONE}
        with pytest.raises(ValueError, match="not cyclic"):
            fusion_filtration(same, singlet)
