"""The process-wide caches of the weight arithmetic.

krfl.typea and krfl.modules keep the pure weight arithmetic of the
closures (heights, dominant representatives, the root order, orbits and
generator targets) in module-level lru_caches for the whole process.
These tests pin where those caches live, that emptying every krfl cache
changes no output, how much memory the weight caches hold, and their one
bound, which a full verify_suite does not reach.
"""

import gc
import json
import sys
import tracemalloc

import krfl.modules
import krfl.typea
from krfl.cli import main
from krfl.modules import GtModule, fusion_character
from krfl.typea import WEIGHT_CACHE_SIZE
from krfl.verify import suite_ok, verify_suite

WEIGHT_CACHES = [
    (krfl.typea, "height"),
    (krfl.typea, "dominant_rep"),
    (krfl.typea, "dominates"),
    (krfl.typea, "_orbit"),
    (krfl.modules, "_shift"),
    (krfl.modules, "_target"),
]
WEIGHT_CACHE_BUDGET = 512 * 1024  # bytes


def krfl_caches():
    """Every module-level callable with cache_clear in a krfl.* module:
    what a benchmark set-up empties so that each round starts cold."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "krfl" or name.startswith("krfl.")):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


def clear_all():
    for fn in krfl_caches():
        fn.cache_clear()


def test_every_weight_cache_is_found_and_emptied_by_the_module_rule():
    found = {id(fn) for fn in krfl_caches()}
    for mod, name in WEIGHT_CACHES:
        fn = vars(mod)[name]
        assert id(fn) in found, name
        fn.cache_clear()
        assert fn.cache_info().currsize == 0, name


def test_every_weight_cache_is_bounded_by_one_constant():
    for mod, name in WEIGHT_CACHES:
        assert vars(mod)[name].cache_info().maxsize == WEIGHT_CACHE_SIZE, name


def _outputs(capsys):
    code = main(["verify-suite", "--max-rank", "2", "--max-size", "3", "--format", "json"])
    out = capsys.readouterr().out
    ch = fusion_character(3, 2, (2, 1))
    return code, out, json.dumps(ch.to_json()), repr(ch)


def test_clearing_every_cache_changes_no_output(capsys):
    clear_all()
    cold = _outputs(capsys)
    warm = _outputs(capsys)
    clear_all()
    assert cold == warm == _outputs(capsys)
    assert cold[0] == 0 and json.loads(cold[1])


def test_weight_caches_stay_small_after_a_full_verify_suite():
    """The bytes that only the weight caches keep alive once every other
    cache is emptied, after verify_suite over rank <= 3, size <= 4; and
    that suite evicts nothing, so the bound changes no hit."""
    clear_all()
    tracemalloc.start()
    try:
        assert suite_ok(verify_suite(3, 4))
        for mod, name in WEIGHT_CACHES:
            info = vars(mod)[name].cache_info()
            # from empty, every miss stored an entry and none was dropped
            assert info.currsize == info.misses < info.maxsize, name
        weight = {id(vars(mod)[name]) for mod, name in WEIGHT_CACHES}
        for fn in krfl_caches():
            if id(fn) not in weight:
                fn.cache_clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        for mod, name in WEIGHT_CACHES:
            vars(mod)[name].cache_clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held < WEIGHT_CACHE_BUDGET, held


def test_no_tensor_product_keeps_columns_after_a_verify_suite():
    """A closure empties its ambient's column store, and a subquotient
    drops the ambient's columns of a generator once it has read them,
    so after a suite no tensor product holds a column."""
    clear_all()
    assert suite_ok(verify_suite(max_rank=2, max_size=3))
    gc.collect()
    held = [
        (m.dim, len(m._cols))
        for m in gc.get_objects()
        if isinstance(m, GtModule) and hasattr(m, "flat_index") and m._cols
    ]
    assert held == []
