"""Tests of the benchmark itself: tracer arithmetic and soundness, the
percentile rule, and the reference comparison.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

import krfl.cli
import krfl.demazure
import krfl.modules
import krfl.verify
import workloads
from krfl.linalg import Echelon
from krfl.modules import GtModule
from hostspeed import REF_S, WINDOW_S, HostSpeed
from stats import percentile, tail_defined
from tracer import Tracer, aggregate, install_krfl

REFERENCE = json.loads((Path(workloads.__file__).parent / "reference.json").read_text())


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_span_self_time_arithmetic():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    leaf_c = tr.counter("leaf", leaf)

    def inner_counter():
        clock.advance(0.5)
        leaf_c()

    inner_c = tr.counter("inner", inner_counter)

    def mid():
        clock.advance(1.0)
        leaf_c()
        clock.advance(3.0)
        inner_c()

    mid_s = tr.span("mid", mid)

    def outer():
        clock.advance(5.0)
        mid_s()
        clock.advance(0.25)

    tr.span("outer", outer)()
    spans, counters = aggregate(tr.finish().spans)
    # mid: 1 + leaf 2 + 3 + inner(0.5 + leaf 2) = 8.5, children 4.5
    assert spans["mid"] == {"calls": 1, "total_s": 8.5, "self_s": 4.0}
    # outer: 5 + mid 8.5 + 0.25
    assert spans["outer"] == {"calls": 1, "total_s": 13.75, "self_s": 5.25}
    assert counters["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert counters["inner"] == {"calls": 1, "total_s": 2.5, "self_s": 0.5}
    (mid_span,) = [s for s in tr.spans if s.name == "mid"]
    (outer_span,) = [s for s in tr.spans if s.name == "outer"]
    assert mid_span.parent == outer_span.id
    assert outer_span.parent == tr.root.id
    # counters sit on the span that was open when they ran
    assert set(mid_span.counters) == {"leaf", "inner"} and not outer_span.counters


def test_span_records_item_and_survives_exceptions():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise RuntimeError("x")

    wrapped = tr.span("boom", boom)
    tr.item = "case-7"
    with pytest.raises(RuntimeError):
        wrapped()
    (sp,) = tr.spans
    assert (sp.item, sp.end - sp.start, sp.self_s) == ("case-7", 1.0, 1.0)
    assert tr._frames == [tr.root] and tr._spans == [tr.root]


def test_host_speed_probes_at_most_every_interval_and_takes_window_median():
    clock = FakeClock()
    durations = iter([0.01, 0.02, 0.03, 0.05])
    speed = HostSpeed(clock=clock, probe=lambda: clock.advance(next(durations)))
    speed.tick()  # probe at 0.0, 0.01 s
    clock.advance(0.1)
    speed.tick()  # 0.11 s after that probe began: skipped
    assert speed.seconds == [0.01]
    for at in (0.5, 1.0, 5.0):
        clock.t = at
        speed.tick()
    assert speed.starts == [0.0, 0.5, 1.0, 5.0]
    # probes within WINDOW_S of 0.2: 0.01, 0.02, 0.03
    assert speed.factor(0.2) == pytest.approx(REF_S / 0.02)
    # a span reaching up to 5.0 - WINDOW_S also takes the probe at 5.0
    assert speed.factor(0.2, 5.0 - WINDOW_S) == pytest.approx(REF_S / 0.025)


def test_percentile_rule():
    assert percentile(list(range(1, 11)), 50) == 5
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile([3.0], 90) == 3.0
    # the 90th percentile needs at least ten samples beyond it
    assert tail_defined(100, 90)
    assert not tail_defined(99, 90)
    assert tail_defined(20, 50) and not tail_defined(19, 50)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_install_rebinds_every_namespace_and_uninstalls():
    originals = {
        ("krfl.verify", "fusion_product"): krfl.verify.fusion_product,
        ("krfl.demazure", "cyclic_submodule"): krfl.demazure.cyclic_submodule,
        ("krfl.cli", "cached_character"): krfl.cli.cached_character,
        ("krfl.modules", "fusion_product"): krfl.modules.fusion_product,
    }
    act, insert = GtModule.act, Echelon.insert
    tr = Tracer()
    install_krfl(tr)
    try:
        for (mod, name), fn in originals.items():
            assert getattr(sys.modules[mod], name) is not fn, (mod, name)
        assert krfl.verify.fusion_product is krfl.modules.fusion_product
        assert GtModule.act is not act and Echelon.insert is not insert
    finally:
        tr.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(sys.modules[mod], name) is fn
    assert GtModule.act is act and Echelon.insert is insert


def test_tracer_counts_exactly_the_calls_of_verify_main():
    """Tracer counts for verify_main(3,2,(2,2)) equal the calls an
    interpreter profile hook sees for the same code objects."""
    watched = {
        Echelon.insert.__code__: ("counter", "linalg.insert"),
        Echelon.coordinates.__code__: ("counter", "linalg.coordinates"),
        Echelon.reduce.__code__: ("counter", "linalg.reduce"),
        GtModule.act.__code__: ("counter", "modules.act"),
        GtModule.matrix.__code__: ("counter", "modules.matrix"),
        krfl.modules.apply_word.__code__: ("counter", "modules.apply_word"),
        krfl.modules.fusion_filtration.__code__: ("span", "modules.fusion_filtration"),
        krfl.modules.cyclic_submodule.__code__: ("span", "modules.cyclic_submodule"),
        krfl.modules.tensor_modules.__code__: ("span", "modules.tensor_modules"),
        krfl.modules.graded_character.__code__: ("span", "modules.graded_character"),
        krfl.demazure.gen_demazure.__code__: ("span", "demazure.gen_demazure"),
        krfl.demazure.rect_demazure.__code__: ("span", "demazure.rect_demazure"),
        krfl.demazure.check_gradrel_relations.__code__: (
            "span", "demazure.check_gradrel_relations"),
    }
    seen = dict.fromkeys(watched.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            seen[watched[frame.f_code]] += 1

    workloads.clear_caches()
    tr = Tracer()
    install_krfl(tr)
    sys.setprofile(profile)
    try:
        report = krfl.verify.verify_main(3, 2, (2, 2))
    finally:
        sys.setprofile(None)
        tr.uninstall()
    assert report.status == "pass"
    spans, counters = aggregate(tr.finish().all_spans())
    for (kind, name), calls in seen.items():
        got = (counters if kind == "counter" else spans).get(name, {}).get("calls", 0)
        assert got == calls, (name, got, calls)
    # reduce only runs on evaluation-type closures, which this case has none of
    assert [name for (_, name), calls in seen.items() if not calls] == ["linalg.reduce"]
    assert spans["verify.verify_main"]["calls"] == 1
    (top,) = [s for s in tr.spans if s.name == "verify.verify_main"]
    assert top.parent == tr.root.id and top.info == {"status": "pass"}
    inserts = counters["linalg.insert"]
    assert 0 < inserts["accepted"] < inserts["calls"]


def _subset_pass(wl):
    wl.run_pass(wl.setup())
    return wl.items


@pytest.mark.parametrize("seed", [0, 7])
def test_pinned_references_hold_on_two_seeds(seed, tmp_path, monkeypatch):
    monkeypatch.setenv("KRFL_CACHE_DIR", str(tmp_path / "unused"))
    grid = workloads.DemazureGrid(seed, REFERENCE["demazure-grid"], tmp_path)
    grid.grid = [g for g in grid.grid if g[2] <= 2]
    queries = workloads.CharQueries(seed, REFERENCE["char-queries"], tmp_path)
    queries.queries = [q for q in queries.queries if q[1][2] != "3"]
    monkeypatch.setattr(
        workloads, "gradrel_cases", lambda: [(3, 1, (2, 1)), (3, 2, (1, 1)), (3, 3, (1,))]
    )
    axioms = workloads.ModuleAxioms(seed, REFERENCE["module-axioms"], tmp_path)
    monkeypatch.setattr(axioms, "_routes", lambda: workloads.ModuleAxioms._routes(axioms)[:7])
    for wl in (grid, queries, axioms):
        items = _subset_pass(wl)
        assert items and all(it.ok for it in items), [it.key for it in items if not it.ok]
    assert len(axioms.items) == 7 + 3 * 2


def test_corrupted_character_is_a_mismatch(tmp_path, monkeypatch):
    real = krfl.modules.graded_character
    target = "local_weyl 2 (1, 1)"
    bad = {"n": 0}

    def corrupted(m):
        gc = real(m)
        if m.dim == 9 and m.weights[0] == (1, 1):
            (w, d), k = next(iter(gc.mults.items()))
            gc.mults[(w, d)] = k + 1
            bad["n"] += 1
        return gc

    monkeypatch.setattr(krfl.modules, "graded_character", corrupted)
    wl = workloads.DemazureGrid(0, REFERENCE["demazure-grid"], tmp_path)
    wl.grid = [g for g in wl.grid if g[2] <= 2]
    items = _subset_pass(wl)
    assert bad["n"] == 1
    assert [it.key for it in items if not it.ok] == [target]


def test_corrupted_cache_entry_is_a_mismatch(tmp_path, monkeypatch):
    monkeypatch.setenv("KRFL_CACHE_DIR", str(tmp_path / "unused"))
    wl = workloads.CharQueries(0, REFERENCE["char-queries"], tmp_path)
    wl.queries = [q for q in wl.queries if q[1][2] == "1"]
    state = wl.setup()
    cache_dir, _ = state
    (victim,) = [
        p for p in Path(cache_dir).iterdir()
        if json.loads(p.read_text())["descriptor"].get("kind") == "fusion"
        and json.loads(p.read_text())["descriptor"]["xi"] == [2, 1]
    ]
    data = json.loads(victim.read_text())
    data["character"]["entries"][0]["mult"] += 1
    victim.write_text(json.dumps(data))
    wl.run_pass(state)
    assert [it.key for it in wl.items if not it.ok] == ["fusion 1 1 (2, 1)"]


def test_raising_item_is_a_failure(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(krfl.demazure, "check_demazure_relations", broken)
    wl = workloads.DemazureGrid(0, REFERENCE["demazure-grid"], tmp_path)
    wl.grid = wl.grid[:3]
    items = _subset_pass(wl)
    assert len(items) == 3 and not any(it.ok for it in items)
    assert "engine fault" in items[0].outcome["error"]


def test_points_depend_on_seed_and_key_only():
    key = "local_weyl 3 (1, 1, 1)"
    assert workloads.points(0, key, 3) is None
    a = workloads.points(5, key, 3)
    assert a == workloads.points(5, key, 3)
    assert {workloads.points(s, key, 3) for s in range(1, 9)} == {(0, 1, 2), (0, -1, -2)}
