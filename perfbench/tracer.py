"""Outside-in tracer for krfl: spans and counters recorded from the
benchmark's own wrappers around each layer's public functions.

Nothing inside the package is edited.  `install` replaces a function in
every ``krfl.*`` namespace that holds it by name (``krfl.verify`` imports
``fusion_product``, ``krfl.cli`` imports ``cached_character``, and so
on), so calls cannot slip past a wrapper, and replaces methods on their
class.  `uninstall` puts every original back.

Two kinds of wrapper share one frame stack:

* a span is recorded per call, with name, start, end, parent span and
  the benchmark item it ran under; construction-level calls get spans;
* a counter aggregates per-vector calls (``Echelon.insert``,
  ``GtModule.act``, ...) into per-name totals on the enclosing span, so
  the trace stays bounded however many vectors a run touches.

Every frame charges its duration to its parent frame, so a frame's self
time is its duration minus the time of the wrapped calls made directly
inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Span:
    __slots__ = ("id", "name", "parent", "item", "start", "end", "child_s", "info", "counters")

    def __init__(self, id, name, parent, item, start):
        self.id = id
        self.name = name
        self.parent = parent
        self.item = item
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.info = None
        self.counters = {}

    @property
    def self_s(self):
        return (self.end - self.start) - self.child_s

    def to_json(self):
        out = {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "item": self.item,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
        }
        if self.info:
            out["info"] = self.info
        if self.counters:
            out["counters"] = self.counters
        return out


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


class Tracer:
    """Frame stack, finished spans and the patch table of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.item = None
        self.root = Span(0, "run", None, None, clock())
        self.spans = []
        self._spans = [self.root]
        self._frames = [self.root]
        self._patched = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_exit=None):
        """Wrap fn so every call records a Span; on_exit(span, args, result)
        may attach info."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._spans[-1]
            sp = Span(len(tracer.spans) + 1, name, parent.id, tracer.item, clock())
            tracer._spans.append(sp)
            tracer._frames.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                tracer._frames.pop()
                tracer._spans.pop()
                tracer._frames[-1].child_s += sp.end - sp.start
                tracer.spans.append(sp)
            if on_exit is not None:
                on_exit(sp, args, result)
            return result

        return wrapper

    def counter(self, name, fn, on_exit=None):
        """Wrap fn so calls add to counters[name] on the enclosing span:
        calls, total_s, self_s, plus whatever on_exit(agg, args, result)
        adds."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame()
            frames = tracer._frames
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1].child_s += dt
                agg = tracer._spans[-1].counters.get(name)
                if agg is None:
                    agg = tracer._spans[-1].counters[name] = {
                        "calls": 0,
                        "total_s": 0.0,
                        "self_s": 0.0,
                    }
                agg["calls"] += 1
                agg["total_s"] += dt
                agg["self_s"] += dt - frame.child_s
            if on_exit is not None:
                on_exit(agg, args, result)
            return result

        return wrapper

    # -- installing -------------------------------------------------------

    def patch_function(self, module, name, make_wrapper):
        """Replace module.name in every krfl namespace bound to the same
        object; returns the original."""
        original = getattr(sys.modules[module], name)
        wrapped = make_wrapper(original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "krfl" or modname.startswith("krfl.")):
                continue
            if getattr(mod, name, None) is original:
                self._patched.append((mod, name, original))
                setattr(mod, name, wrapped)
        return original

    def patch_method(self, cls, name, make_wrapper):
        original = cls.__dict__[name]
        self._patched.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))
        return original

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- output -----------------------------------------------------------

    def finish(self):
        self.root.end = self.clock()
        return self

    def all_spans(self):
        return [self.root] + self.spans

    def write(self, path, extra=None):
        data = {"spans": [s.to_json() for s in self.all_spans()]}
        if extra:
            data.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def aggregate(spans):
    """Per span name: calls, total_s, self_s; per counter name: summed
    counter fields across every span that carries it."""
    by_span = {}
    by_counter = {}
    for sp in spans:
        agg = by_span.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += sp.end - sp.start
        agg["self_s"] += sp.self_s
        for name, fields in sp.counters.items():
            tot = by_counter.setdefault(name, {})
            for key, value in fields.items():
                tot[key] = tot.get(key, 0) + value
    return by_span, by_counter


def install_krfl(tracer: Tracer):
    """Wrap the public functions of every krfl layer the benchmark reports.

    Span names and counter names are the layer metric prefixes.
    """
    import krfl.affine
    import krfl.cache
    import krfl.cli
    import krfl.demazure
    import krfl.linalg
    import krfl.lweights
    import krfl.modules
    import krfl.typea
    import krfl.verify
    from krfl.linalg import Echelon
    from krfl.modules import GtModule

    def span(module, name, label, on_exit=None):
        tracer.patch_function(module, name, lambda fn: tracer.span(label, fn, on_exit))

    def counter(module, name, label, on_exit=None):
        tracer.patch_function(module, name, lambda fn: tracer.counter(label, fn, on_exit))

    def note_dims(sp, args, result):
        sp.info = {"ambient_dim": args[0].dim, "dim": result.dim}

    def note_dim(sp, args, result):
        sp.info = {"dim": result.dim}

    def note_status(sp, args, result):
        sp.info = {"status": result.status}

    def note_insert(agg, args, result):
        if result is not None:
            agg["accepted"] = agg.get("accepted", 0) + 1
            agg["row_nnz"] = agg.get("row_nnz", 0) + len(args[0].rows[result])

    def note_load(agg, args, result):
        if result is not None:
            agg["hits"] = agg.get("hits", 0) + 1

    for name in ("insert", "coordinates", "reduce"):
        on_exit = note_insert if name == "insert" else None
        tracer.patch_method(
            Echelon, name, lambda fn, n=name, e=on_exit: tracer.counter(f"linalg.{n}", fn, e)
        )
    counter("krfl.linalg", "mat_bracket", "linalg.mat_bracket")

    tracer.patch_method(GtModule, "act", lambda fn: tracer.counter("modules.act", fn))

    def wrap_matrix(fn):
        inner = tracer.counter("modules.matrix", fn)

        @functools.wraps(fn)
        def matrix(self, sym, i, k):
            # first seen for this module: not yet in its matrix cache
            fresh = (sym, i, k) not in self._mats
            mat = inner(self, sym, i, k)
            if fresh:
                agg = tracer._spans[-1].counters["modules.matrix"]
                agg["built"] = agg.get("built", 0) + 1
                agg["nnz"] = agg.get("nnz", 0) + sum(len(c) for c in mat.values())
            return mat

        return matrix

    tracer.patch_method(GtModule, "matrix", wrap_matrix)

    span("krfl.modules", "fusion_filtration", "modules.fusion_filtration", note_dims)
    span("krfl.modules", "cyclic_submodule", "modules.cyclic_submodule", note_dim)
    span("krfl.modules", "tensor_modules", "modules.tensor_modules")
    span("krfl.modules", "simple_gmodule", "modules.simple_gmodule")
    span("krfl.modules", "graded_character", "modules.graded_character")
    span("krfl.modules", "fusion_product", "modules.fusion_product")
    span("krfl.modules", "check_axioms", "modules.check_axioms")
    counter("krfl.modules", "apply_word", "modules.apply_word")

    span("krfl.demazure", "local_weyl", "demazure.local_weyl")
    span("krfl.demazure", "rect_demazure", "demazure.rect_demazure")
    span("krfl.demazure", "gen_demazure", "demazure.gen_demazure")
    for name in (
        "check_demazure_relations",
        "check_gradrel_relations",
        "find_nonrelation_witness",
    ):
        span("krfl.demazure", name, f"demazure.{name}")

    for name in (
        "verify_main",
        "verify_dim",
        "verify_blocks",
        "verify_lemma_length",
        "verify_remark_sl4",
    ):
        span("krfl.verify", name, f"verify.{name}", note_status)

    counter("krfl.typea", "char_simple", "typea.char_simple")
    counter("krfl.lweights", "pi_blocks", "lweights.pi_blocks")
    counter("krfl.affine", "length", "affine.length")

    counter("krfl.cache", "load", "cache.load", note_load)
    counter("krfl.cache", "store", "cache.store")
    span("krfl.cache", "cached_character", "cache.cached_character")
    span("krfl.cli", "main", "cli.main")
