"""The four benchmark workloads.

Each workload turns a seed into its inputs, builds what it needs in
`setup`, and runs timed passes in `run_pass`.  Every item's outcome is
reduced to a small JSON value (dimension, character digest, relation
report, output digest) and compared with the pinned reference; any
difference, raised exception or non-pass report counts as a failed item.

The seed only generates inputs: distinct integer evaluation points and
the query order.  Seed 0 keeps the library's default points.  Graded
characters do not depend on the points, so one pinned reference holds
for every seed.

All calls into krfl go through module attributes (``demazure.local_weyl``
rather than a name imported here), so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

from krfl import cli, demazure, modules, verify
from krfl.typea import fundamental_weight, partitions_of, weight_scale

from hostspeed import HostSpeed

ONE = Fraction(1)

VERIFY_SUITE_ARGV = (
    "verify-suite", "--max-rank", "3", "--max-size", "4",
    "--seed", "0", "--cap", "5000", "--format", "json",
)
REPORT_FUNCTIONS = (
    "verify_main",
    "verify_dim",
    "verify_blocks",
    "verify_lemma_length",
    "verify_remark_sl4",
)


def _lru_caches():
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "krfl" or name.startswith("krfl.")):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


# Captured before any tracer wraps them: the wrappers carry no cache_info.
LRU_CACHES = _lru_caches()
SIMPLE_GMODULE = modules.simple_gmodule


def clear_caches():
    for fn in LRU_CACHES:
        fn.cache_clear()


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def char_sha(gc):
    return sha256_text(canonical(gc.to_json()))


def points(seed, key, count):
    """Distinct integer evaluation points for one construction: the
    library default 0, 1, ..., count-1 (returned as None) on seed 0,
    otherwise the default or its negative 0, -1, ..., 1-count, as a
    seeded coin picks.  Depends on (seed, key) only, so item order
    never changes them.

    Negating every point is the automorphism t -> -t of the current
    algebra: the engine does the same eliminations on the same integer
    sizes with other signs, so the work per seed is the same.  Other
    point choices are not cost-neutral: translates of the default made
    single modules up to 60% slower and random points from -9..9 30-50%
    slower, seed effects that would swamp the metric bounds.
    """
    if seed == 0:
        return None
    sign = random.Random(f"{seed}:{key}").choice((1, -1))
    return tuple(sign * z for z in range(count))


class Item:
    __slots__ = ("key", "start", "seconds", "ok", "outcome")

    def __init__(self, key, start, seconds, ok, outcome):
        self.key = key
        self.start = start
        self.seconds = seconds
        self.ok = ok
        self.outcome = outcome


class Workload:
    """Base: item bookkeeping and the reference comparison.

    reference is the pinned {item key: outcome} map, or None while
    pinning, in which case every outcome is taken as given.
    """

    name = ""
    sweeps = 1  # timed passes per set-up

    def __init__(self, seed, reference, workdir):
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.items = []
        self.tracer = None
        self.speed = HostSpeed()

    def setup(self):
        clear_caches()
        return None

    def run_pass(self, state):
        raise NotImplementedError

    def record(self, key, start, seconds, outcome):
        outcome = json.loads(json.dumps(outcome))  # tuples to lists, as pinned
        ok = "error" not in outcome and (
            self.reference is None or self.reference.get(key) == outcome
        )
        self.items.append(Item(key, start, seconds, ok, outcome))

    def run_item(self, key, fn, outcome):
        """Time fn(), then reduce its value with outcome() off the clock."""
        if self.tracer is not None:
            self.tracer.item = key
        self.speed.tick()
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # an item that raises is a failed item
            self.record(key, t0, time.perf_counter() - t0, {"error": repr(exc)})
            return
        seconds = time.perf_counter() - t0
        try:
            result = outcome(value)
        except Exception as exc:
            result = {"error": repr(exc)}
        self.record(key, t0, seconds, result)


def _capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _report_key(entry):
    return f"{entry['name']} {canonical(entry['params'])}"


class VerifySuite(Workload):
    name = "verify-suite"

    def run_pass(self, state):
        timed = []

        def timer(fn):
            def wrapper(*args, **kwargs):
                if self.tracer is not None:
                    self.tracer.item = f"{fn.__name__}{args}"
                self.speed.tick()
                t0 = time.perf_counter()
                report = fn(*args, **kwargs)
                timed.append((report, t0, time.perf_counter() - t0))
                return report

            return wrapper

        originals = {name: getattr(verify, name) for name in REPORT_FUNCTIONS}
        for name, fn in originals.items():
            setattr(verify, name, timer(fn))
        try:
            rc, out = _capture(VERIFY_SUITE_ARGV)
            entries = json.loads(out)
        except Exception as exc:  # the whole pass failed: fail every pinned report
            for key in self.reference or ():
                if key != "output":
                    self.record(key, time.perf_counter(), 0.0, {"error": repr(exc)})
            return
        finally:
            for name, fn in originals.items():
                setattr(verify, name, fn)
        by_key = {_report_key(e): (pos, e) for pos, e in enumerate(entries)}
        self.output = {"rc": rc, "sha256": sha256_text(out), "reports": len(entries)}
        whole = self.reference is None or self.reference.get("output") == self.output
        for report, start, seconds in timed:
            key = _report_key(report.to_json())
            pos, entry = by_key.get(key, (None, None))
            if entry is None or not whole:
                outcome = {"error": "report missing from output or output differs"}
            else:
                outcome = {
                    "status": entry["status"],
                    "position": pos,
                    "sha256": sha256_text(canonical(entry)),
                }
            self.record(key, start, seconds, outcome)


def demazure_grid():
    """The criterion-04 grid for rank <= 3 as (key, kind, n, ell, lam),
    minus the two largest rank-3 local Weyl modules: (2,2,2), 9,216-dim
    and minutes to build, and (1,2,2), the diagram-automorphism mirror of
    (2,2,1) with the same size and the same work."""
    skip = {(2, 2, 2), (1, 2, 2)}
    grid = []
    for n in (1, 2, 3):
        for lam in itertools.product((0, 1, 2), repeat=n):
            if n == 3 and lam in skip:
                continue
            grid.append((f"local_weyl {n} {lam}", "local_weyl", n, 1, lam))
        for i in range(1, n + 1):
            for ell in (1, 2):
                for m in (1, 2):
                    lam = weight_scale(ell * m, fundamental_weight(n, i))
                    grid.append(
                        (f"rect_demazure {n} {ell} {lam}", "rect_demazure", n, ell, lam)
                    )
    return grid


def _module_outcome(m, report):
    out = {"dim": m.dim, "report": report}
    if getattr(m, "graded", False):
        out["char"] = char_sha(modules.graded_character(m))
    return out


class DemazureGrid(Workload):
    name = "demazure-grid"

    def __init__(self, seed, reference, workdir):
        super().__init__(seed, reference, workdir)
        self.grid = []
        for key, kind, n, ell, lam in demazure_grid():
            mu = tuple(c // ell for c in lam)
            pts = points(seed, f"local_weyl {n} {mu}", max(1, sum(mu)))
            self.grid.append((key, kind, n, ell, lam, pts))

    def run_pass(self, state):
        for key, kind, n, ell, lam, pts in self.grid:

            def build_and_check():
                if kind == "local_weyl":
                    m = demazure.local_weyl(n, lam, pts)
                else:
                    m = demazure.rect_demazure(n, ell, lam, pts)
                gen = {m.cyclic_index: ONE}
                return m, demazure.check_demazure_relations(m, gen, ell, lam)

            self.run_item(key, build_and_check, lambda v: _module_outcome(*v))


def gradrel_cases():
    """Rank-3 fusion products of size <= 4, every node."""
    return [
        (3, i, xi.parts)
        for size in range(1, 5)
        for xi in partitions_of(size)
        for i in (1, 2, 3)
    ]


class ModuleAxioms(Workload):
    name = "module-axioms"

    def _routes(self):
        """(key, builder) per construction route; builders run in set-up."""
        seed = self.seed

        def pts(key, count):
            p = points(seed, key, count)
            return tuple(range(count)) if p is None else p

        def evaluation():
            z = pts("evaluation", 4)[-1]  # 3, or -3
            return modules.evaluation_module(modules.simple_gmodule(3, (2, 1, 0)), z)

        def pair():
            z = pts("pair", 2)
            return modules.tensor_modules([
                modules.evaluation_module(modules.simple_gmodule(3, (1, 0, 0)), z[0]),
                modules.evaluation_module(modules.simple_gmodule(3, (0, 1, 1)), z[1]),
            ])

        def cyclic():
            p = pair()
            return modules.cyclic_submodule(p, {p.flat_index[(0, 0)]: ONE})

        def graded_tensor():
            return modules.tensor_modules([
                demazure.local_weyl(2, (1, 0), points(seed, "local_weyl 2 (1, 0)", 1)),
                demazure.local_weyl(2, (1, 1), points(seed, "local_weyl 2 (1, 1)", 2)),
            ])

        return [
            ("fundamental_gmodule 3 2", lambda: modules.fundamental_gmodule(3, 2)),
            ("simple_gmodule 3 (1, 1, 1)", lambda: modules.simple_gmodule(3, (1, 1, 1))),
            ("tensor_gmodules 3 (1, 2, 3)", lambda: modules.tensor_gmodules(
                [modules.fundamental_gmodule(3, i) for i in (1, 2, 3)])),
            ("evaluation_module 3 (2, 1, 0)", evaluation),
            ("tensor_modules evaluation pair", pair),
            ("cyclic_submodule evaluation pair", cyclic),
            ("tensor_modules graded pair", graded_tensor),
            ("fusion_product 3 1 (2, 2, 1)", lambda: modules.fusion_product(
                3, 1, (2, 2, 1), points(seed, "fusion 3 1 (2, 2, 1)", 3))),
            ("local_weyl 3 (1, 1, 1)", lambda: demazure.local_weyl(
                3, (1, 1, 1), points(seed, "local_weyl 3 (1, 1, 1)", 3))),
            ("rect_demazure 3 2 (0, 4, 0)", lambda: demazure.rect_demazure(
                3, 2, (0, 4, 0), points(seed, "local_weyl 3 (0, 2, 0)", 2))),
            ("gen_demazure 3 1 (2, 2, 1)", lambda: demazure.gen_demazure(3, 1, (2, 2, 1))),
        ]

    def setup(self):
        clear_caches()
        built = []
        for key, build in self._routes():
            self.speed.tick()
            built.append((key, build()))
        fusions = []
        for n, i, xi in gradrel_cases():
            self.speed.tick()
            pts = points(self.seed, f"fusion {n} {i} {xi}", len(xi))
            fusions.append((n, i, xi, modules.fusion_product(n, i, xi, pts)))
        return built, fusions

    def run_pass(self, state):
        built, fusions = state
        for key, m in built:
            self.run_item(
                f"check_axioms {key}",
                lambda: modules.check_axioms(m),
                lambda rep: _module_outcome(m, rep),
            )
        for n, i, xi, m in fusions:
            gen = {m.cyclic_index: ONE}
            self.run_item(
                f"check_gradrel_relations {n} {i} {xi}",
                lambda: demazure.check_gradrel_relations(m, gen, i, xi),
                lambda rep: _module_outcome(m, rep),
            )
            self.run_item(
                f"find_nonrelation_witness {n} {i} {xi}",
                lambda: demazure.find_nonrelation_witness(m, gen, i, xi),
                lambda wit: {"witness": None if wit is None else list(wit)},
            )


def char_queries():
    """(key, argv) for the fusion, gendemazure and demazure subcommands
    over rank <= 3, size <= 4."""
    out = []
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            for size in range(1, 5):
                for xi in partitions_of(size):
                    part = ",".join(map(str, xi.parts))
                    for cmd in ("fusion", "gendemazure"):
                        argv = (cmd, "--rank", str(n), "--node", str(i), "--partition", part)
                        out.append((f"{cmd} {n} {i} {xi.parts}", argv))
            for ell in (1, 2):
                for m in (1, 2):
                    lam = weight_scale(ell * m, fundamental_weight(n, i))
                    argv = ("demazure", "--rank", str(n), "--ell", str(ell),
                            "--lambda", ",".join(map(str, lam)))
                    out.append((f"demazure {n} {ell} {lam}", argv))
    return out


class CharQueries(Workload):
    name = "char-queries"
    # one cold pass (5-8 s) then many short warm sweeps
    sweeps = 15

    def __init__(self, seed, reference, workdir):
        super().__init__(seed, reference, workdir)
        self.rng = random.Random(seed)
        self.queries = []  # canonical order, which the cold pass keeps
        for key, argv in char_queries():
            if argv[0] == "fusion":
                xi = tuple(int(c) for c in argv[-1].split(","))
                pts = points(seed, f"fusion {argv[2]} {argv[4]} {xi}", len(xi))
                if pts is not None:
                    argv += ("--points=" + ",".join(map(str, pts)),)
            self.queries.append((key, argv + ("--format", "json")))

    def setup(self):
        clear_caches()
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        os.environ["KRFL_CACHE_DIR"] = cache
        cold = {}
        for key, argv in self.queries:
            if self.tracer is not None:
                self.tracer.item = f"setup {key}"
            self.speed.tick()
            cold[key] = _capture(argv)
        return cache, cold

    def run_pass(self, state):
        _, cold = state
        order = list(self.queries)
        self.rng.shuffle(order)
        for key, argv in order:

            def outcome(result):
                rc, out = result
                return {"rc": rc, "sha256": sha256_text(out), "same_as_cold": (rc, out) == cold[key]}

            self.run_item(key, lambda: _capture(argv), outcome)


WORKLOADS = {w.name: w for w in (VerifySuite, DemazureGrid, ModuleAxioms, CharQueries)}
