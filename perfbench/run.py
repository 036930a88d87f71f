"""krfl benchmark: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload verify-suite --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; krfl is imported from ./src.  A measured
run (--trace 0) repeats rounds of set-up plus timed passes until the
passes add up to --seconds and MIN_ROUNDS rounds have run, then
prints the end-to-end metrics.  A traced run
(--trace 1) times one untraced round of one pass, then one round with
the tracer installed, and prints the per-layer metrics with the tracing
overhead.  The last line
of standard output is the JSON result; the line before it records the
environment.  Scratch files live in .perfbench_tmp/ (removed at exit);
results and traces are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify-suite", "demazure-grid", "module-axioms", "char-queries")
TIME_GUARD_S = 120  # start no new round after this long, to end within 180 s
IMPORT_SAMPLES = 5  # at the start of a measured run and after each round
MIN_ROUNDS = 2  # set-ups per measured run


def environment():
    commit = None
    if (ROOT / ".git").exists():  # not an enclosing repository's HEAD
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }


def import_samples(speed, n=IMPORT_SAMPLES):
    """(start, seconds) from spawning a fresh interpreter to the end of
    its `import krfl.cli`.  The child reads the system-wide monotonic
    clock itself: waiting for its exit with a timeout polls in steps of
    up to 50 ms, which would quantise the sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import krfl.cli, time; print(time.monotonic())"
    samples = []
    for _ in range(n):
        speed.tick()
        start, t0 = time.perf_counter(), time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=60,
            capture_output=True, text=True,
        )
        samples.append((start, float(proc.stdout) - t0))
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def measured(wl, seconds):
    """End-to-end metrics from rounds of set-up plus timed passes.

    Both times are calibrated to a quiet host (see hostspeed.py).
    wall_s is one pass with every item at its median calibrated time
    over the run's passes; items cover over 98% of a pass.  setup_s is
    the median calibrated import time plus the median calibrated
    set-up.  The same
    figures uncalibrated, and the item percentiles, are printed with the
    metrics but are not among them: over items whose sizes span four
    orders of magnitude the percentiles swing by 20-45% between runs.
    """
    from stats import percentile, tail_defined

    speed = wl.speed
    imports = import_samples(speed)
    t_start = time.perf_counter()
    setups, passes = [], []
    while (len(setups) < MIN_ROUNDS or sum(passes) < seconds) and (
        time.perf_counter() - t_start < TIME_GUARD_S
    ):
        gc.collect()
        speed.tick()
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append((t0, time.perf_counter()))
        for _ in range(wl.sweeps):
            t0 = time.perf_counter()
            wl.run_pass(state)
            passes.append(time.perf_counter() - t0)
        del state
        imports += import_samples(speed)
    raw, calibrated = {}, {}
    for it in wl.items:
        raw.setdefault(it.key, []).append(it.seconds)
        calibrated.setdefault(it.key, []).append(it.seconds * speed.factor(it.start))
    median = statistics.median
    out = {
        "wall_s": metric(sum(map(median, calibrated.values())), "s"),
        "setup_s": metric(
            median(t * speed.factor(start) for start, t in imports)
            + median((end - start) * speed.factor(start, end) for start, end in setups),
            "s",
        ),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    times = [it.seconds for it in wl.items]
    printed = {
        "wall_raw_s": metric(sum(map(median, raw.values())), "s"),
        "setup_raw_s": metric(
            median(t for _, t in imports) + median(end - start for start, end in setups), "s"
        ),
        "item_p50_ms": metric(percentile(times, 50) * 1000, "ms"),
    }
    if tail_defined(len(times), 90):
        printed["item_p90_ms"] = metric(percentile(times, 90) * 1000, "ms")
    notes = {"rounds": len(setups), "passes": passes, "setups": setups,
             "imports": imports,
             "probes": list(zip(speed.starts, speed.seconds)), "items": len(times), **printed}
    return out, notes


def _round(wl):
    """One set-up and one timed pass; returns the state and the pass time."""
    gc.collect()
    state = wl.setup()
    t0 = time.perf_counter()
    wl.run_pass(state)
    return state, time.perf_counter() - t0


def traced(wl, out_dir):
    from tracer import Tracer, aggregate, install_krfl
    from workloads import SIMPLE_GMODULE

    _, untraced_wall = _round(wl)
    tracer = Tracer()
    install_krfl(tracer)
    wl.tracer = tracer
    try:
        state, traced_wall = _round(wl)
    finally:
        tracer.uninstall()
        wl.tracer = None
    tracer.finish()
    cache_bytes = 0
    cache_dir = os.environ.get("KRFL_CACHE_DIR")
    if cache_dir and os.path.isdir(cache_dir):
        cache_bytes = sum(p.stat().st_size for p in Path(cache_dir).iterdir())
    info = SIMPLE_GMODULE.cache_info()
    del state
    spans, counters = aggregate(tracer.all_spans())
    out = layer_metrics(spans, counters, tracer.spans)
    out["modules.simple_gmodule.hit_ratio"] = metric(
        info.hits / max(1, info.hits + info.misses), "ratio"
    )
    out["cache.dir_bytes"] = metric(cache_bytes, "bytes")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    out["trace.overhead_share"] = metric(
        (traced_wall - untraced_wall) / untraced_wall, "ratio"
    )
    path = out_dir / f"trace-{wl.name}-seed{wl.seed}.json"
    tracer.write(path, {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall})
    return out, {"spans": len(tracer.spans), "trace_file": str(path.relative_to(ROOT))}


def layer_metrics(spans, counters, span_list):
    """The per-layer metric table from aggregated spans and counters."""

    def c(name, field):
        return counters.get(name, {}).get(field, 0)

    def s(name, field):
        return spans.get(name, {}).get(field, 0)

    def info_sum(name, key):
        return sum(sp.info[key] for sp in span_list if sp.name == name and sp.info)

    statuses = {}
    for sp in span_list:
        if sp.name.startswith("verify.") and sp.info:
            statuses[sp.info["status"]] = statuses.get(sp.info["status"], 0) + 1
    inserts = c("linalg.insert", "calls")
    accepted = c("linalg.insert", "accepted")
    loads = c("cache.load", "calls")
    table = {
        "linalg.insert.calls": (inserts, "count"),
        "linalg.insert.accepted": (accepted, "count"),
        "linalg.insert.accept_ratio": (accepted / max(1, inserts), "ratio"),
        "linalg.insert.self_s": (c("linalg.insert", "self_s"), "s"),
        "linalg.insert.row_nnz_mean": (c("linalg.insert", "row_nnz") / max(1, accepted), "count"),
        "linalg.coordinates.calls": (c("linalg.coordinates", "calls"), "count"),
        "linalg.coordinates.self_s": (c("linalg.coordinates", "self_s"), "s"),
        "linalg.reduce.calls": (c("linalg.reduce", "calls"), "count"),
        "linalg.reduce.self_s": (c("linalg.reduce", "self_s"), "s"),
        "linalg.mat_bracket.self_s": (c("linalg.mat_bracket", "self_s"), "s"),
        "modules.fusion_filtration.calls": (s("modules.fusion_filtration", "calls"), "count"),
        "modules.fusion_filtration.self_s": (s("modules.fusion_filtration", "self_s"), "s"),
        "modules.fusion_filtration.total_s": (s("modules.fusion_filtration", "total_s"), "s"),
        "modules.fusion_filtration.ambient_dim": (info_sum("modules.fusion_filtration", "ambient_dim"), "count"),
        "modules.fusion_filtration.dim": (info_sum("modules.fusion_filtration", "dim"), "count"),
        "modules.cyclic_submodule.calls": (s("modules.cyclic_submodule", "calls"), "count"),
        "modules.cyclic_submodule.total_s": (s("modules.cyclic_submodule", "total_s"), "s"),
        "modules.cyclic_submodule.dim": (info_sum("modules.cyclic_submodule", "dim"), "count"),
        "modules.act.calls": (c("modules.act", "calls"), "count"),
        "modules.act.self_s": (c("modules.act", "self_s"), "s"),
        "modules.matrix.built": (c("modules.matrix", "built"), "count"),
        "modules.matrix.nnz": (c("modules.matrix", "nnz"), "count"),
        "modules.matrix.self_s": (c("modules.matrix", "self_s"), "s"),
        "modules.tensor_modules.self_s": (s("modules.tensor_modules", "self_s"), "s"),
        "modules.graded_character.self_s": (s("modules.graded_character", "self_s"), "s"),
        "modules.apply_word.calls": (c("modules.apply_word", "calls"), "count"),
        "demazure.check_demazure_relations.total_s": (s("demazure.check_demazure_relations", "total_s"), "s"),
        "demazure.check_gradrel_relations.total_s": (s("demazure.check_gradrel_relations", "total_s"), "s"),
        "demazure.find_nonrelation_witness.total_s": (s("demazure.find_nonrelation_witness", "total_s"), "s"),
        "verify.verify_main.total_s": (s("verify.verify_main", "total_s"), "s"),
        "verify.verify_dim.total_s": (s("verify.verify_dim", "total_s"), "s"),
        "verify.status.pass": (statuses.get("pass", 0), "count"),
        "verify.status.fail": (statuses.get("fail", 0), "count"),
        "verify.status.skip": (statuses.get("skip", 0), "count"),
        "typea.char_simple.total_s": (c("typea.char_simple", "total_s"), "s"),
        "lweights.pi_blocks.total_s": (c("lweights.pi_blocks", "total_s"), "s"),
        "affine.length.calls": (c("affine.length", "calls"), "count"),
        "affine.length.self_s": (c("affine.length", "self_s"), "s"),
        "cache.load.calls": (loads, "count"),
        "cache.hit_ratio": (c("cache.load", "hits") / max(1, loads), "ratio"),
        "cache.load.self_s": (c("cache.load", "self_s"), "s"),
        "cache.store.self_s": (c("cache.store", "self_s"), "s"),
        "cli.main.self_s": (s("cli.main", "self_s"), "s"),
    }
    return {name: metric(value, unit) for name, (value, unit) in table.items()}


def run_one(args):
    sys.path[:0] = [str(SRC), str(HERE)]
    env = environment()
    work_root = ROOT / ".perfbench_tmp"
    out_dir = ROOT / ".perfbench_out"
    work_root.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    os.environ["KRFL_CACHE_DIR"] = str(workdir / "cache")
    try:
        import krfl

        if Path(krfl.__file__).resolve().parent != SRC / "krfl":
            raise SystemExit(f"krfl was imported from {krfl.__file__}, not from {SRC}")
        from workloads import WORKLOADS

        reference = json.loads((HERE / "reference.json").read_text())
        wl = WORKLOADS[args.workload](args.seed, reference[args.workload], workdir)
        if args.trace:
            metrics, notes = traced(wl, out_dir)
        else:
            metrics, notes = measured(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    attempted = len(wl.items)
    failed = sum(not it.ok for it in wl.items)
    notes["failed_share"] = failed / max(1, attempted)
    notes["failed_items"] = sorted({it.key for it in wl.items if not it.ok})[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "notes": notes, **result,
              "items": [[it.key, it.start, it.seconds, it.ok] for it in wl.items]}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    shown = dict(metrics)
    for name in ("wall_raw_s", "setup_raw_s", "item_p50_ms", "item_p90_ms"):
        if name in notes:
            shown[name] = notes[name]
    for name, m in shown.items():
        print(f"{args.workload:14s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:14s} {'failed_share':44s} {notes['failed_share']:>14.6g} ratio"
          f"  ({failed} of {attempted} items)")
    print(json.dumps({"env": env, "notes": notes}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "krfl" / "__init__.py").is_file():
        print(f"krfl sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
