#!/usr/bin/env python3
"""The repository benchmark: three campaign workloads, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload curated-cold --seed 42 --seconds 20 --trace 0

It builds perfbench/driver.exe with dune, then launches one fresh driver
process per measured pass until --seconds have gone by, checks every
pass against its known answers, and prints one JSON object as the last
line of standard output: the end-to-end metrics (medians over the
passes) with --trace 0, or the per-layer metrics of one traced pass with
--trace 1.  The line before it is the host record with every pass's raw
figures.  `--workload all` runs every workload, one tagged result line
each.  `--self-check` shows that the known-answer checks bite.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
DRIVER = os.path.join(ROOT, "_build", "default", "perfbench", "driver.exe")

# Extracted-corpus size: validation, replay and store traffic dominate a
# pass, and both known defects show (see perfbench/README.md).
CORPUS_N = 2000
WORKERS = 2

WORKLOADS = ("curated-cold", "extracted-cold", "extracted-warm")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "paths_per_s": "paths/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "alloc_mwords": "Mwords",
    "unit_ok_ratio": "ratio",
}

# per-layer metric -> unit; the traced pass reports every one on every
# workload (0 where the layer does no work on that workload)
PER_LAYER = {
    "templates.build_s": "s",
    "templates.candidates": "count",
    "templates.accepted": "count",
    "templates.accept_ratio": "ratio",
    "templates.alloc_mwords": "Mwords",
    "concolic.explore_s": "s",
    "concolic.explored": "count",
    "concolic.iterations": "count",
    "concolic.paths": "count",
    "concolic.unsat_negations": "count",
    "concolic.skipped_negations": "count",
    "concolic.alloc_mwords": "Mwords",
    "solver.queries": "count",
    "solver.memo_hit_rate": "ratio",
    "solver.sat": "count",
    "solver.unsat": "count",
    "solver.unknown": "count",
    "solver.decided_s": "s",
    "solver.unknown_s": "s",
    "solver.alloc_mwords": "Mwords",
    "jit.compile_s": "s",
    "jit.ir_instrs": "count",
    "jit.machine_instrs": "count",
    "jit.not_compiled": "count",
    "verify.static_s": "s",
    "verify.cross_isa_s": "s",
    "verify.findings": "count",
    "verify.validate_s": "s",
    "verify.validate_queries": "count",
    "verify.store_misses": "count",
    "verify.proved": "count",
    "verify.refuted": "count",
    "verify.confirmed_refutations": "count",
    "verify.spurious": "count",
    "verify.unknown": "count",
    "verify.alloc_mwords": "Mwords",
    "difftest.replay_s": "s",
    "difftest.pass": "count",
    "difftest.expected_failure": "count",
    "difftest.curated_out": "count",
    "difftest.diff": "count",
    "difftest.alloc_mwords": "Mwords",
    "store.hits": "count",
    "store.misses": "count",
    "store.writes": "count",
    "store.entries": "count",
    "store.bytes": "bytes",
    "store.write_s": "s",
    "store.read_s": "s",
    "store.write_overhead": "ratio",
    "procpool.overhead": "ratio",
    "procpool.wall_s": "s",
    "procpool.cpu_s": "s",
    "procpool.deaths": "count",
    "procpool.redeals": "count",
    "procpool.garbage": "count",
    "wire.frames": "count",
    "wire.bytes": "bytes",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "core.units": "count",
    "core.crashed": "count",
    "core.unit_p50_ms": "ms",
    "core.unit_tail_ms": "ms",
    "core.unit_tail_pct": "%",
    "core.unit_max_ms": "ms",
    "core.unit_self_s": "s",
    "core.report_s": "s",
    "gc.minor_collections": "count",
    "gc.major_collections": "count",
    "gc.top_heap_mb": "MB",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project here: run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/driver.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(DRIVER):
        raise BenchError("building perfbench/driver.exe failed")


def proc_stat():
    """(busy, steal) jiffies summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def driver(mode, workload, seed, store=None, workers=None, rows=None, spans=None,
           extra=()):
    """One fresh driver process; its JSON figures plus the host's view."""
    out = os.path.join(WORK, "pass.json")
    if os.path.exists(out):
        os.remove(out)
    args = [DRIVER, mode, "--workload", workload, "--seed", str(seed),
            "--n", str(CORPUS_N), "--out", out]
    for flag, value in (("--store", store), ("--workers", workers),
                        ("--rows", rows), ("--spans", spans)):
        if value is not None:
            args += [flag, str(value)]
    args += list(extra)
    busy0, steal0 = proc_stat()
    t0 = time.monotonic_ns()
    with open(os.path.join(WORK, "driver.log"), "ab") as log:
        p = subprocess.Popen(args + ["--t0-ns", str(t0)], cwd=ROOT,
                             stdout=log, stderr=log)
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    busy1, steal1 = proc_stat()
    if p.returncode != 0 or not os.path.exists(out):
        return None
    with open(out) as f:
        r = json.load(f)
    r["exit"] = p.returncode
    r["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    r["host_busy_ticks"] = busy1 - busy0
    r["host_steal_ticks"] = steal1 - steal0
    return r


def fresh_dir(name):
    d = os.path.join(WORK, name)
    drop_dir(d)
    return d


def drop_dir(d):
    shutil.rmtree(d, ignore_errors=True)
    shutil.rmtree(d + ".replay", ignore_errors=True)


def fill_store(seed, jobs):
    """A store holding the extracted units' entries, written by one cold
    in-process pass on [jobs] domains; its count-only report, the same at
    any -j, is the reference for every later pass of the invocation."""
    store = fresh_dir("store")
    r = driver("run", "extracted-warm", seed, store=store, extra=("--jobs", str(jobs)))
    if r is None or r["checks"]:
        raise BenchError("filling the store failed: %s" % (r and r["checks"]))
    return store, r


def judge(r, reference):
    """Checks one pass; returns (units attempted, units failed, problems)."""
    if r is None:
        return 1, 1, ["driver exited abnormally"]
    problems = list(r["checks"])
    if reference is not None and r["report_digest"] != reference:
        problems.append("count-only report differs from the reference run")
    failed = r["units"] if problems else r["units"] - r["ok"]
    return r["units"], failed, problems


# extracted-cold runs without a store: the store would live on the
# checkout's disk, where per-pass store writes cost 0.6-3.2 s of system
# time on a 2-vCPU guest's ext4 virtual disk; its write path is measured
# by the traced run instead
def timed(workload, seed, seconds):
    store = reference = None
    passes = []
    try:
        if workload == "extracted-warm":
            # untimed, so two domains may share it
            store, fill = fill_store(seed, 2)
            reference = fill["report_digest"]
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            r = driver("run", workload, seed, store=store)
            attempted, failed, problems = judge(r, reference)
            if r is not None and reference is None:
                reference = r["report_digest"]
            passes.append({"figures": r, "attempted": attempted, "failed": failed,
                           "problems": problems})
    finally:
        if store is not None:
            drop_dir(store)
    good = [p["figures"] for p in passes if not p["problems"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    def med(f):
        vals = [f(r) for r in good]
        return statistics.median(vals) if vals else 0.0

    metrics = {
        "setup_s": med(lambda r: r["setup_s"]),
        "wall_s": med(lambda r: r["wall_s"]),
        "paths_per_s": med(lambda r: r["paths"] / r["wall_s"]),
        "cpu_s": med(lambda r: r["cpu_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "alloc_mwords": med(lambda r: r["alloc_words"] / 1e6),
        "unit_ok_ratio": (attempted - failed) / attempted,
    }
    problems = [q for p in passes for q in p["problems"]]
    return not problems, attempted, failed, metrics, passes, problems


def same_rows(a, b):
    with open(a) as fa, open(b) as fb:
        return fa.read() == fb.read()


def traced(workload, seed):
    """An untraced pass through run_supervised, then a traced pass over
    the same units in a fresh process; their per-unit results must be
    equal.  Extracted workloads also fill a store for the store replay
    probe; extracted-warm adds a pass on the worker pool, the only place
    Exec.Procpool and Exec.Unit_wire run."""
    problems = []
    store = fill = pooled = None
    run_rows = os.path.join(WORK, "run.rows")
    trace_rows = os.path.join(WORK, "trace.rows")
    spans = os.path.join(WORK, "trace-%s-%d" % (workload, seed))
    try:
        if workload != "curated-cold":
            # one domain: on extracted-cold this is the timed pass's
            # configuration with an empty store active
            store, fill = fill_store(seed, 1)
        pass_store = store if workload == "extracted-warm" else None
        reference = fill["report_digest"] if fill else None
        untraced = driver("run", workload, seed, store=pass_store, rows=run_rows)
        attempted, failed, probs = judge(untraced, reference)
        problems += probs
        if workload == "extracted-warm":
            pooled = driver("run", workload, seed, store=store, workers=WORKERS)
            problems += judge(pooled, reference)[2]
        extra = ("--replay", store) if store else ()
        t = driver("trace", workload, seed, store=pass_store, rows=trace_rows,
                   spans=spans, extra=extra)
    finally:
        if store is not None:
            drop_dir(store)
    if t is None or untraced is None:
        raise BenchError("a pass of the traced run exited abnormally")
    problems += t["checks"]
    if t["report_digest"] != untraced["report_digest"]:
        problems.append("traced report differs from run_supervised's")
    if not same_rows(run_rows, trace_rows):
        problems.append("traced per-unit results differ from run_supervised's")
    metrics = {k: t.get(k, 0.0) for k in PER_LAYER}
    metrics["trace.untraced_wall_s"] = untraced["wall_s"]
    metrics["trace.overhead_s"] = t["trace.wall_s"] - untraced["wall_s"]
    if pooled is not None:
        for k in ("deaths", "redeals", "garbage"):
            metrics["procpool." + k] = pooled["procpool_" + k]
        metrics["procpool.overhead"] = pooled["wall_s"] / untraced["wall_s"]
        metrics["procpool.wall_s"] = pooled["wall_s"]
        metrics["procpool.cpu_s"] = pooled["cpu_s"]
    if workload == "extracted-cold":
        # the write path: the filling pass is this workload's pass with
        # an empty store active
        for k in ("hits", "misses", "writes"):
            metrics["store." + k] = fill["store_" + k]
        metrics["store.write_overhead"] = fill["wall_s"] / untraced["wall_s"]
    if problems:
        failed = attempted
    passes = [{"figures": r} for r in (fill, untraced, pooled, t) if r is not None]
    return not problems, attempted, failed, metrics, passes, problems


def store_fs_type(path):
    best, fstype = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                best, fstype = mnt, parts[2]
    return fstype


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def host_record(args, workload, passes):
    figures = [p["figures"] for p in passes if p.get("figures")]
    return {
        "host": {
            "nproc": os.cpu_count(),
            "recommended_domain_count": figures[0].get("recommended_domain_count")
            if figures else None,
            "ocaml_version": figures[0].get("ocaml_version") if figures else None,
            "commit": commit(),
            "store_fs": store_fs_type(WORK),
        },
        "workload": workload,
        "seed": args.seed,
        "corpus_n": CORPUS_N if workload != "curated-cold" else None,
        "trace": args.trace,
        "run_count": len(passes),
        "passes": passes,
    }


def self_check():
    """A tampered expected-cause list and a forced unit crash must both
    lower unit_ok_ratio; the untouched pass must keep it at 1."""
    outcome = {}
    for label, extra in (("clean", ()), ("tampered", ("--tamper",)), ("crash", ("--crash",))):
        r = driver("run", "curated-cold", 42, extra=extra)
        attempted, failed, problems = judge(r, None)
        outcome[label] = (attempted - failed) / attempted
        print("self-check %-8s unit_ok_ratio=%.4f %s" % (label, outcome[label], problems))
    ok = outcome["clean"] == 1.0 and outcome["tampered"] < 1.0 and outcome["crash"] < 1.0
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return ok


def measure(args, workload):
    """One workload's result object, after its host record line."""
    if args.trace:
        correct, attempted, failed, metrics, passes, problems = traced(workload, args.seed)
        units = PER_LAYER
    else:
        correct, attempted, failed, metrics, passes, problems = timed(
            workload, args.seed, args.seconds)
        units = END_TO_END
    for q in problems:
        print("perfbench: check failed: %s" % q, file=sys.stderr)
    record = host_record(args, workload, passes)
    with open(os.path.join(WORK, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="curated-cold")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        if args.self_check:
            sys.exit(0 if self_check() else 1)
        if args.workload != "all":
            print(json.dumps(measure(args, args.workload)))
            return
        # every workload in turn, each result line tagged with its name
        for w in WORKLOADS:
            print(json.dumps(dict(workload=w, **measure(args, w))), flush=True)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
