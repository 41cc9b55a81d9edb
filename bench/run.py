"""Benchmark entry point: one workload, one seed, one JSON result on the last line.

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, so nothing needs installing.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run (see
bench/README.md).  The line before the result is a JSON record of the
environment, the outcome counts and their digest; the same record is saved
under ``.bench_out/results/``.  The exit code is 1 when an output check fails
and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
TRACE_SEGMENTS = 4  # untraced/traced pairs in a traced run
PROBE_REF_S = 0.001  # timings are scaled to a host on which workloads.probe() takes this long
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "not_controlled": "CPU frequency scaling, core isolation and the page cache are left as found",
    }


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package and its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import blockrelax.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _setup_seconds(workload, seed: int) -> float:
    """Median fresh import plus median in-process set-up, each scaled like the timed loop."""
    from workloads import probe, probe_cpus

    imports, inproc = [], []
    for _ in range(SETUP_REPEATS):
        before = probe_cpus()  # the child interpreter may run on any CPU
        t = _import_seconds()
        imports.append(t * 2 * PROBE_REF_S / (before + probe_cpus()))
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        workload.setup(seed)
        t = time.perf_counter() - t0
        inproc.append(t * 2 * PROBE_REF_S / (before + probe()))
    return statistics.median(imports) + statistics.median(inproc)


def _peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process, plus ``jobs`` times the largest pool child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * kids) / 1024.0


def _scaled(run) -> tuple[float, list]:
    """items_per_s and per-item ms, each window's times scaled by PROBE_REF_S over its probe time."""
    busy = sum(w.busy * PROBE_REF_S / w.score for w in run.windows)
    ms = [s * 1e3 * PROBE_REF_S / w.score for w in run.windows for s in w.samples]
    return run.items / busy, ms


def _end_to_end(workload, seed: int, seconds: float):
    from stats import median, tail

    setup_s = _setup_seconds(workload, seed)
    run = workload.run(seconds)
    rss = _peak_rss_mb(workload.jobs)
    chk = workload.check([run])
    items_per_s, ms = _scaled(run)
    p_tail, level, n = tail(ms, workload.tail_level)
    values = {
        "items_per_s": items_per_s,
        "item_ms_p50": median(ms),
        "item_ms_p99": p_tail,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    raw_ms = [s * 1e3 for s in run.samples]
    notes = {
        "item_ms_p99_level": level,
        "item_samples": n,
        "busy_s": run.busy,
        "windows": len(run.windows),
        "probe_ms_p50": median([w.score for w in run.windows]) * 1e3,
        "unscaled": {"items_per_s": run.items_per_s, "item_ms_p50": median(raw_ms), "item_ms_p99": tail(raw_ms, level)[0]},
    }
    return [run], chk, values, notes


def _per_layer(workload, seed: int, seconds: float):
    """Untraced and traced segments alternate, so a drift in host speed hits both alike."""
    from metrics import layer_values
    from spans import Tracer
    from workloads import Run

    workload.setup(seed)
    base, traced = Run(), Run()
    if workload.name == "corpus":
        # the pool figures need an untraced jobs=2 run; tracing runs at jobs=1
        pooled = workload.run(seconds / 3.0)
        tracer = Tracer(item_start=("run_sweep", "build_instance"))
        with tracer.installed(), tracer.item_span(-1):
            workload.setup_plan()
        while base.busy + traced.busy < 2.0 * seconds / 3.0:
            base.merge(workload.run(0.0, jobs=1))
            with tracer.installed():
                traced.merge(workload.run(0.0, tracer=tracer, jobs=1))
        with tracer.installed():
            sample = workload.storage_sample(tracer)
        runs = [pooled, base, traced]
        chk = workload.check(runs, sample)
    else:
        pooled = None
        tracer = Tracer()
        segment = seconds / (2 * TRACE_SEGMENTS)
        for _ in range(TRACE_SEGMENTS):
            base.merge(workload.run(segment, start=traced.next_index))
            with tracer.installed():
                traced.merge(workload.run(segment, tracer=tracer, start=base.next_index))
        runs = [base, traced]
        chk = workload.check(runs)
    values = layer_values(tracer, chk, runs, pooled, base, traced)
    spans_path = os.path.join(OUT, "spans", f"{workload.name}-seed{seed}.jsonl")
    tracer.write(spans_path)
    notes = {"spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
    return runs, chk, values, notes


def _run_all(args, spec: dict) -> int:
    """Every workload in its own process; a table, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit code {proc.returncode}, no result")
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, val in res["metrics"].items():
            print(f"  {metric:36} {val['value']:>14.6g} {val['unit']}")
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "blockrelax", "__init__.py")):
        print(f"error: no blockrelax sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return _run_all(args, spec)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = os.path.join(OUT, "tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    workload = WORKLOADS[args.workload](scratch)

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    measure = _per_layer if args.trace else _end_to_end
    runs, chk, values, notes = measure(workload, args.seed, args.seconds)
    for name in os.listdir(scratch):
        os.remove(os.path.join(scratch, name))
    os.rmdir(scratch)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    attempted = sum(run.items for run in runs)
    failed = sum(run.failed for run in runs) + chk.failed
    result = {
        "correct": not chk.violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "environment": _environment(args.seed),
        "shares": chk.shares,
        "verdicts": chk.verdicts,
        "verdict_digest": chk.digest,
        "violations": chk.violations[:20],
        "n_violations": len(chk.violations),
        "notes": notes,
        "result": result,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stamp = started.replace(":", "").replace("-", "")[:15]
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for v in chk.violations[:20]:
        print(f"violation: {v}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
