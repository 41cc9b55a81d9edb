"""Compare benchmark results of two commits, workload by workload.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result records of one commit: the JSON files that
``bench/run.py`` writes to ``.bench_out/results/``, or files holding a run's
captured standard output.  Runs of the two commits with the same workload,
trace setting and seed form a pair; make at least ten pairs, alternating which
commit runs first.

For every metric the helper prints each side's median and quartiles and how
many pairs the change won (ties count for neither side).  It then applies this
rule:

* fewer than ten pairs: "too few pairs";
* the parent's spread (q3 - q1 over its median) wider than the metric's
  bound: "unresolved", unless every run of the change beats every run of the
  parent;
* the change won at least 9/10 of the pairs and the medians differ by more
  than the parent's q3 - q1: "gain";
* the change's median is worse than the parent's by more than the bound:
  "regression";
* otherwise "within bound".

Per-layer metrics have no bound, so they get "gain", "loss" or "no clear
change" from the pair rule alone.  Pairs whose outcome digests differ are
listed, since a changed outcome makes the timing comparison moot.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

from stats import quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _load_record(path: str) -> dict | None:
    with open(path) as fh:
        text = fh.read()
    try:
        rec = json.loads(text)
        return rec if isinstance(rec, dict) and "result" in rec else None
    except json.JSONDecodeError:
        pass
    lines = [ln for ln in text.splitlines() if ln.startswith("{")]
    if len(lines) < 2:
        return None
    rec = json.loads(lines[-2])
    rec["result"] = json.loads(lines[-1])
    return rec if "workload" in rec else None


def load_results(directory: str) -> dict:
    """(workload, trace) -> seed -> list of records, oldest first."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        rec = _load_record(path)
        if rec is not None:
            out[(rec["workload"], rec["trace"])][rec["seed"]].append(rec)
    for by_seed in out.values():
        for recs in by_seed.values():
            recs.sort(key=lambda r: r["started"])
    return out


def _better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def verdict(parent: list, change: list, direction: str, bound: float | None) -> tuple[str, int]:
    """(verdict, change wins) for paired values of one metric."""
    wins = sum(_better(c, p, direction) for p, c in zip(parent, change))
    if len(parent) < MIN_PAIRS:
        return f"too few pairs ({len(parent)} < {MIN_PAIRS})", wins
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    iqr = q3 - q1
    gained = wins >= WIN_SHARE * len(parent) and _better(med_c, med_p, direction) and abs(med_c - med_p) > iqr
    if bound is None:
        lost = (len(parent) - wins) >= WIN_SHARE * len(parent) and _better(med_p, med_c, direction) and abs(med_c - med_p) > iqr
        return ("gain" if gained else "loss" if lost else "no clear change"), wins
    if med_p and iqr / abs(med_p) > bound:
        every = all(_better(c, p, direction) for c in change for p in parent)
        return ("gain (every run better)" if every else "unresolved"), wins
    if gained:
        return "gain", wins
    if med_p and _better(med_p, med_c, direction) and abs(med_c - med_p) > bound * abs(med_p):
        return "regression", wins
    return "within bound", wins


def compare(parent_dir: str, change_dir: str, spec: dict) -> int:
    parent, change = load_results(parent_dir), load_results(change_dir)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worst = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        pairs = [(p, c) for s in seeds for p, c in zip(parent[key][s], change[key][s])]
        parent_first = sum(p["started"] < c["started"] for p, c in pairs)
        print(f"\n== {workload} (trace {trace}): {len(pairs)} pairs, parent ran first in {parent_first}")
        moved = [p["seed"] for p, c in pairs if p.get("verdict_digest") != c.get("verdict_digest")]
        if moved:
            print(f"   outcome digests differ for seeds {moved}")
        bad = [(p["seed"], side) for p, c in pairs for side, r in (("parent", p), ("change", c)) if not r["result"]["correct"]]
        if bad:
            print(f"   failed output checks: {bad}")
        print(f"   {'metric':36} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} wins  verdict")
        for name in pairs[0][0]["result"]["metrics"] if pairs else ():
            m = meta.get(name, {"better": "lower"})
            pv = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["result"]["metrics"][name]["value"] for _, c in pairs if name in c["result"]["metrics"]]
            if len(cv) != len(pv):
                print(f"   {name:36} missing on the change side")
                continue
            text, wins = verdict(pv, cv, m["better"], m.get("bound"))
            if text == "regression":
                worst = 1
            pq, cq = quartiles(pv), quartiles(cv)
            ps = f"{pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
            cs = f"{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
            print(f"   {name:36} {ps:34} {cs:34} {wins:>2}/{len(pairs):<2} {text}")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"\nonly on one side: {missing}")
    return worst


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as fh:
        spec = json.load(fh)
    return compare(args.parent_dir, args.change_dir, spec)


if __name__ == "__main__":
    sys.exit(main())
