"""Command-line front end.

Subcommands: gen, solve, oracle, sweep, compare, concentration, reduce-x3c,
reduce-partition, replay.  Configs are flat key = value files (repeat a key to
span a grid); sweep and compare read --jobs, else BLOCKRELAX_JOBS.
Exit code 1 marks bad input (reported in one line), a violated exact identity
or a concentration mean check beyond 4 sigma; the tail and window frequencies
are only reported.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import concentration as conc
from .generate import build_instance, derive_seed, instance_generator
from .model import Selector
from .oracle import GRID, GRID_GUARD, SUBSET_GUARD, enumerate_selectors
from .reductions import (
    PartitionInstance,
    X3CInstance,
    decide_partition_via_lp,
    decide_x3c_via_l0,
    partition_to_lp,
    x3c_to_l0,
)
from .solver import check_stack
from .storage import load_instance, save_instance, save_reduction
from .sweep import (
    CONCENTRATION_KEYS,
    GEN_KEYS,
    build_comparison_plan,
    build_sweep_plan,
    config_exponent,
    config_jobs,
    config_numbers,
    expand_config,
    gen_config,
    parse_config,
    replay_trial,
    run_comparison,
    run_sweep,
    write_comparison_csv,
    write_csv,
    write_sweep_csv,
)

__all__ = ["main"]


@contextlib.contextmanager
def _one_line(kind: str):
    """An OSError or ValueError in the block ends the run with exit code 1 and
    one line naming the problem, not a traceback."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{kind} error: {exc}") from None


def _jobs(flag: int | None) -> int:
    """Worker processes: ``--jobs``, else BLOCKRELAX_JOBS, else 1; a bad count ends the run with one line."""
    with _one_line("argument"):
        return config_jobs(os.environ.get("BLOCKRELAX_JOBS", "1") if flag is None else flag)


@contextlib.contextmanager
def _config(path: str | None):
    """The parsed config file; an error while reading it or building from it
    ends the run with one line."""
    with _one_line("config"):
        yield parse_config("" if path is None else Path(path).read_text())


def _check_out(path: str) -> None:
    """End the run with one ``output error`` line, before any trial runs, if ``path`` cannot be opened to append to.

    A file the check creates is removed again.
    """
    with _one_line("output"):
        existed = os.path.lexists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


def _cmd_gen(args) -> int:
    with _config(args.config) as flat:
        vals = expand_config(flat, GEN_KEYS, seed=args.seed)[0]
        cfg = gen_config(vals, vals["seed"])
        instance = build_instance(cfg)
    with _one_line("output"):
        save_instance(instance, args.out)
    print(f"wrote instance: m={cfg.m} n={cfg.n} theta={cfg.theta} r={cfg.r} s={cfg.s} "
          f"seed={cfg.master_seed} -> {args.out}")
    return 0


def _cmd_solve(args) -> int:
    with _one_line("argument"):
        p = config_exponent(args.p)
    with _one_line("instance"):
        instance = load_instance(args.instance)
        # the container's instance as a stack of one
        arrays = (instance.A.blocks, instance.X.blocks, instance.x, instance.y, np.asarray(instance.X.planted_cols))
        (record,) = check_stack(*(a[None] for a in arrays), p)
        if record.error is not None:
            raise record.error
    result, cert = record.result, record.cert
    print(f"status: {result.status}")
    print(f"objective: {result.objective:.12g}")
    print(f"iterations: {result.iterations}")
    print(f"feasibility residual: {result.feas_residual:.3e}")
    print(f"duality gap: {result.duality_gap:.3e}")
    print(f"detected support (1-based): {[i + 1 for i in result.detected_support]}")
    print(f"certificate holds: {cert.holds} (margin {cert.margin:.6g}, injective {cert.injective})")
    print(f"recovery: {record.verdict}")
    return 0


def _cmd_oracle(args) -> int:
    with _one_line("argument"):
        p = config_exponent(args.p)
    with _one_line("instance"):
        instance = load_instance(args.instance)
        res = enumerate_selectors(instance, p)
    print(f"evaluated: {res.evaluated_count}  feasible: {res.feasible_count}")
    print(f"best objective: {res.best_objective:.12g}")
    print(f"best combos (1-based): {[tuple(k + 1 for k in combo) for combo in res.best_combos]}")
    print(f"unique: {res.unique}")
    return 0


def _cmd_sweep(args) -> int:
    jobs = _jobs(args.jobs)
    with _config(args.config) as flat:
        plan = build_sweep_plan(flat, seed=args.seed, trials=args.trials)
    _check_out(args.out)
    results = run_sweep(plan, jobs=jobs)
    with _one_line("output"):
        write_sweep_csv(results, args.out)
    errors = sum(r.n_error for r in results)
    print(f"wrote {len(results)} cells to {args.out} ({errors} trial errors)")
    return 0


def _cmd_compare(args) -> int:
    jobs = _jobs(args.jobs)
    with _config(args.config) as flat:
        cells = build_comparison_plan(flat, seed=args.seed, trials=args.trials)
    _check_out(args.out)
    with _one_line("trial"):  # a draw that fails, named by its cell and trial
        results = run_comparison(cells, jobs=jobs)
    with _one_line("output"):
        write_comparison_csv(results, args.out)
    for res in results:
        drift = abs(res.rate_relax - res.formula_exact)
        print(
            f"cell {res.cell.index}: theta={res.cell.gen.theta} r={res.cell.gen.r} "
            f"p_l={res.p_l:.4g} relax={res.rate_relax:.4f} bestof={res.rate_bestof:.4f} "
            f"formula={res.formula_exact:.4f} |relax-formula|={drift:.4f}"
        )
    print(f"wrote {len(results)} cells to {args.out}")
    return 0


def _cmd_replay(args) -> int:
    with _config(args.config) as flat:
        plan = build_sweep_plan(flat, seed=args.seed, trials=args.trials)
    with _one_line("argument"):  # a trial outside the plan is one no sweep of it draws
        if not 0 <= args.cell < len(plan.cells):
            raise ValueError(f"cell {args.cell} out of range (plan has {len(plan.cells)})")
        trials = plan.cells[args.cell].trials
        if not 0 <= args.trial < trials:
            raise ValueError(f"trial {args.trial} out of range (cell {args.cell} has {trials} trials)")
    with _one_line("config"):  # the trial's own error, as its sweep recorded it
        instance, result, cert, verdict = replay_trial(plan, args.cell, args.trial)
    if args.out:  # before any output, so a reader that stops early cannot lose the file
        with _one_line("output"):
            save_instance(instance, args.out)
    cfg = instance.config
    print(f"cell {args.cell} trial {args.trial}: seed={cfg.master_seed}")
    print(f"m={cfg.m} n={cfg.n} theta={cfg.theta} r={cfg.r} s={cfg.s} nu={cfg.nu:.6g}")
    print(f"support (1-based): {[i + 1 for i in instance.support.indices]}")
    print(f"planted cols (1-based): {[k + 1 for k in instance.X.planted_cols]}")
    print(f"status: {result.status}  objective: {result.objective:.12g}")
    print(f"certificate holds: {cert.holds} (margin {cert.margin:.6g})")
    print(f"recovery: {verdict}")
    if args.out:
        print(f"instance written to {args.out}")
    return 0


def _cmd_concentration(args) -> int:
    with _config(args.config) as flat:
        vals = expand_config(flat, CONCENTRATION_KEYS, lists=("epsilon", "delta"),
                             seed=args.seed, trials=args.trials)[0]
        check, seed, trials = vals["check"], vals["seed"], vals["trials"]
        if check != "vectorization":
            gen = gen_config(vals, seed)
            study = conc.ConcentrationStudy.from_config(gen)
    rows: list[list] = []
    failures = 0

    if check == "vectorization":
        rng = instance_generator(derive_seed(seed, "cli-vec"))
        for i in range(vals["count"]):
            a, b, cdim = (int(v) for v in rng.integers(1, 9, size=3))
            M = rng.standard_normal((a, b))
            R = rng.standard_normal((b, cdim))
            w = rng.standard_normal(cdim)
            dev = conc.vectorization_check(M, R, w)
            scale = 1.0 + np.linalg.norm(M) * np.linalg.norm(R) * np.linalg.norm(w)
            ok = dev <= 1e-12 * scale
            failures += 0 if ok else 1
            rows.append(["vectorization", i, format(dev, ".6g"), format(1e-12 * scale, ".6g"), int(ok)])
        header = ["check", "index", "deviation", "limit", "ok"]
    else:
        planted = Selector.discrete(study.planted_cols, gen.r, gen.theta)
        if check == "tail":
            for eps in vals["epsilon"]:
                est = conc.empirical_concentration_tail(study, planted, eps, trials, seed)
                rows.append(
                    ["tail", format(eps, ".6g"), est.trials, est.exceed_count,
                     format(est.frequency, ".6g"), format(est.bound, ".6g")]
                )
            header = ["check", "epsilon", "trials", "exceed", "frequency", "bound"]
        elif check == "mean":
            with _one_line("config"):  # fewer than 2 trials give no standard error
                mom = conc.empirical_image_moments(study, planted, trials, seed)
            rows.append(
                ["mean", format(mom.mean, ".10g"), format(mom.analytic_sq, ".10g"),
                 format(mom.std_error, ".4g"), format(mom.z_score, ".4g")]
            )
            header = ["check", "mc_mean", "analytic", "std_error", "z_score"]
            if abs(mom.z_score) > 4.0:
                failures += 1
        else:
            for d in vals["delta"]:
                est = conc.singular_window_check(study, d, trials, seed)
                rows.append(
                    ["window", format(d, ".6g"), est.trials, est.inside_count,
                     format(est.frequency, ".6g"), format(est.bound_floor, ".6g")]
                )
            header = ["check", "delta", "trials", "inside", "frequency", "bound_floor"]

    out = args.out or "-"
    if out == "-":  # a closed stdout is main's BrokenPipeError, not an output error
        write_csv(sys.stdout, header, rows)
    else:
        with _one_line("output"), open(out, "w", newline="") as fh:
            write_csv(fh, header, rows)
        print(f"wrote {len(rows)} rows to {out}")
    return 1 if failures else 0


def _cmd_reduce_x3c(args) -> int:
    with _one_line("argument"):
        triples = [config_numbers("triples", part) for part in args.triples.split(";")]
        inst = X3CInstance(m=args.m, triples=tuple(tuple(v - 1 for v in t) for t in triples))
        record = x3c_to_l0(inst, n=args.n, seed=args.seed or 0)
    decision = None
    if inst.m // 3 <= SUBSET_GUARD:
        decision = decide_x3c_via_l0(inst, n=args.n, seed=args.seed or 0)
        record = dataclasses.replace(
            record,
            extra={**record.extra, "oracle_value": inst.m // 3 if decision else "above-target",
                   "decision": str(decision).lower()},
        )
    with _one_line("output"):
        save_reduction(record, args.out)
    print(f"wrote reduction (target {record.certificate_target:g}) to {args.out}")
    if decision is not None:
        print(f"decision: {'cover exists' if decision else 'no exact cover'}")
    return 0


def _cmd_reduce_partition(args) -> int:
    with _one_line("argument"):
        inst = PartitionInstance(a=config_numbers("a", args.a, float))
        p = config_exponent(args.p)
        record = partition_to_lp(inst, theta=args.theta)
    decision = None
    if len(GRID) ** (2 * inst.m) <= GRID_GUARD:  # the grid oracle scans 2m columns
        decision = decide_partition_via_lp(inst, p=p, theta=args.theta)
        record = dataclasses.replace(
            record,
            extra={**record.extra, "oracle_value": inst.m if decision else "above-target",
                   "decision": str(decision).lower()},
        )
    with _one_line("output"):
        save_reduction(record, args.out)
    print(f"wrote reduction (target {record.certificate_target:g}) to {args.out}")
    if decision is not None:
        print(f"decision: {'partition exists' if decision else 'no partition'}")
    else:
        print("decision: skipped (grid oracle guard, too many weights)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blockrelax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, jobs=False, trials=False):
        sp.add_argument("--config", help="flat key = value config file")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--out", required=False, help="output path")
        if jobs:
            sp.add_argument("--jobs", type=int, default=None,
                            help="worker processes (default: BLOCKRELAX_JOBS or 1)")
        if trials:
            sp.add_argument("--trials", type=int, default=None, help="trials override")

    sp = sub.add_parser("gen", help="generate one instance container")
    add_common(sp)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("solve", help="solve an instance container")
    sp.add_argument("instance")
    sp.add_argument("--p", type=float, default=0.5)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("oracle", help="exhaustive selector enumeration of an instance")
    sp.add_argument("instance")
    sp.add_argument("--p", type=float, default=0.5)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("sweep", help="grid sweep: solve + certificate rates per cell")
    add_common(sp, jobs=True, trials=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("compare", help="relaxation vs repeated guessing, with formulas")
    add_common(sp, jobs=True, trials=True)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("concentration", help="Monte Carlo concentration checks")
    add_common(sp, trials=True)
    sp.set_defaults(func=_cmd_concentration)

    sp = sub.add_parser("reduce-x3c", help="exact cover -> sparsest solution reduction")
    sp.add_argument("--m", type=int, required=True, help="ground set size (multiple of 3)")
    sp.add_argument("--triples", required=True, help="e.g. '1,2,3;4,5,6' (1-based)")
    sp.add_argument("--n", type=int, default=2, help="columns per block")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_reduce_x3c)

    sp = sub.add_parser("reduce-partition", help="number partition -> power objective reduction")
    sp.add_argument("--a", required=True, help="comma-separated positive weights")
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--theta", type=int, default=2)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_reduce_partition)

    sp = sub.add_parser("replay", help="re-run one sweep trial from its coordinates")
    add_common(sp, trials=True)
    sp.add_argument("--cell", type=int, required=True)
    sp.add_argument("--trial", type=int, required=True)
    sp.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    for req in ("gen", "sweep", "compare"):
        if args.command == req and getattr(args, "out", None) is None:
            parser.error(f"--out is required for {req}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early; aim it at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
