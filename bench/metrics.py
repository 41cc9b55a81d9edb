"""Per-layer metrics of a traced run, computed from its spans and checks."""

from __future__ import annotations

from collections import defaultdict

from spans import BENCH_LAYER, LAYERS
from stats import median, tail


def _p50(values, scale: float) -> float:
    return median(values) * scale if values else 0.0


def _tail(values, scale: float) -> float:
    return tail(values)[0] * scale if values else 0.0


def layer_values(tracer, chk, runs, pooled, base, traced) -> dict:
    """Name -> value for every per-layer metric.

    ``pooled`` is the untraced jobs=2 corpus run (None elsewhere), ``base`` the
    untraced run with the traced run's jobs, ``traced`` the traced run.  A
    metric of a layer the workload does not call reads 0.
    """
    spans = tracer.spans
    own = tracer.self_times()
    dur = defaultdict(list)  # "layer.fn" -> durations
    self_by = defaultdict(list)  # "layer.fn" -> self times
    info = defaultdict(list)  # "layer.fn" -> info dicts
    layer_self = defaultdict(float)
    root_total = 0.0
    for s, t_self in zip(spans, own):
        key = f"{s[0]}.{s[1]}"
        dur[key].append(s[3] - s[2])
        self_by[key].append(t_self)
        if s[6] is not None:
            info[key].append(s[6])
        layer_self[s[0]] += t_self
        if s[4] < 0:
            root_total += s[3] - s[2]

    solves = info["solver.solve_weighted_bp"]
    iters = [d["iterations"] for d in solves]
    grid_points = sum(d["points"] for d in info["oracle.discrete_lp_oracle"])
    comparison = [
        d / i["trials"] for d, i in zip(dur["sweep.run_comparison"], info["sweep.run_comparison"])
    ]
    v = {
        "generate.build_instance_ms": _p50(dur["generate.build_instance"], 1e3),
        "generate.sample_guess_ensemble_us": _p50(dur["generate.sample_guess_ensemble"], 1e6),
        "model.effective_matrix_us": _p50(dur["model.effective_matrix"], 1e6),
        "solver.solve_ms_p50": _p50(dur["solver.solve_weighted_bp"], 1e3),
        "solver.solve_ms_p99": _tail(dur["solver.solve_weighted_bp"], 1e3),
        "solver.iterations_p50": _p50(iters, 1),
        "solver.iterations_p99": _tail(iters, 1),
        "solver.iterations_total": sum(iters),
        "solver.certificate_us": _p50(dur["solver.certificate_for_instance"], 1e6),
        "solver.recovery_check_us": _p50(dur["solver.recovery_check"], 1e6),
        "solver.optimal_frac": sum(d["status"] == "optimal" for d in solves) / len(solves) if solves else 0.0,
        "solver.injective_frac": chk.ratios["injective"],
        "solver.certified_frac": chk.ratios["certified"],
        "solver.exact_frac": chk.ratios["exact"],
        "oracle.grid_ms": _p50(dur["oracle.discrete_lp_oracle"], 1e3),
        "oracle.grid_points": grid_points,
        "oracle.grid_points_per_s": grid_points / sum(dur["oracle.discrete_lp_oracle"]) if grid_points else 0.0,
        "oracle.enumerate_ms": _p50(dur["oracle.enumerate_selectors"], 1e3),
        "oracle.selectors_evaluated": sum(d["points"] for d in info["oracle.enumerate_selectors"]),
        "oracle.l0_ms": _p50(dur["oracle.l0_min_oracle"], 1e3),
        "oracle.l0_subsets": sum(d["subsets"] for d in info["oracle.l0_min_oracle"]),
        "reductions.build_us": _p50(dur["reductions.x3c_to_l0"] + dur["reductions.partition_to_lp"], 1e6),
        "reductions.decide_self_us": _p50(
            self_by["reductions.decide_x3c_via_l0"] + self_by["reductions.decide_partition_via_lp"], 1e6
        ),
        "concentration.redraw_us": _p50(dur["concentration.redraw"], 1e6),
        "concentration.image_sq_norm_us": _p50(dur["concentration.image_sq_norm"], 1e6),
        "bounds.spectral_norm_ms": _p50(dur["bounds.spectral_norm"], 1e3),
        "bounds.ensemble_norm_weights_us": _p50(dur["bounds.ensemble_norm_weights"], 1e6),
        "sweep.write_csv_ms": _p50(dur["sweep.write_sweep_csv"], 1e3),
        "sweep.build_plan_ms": _p50(dur["sweep.build_sweep_plan"] + dur["sweep.build_comparison_plan"], 1e3),
        "sweep.comparison_trial_us": _p50(comparison, 1e6),
        "storage.save_ms": _p50(dur["storage.save_instance"], 1e3),
        "storage.load_ms": _p50(dur["storage.load_instance"], 1e3),
        "storage.bytes": _p50([d["bytes"] for d in info["storage.save_instance"]], 1),
        "trace.overhead_frac": base.items_per_s / traced.items_per_s - 1.0,
        "bench.failed_frac": (sum(r.failed for r in runs) + chk.failed) / sum(r.items for r in runs),
    }
    # the pool figures come from the untraced jobs=2 and jobs=1 corpus runs
    if pooled is not None:
        jobs = pooled.extra["jobs"]
        summed = sum(pooled.extra["summed_trial_s"])
        v["sweep.run_sweep_s"] = median(pooled.extra["sweep_s"])
        v["sweep.summed_trial_s"] = median(pooled.extra["summed_trial_s"])
        v["sweep.pool_eff"] = summed / (jobs * sum(pooled.extra["sweep_s"]))
        v["sweep.trial_inflation"] = (summed / pooled.items) / (sum(base.extra["summed_trial_s"]) / base.items)
    else:
        for k in ("sweep.run_sweep_s", "sweep.summed_trial_s", "sweep.pool_eff", "sweep.trial_inflation"):
            v[k] = 0.0
    # self time per layer over all root spans: the shares sum to 1
    for layer in LAYERS + (BENCH_LAYER,):
        v[f"{layer}.self_share"] = layer_self[layer] / root_total if root_total else 0.0
    return v
