"""Acceptance gate: one test per shipped guarantee, one verdict line each.

The corpora here run at the scale the guarantees are stated for (hundreds of
planted instances, exhaustive reduction grids, 10^4-trial Monte Carlo), all
seeded so reruns are bit-reproducible.  Statistical checks hard-fail beyond
4 sigma and only warn between 3 and 4 sigma; every other check is exact up
to the stated tolerance.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from lp_reference import min_weighted_l1

from blockrelax.bounds import (
    complement_power,
    limit_ratio,
    success_prob_block_relaxation,
    success_prob_repeated_trials,
)
from blockrelax.concentration import (
    ConcentrationStudy,
    block_norm_bound_check,
    empirical_image_moments,
    vectorization_check,
)
from blockrelax.generate import GenConfig, build_instance, derive_seed
from blockrelax.model import Selector, apply_selector
from blockrelax.oracle import enumerate_selectors
from blockrelax.reductions import (
    PartitionInstance,
    X3CInstance,
    decide_partition_via_lp,
    decide_x3c_via_l0,
    has_exact_cover,
    has_partition,
)
from blockrelax.solver import (
    SolveOptions,
    certificate_for_instance,
    recovery_check,
    solve_instance,
    solve_weighted_bp,
)
from blockrelax.sweep import (
    _support_to_combo,
    build_comparison_plan,
    build_sweep_plan,
    parse_config,
    run_comparison,
    run_sweep,
    write_sweep_csv,
)

ACCEPT_SEED = 20260813
P = 0.5
OPTS = SolveOptions()

CORPUS_GRID = list(itertools.product((16, 32), (2, 4), (4, 8), (2, 4, 8)))
CORPUS_TRIALS = 21  # 24 cells x 21 = 504 instances

CORPUS_SWEEP_CFG = """m = 16
m = 32
theta = 2
theta = 4
s = 4
s = 8
r = 2
r = 4
r = 8
guess_density = s/n
"""


def verdict(label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[accept] {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{label}: {detail}"


class CorpusReport:
    def __init__(self):
        self.n_instances = 0
        self.n_certified = 0
        self.n_oracle_checked = 0
        self.exact_violations = []
        self.oracle_violations = []
        self.solve_elapsed = 0.0
        self.oracle_elapsed = 0.0


@pytest.fixture(scope="session")
def corpus_report() -> CorpusReport:
    """Solve and certify the full planted corpus once; criteria share it."""
    rep = CorpusReport()
    for ci, (m, theta, s, r) in enumerate(CORPUS_GRID):
        for t in range(CORPUS_TRIALS):
            gen = GenConfig(
                m=m, n=m, theta=theta, r=r, s=s, guess_density=s / m,
                master_seed=derive_seed(derive_seed(ACCEPT_SEED, "cell", ci), "trial", t),
            )
            t0 = time.perf_counter()
            inst = build_instance(gen)
            res = solve_instance(inst, P, OPTS)
            cert = certificate_for_instance(inst, P)
            rep.solve_elapsed += time.perf_counter() - t0
            rep.n_instances += 1
            if not cert.holds:
                continue
            rep.n_certified += 1
            x_hat = apply_selector(inst.X, res.z)
            err = float(np.max(np.abs(x_hat - inst.x)))
            if recovery_check(inst, res) != "exact" or err > 1e-6:
                rep.exact_violations.append((ci, t, err))
            if r**theta <= 4096:
                t0 = time.perf_counter()
                orc = enumerate_selectors(inst, P)
                rep.oracle_elapsed += time.perf_counter() - t0
                rep.n_oracle_checked += 1
                planted = tuple(int(k) for k in inst.X.planted_cols)
                combo = _support_to_combo(res.detected_support, r, theta)
                if not (orc.unique and orc.best_combos[0] == planted == combo):
                    rep.oracle_violations.append((ci, t))
    return rep


def test_01_certificate_implies_exact_recovery(corpus_report):
    rep = corpus_report
    assert rep.n_instances == len(CORPUS_GRID) * CORPUS_TRIALS >= 500
    ok = not rep.exact_violations and rep.solve_elapsed <= 300.0
    verdict(
        "01 certificate soundness",
        ok,
        f"{rep.n_certified}/{rep.n_instances} certified, "
        f"{len(rep.exact_violations)} violations, {rep.solve_elapsed:.1f}s",
    )


def test_02_certificate_matches_enumeration_oracle(corpus_report):
    rep = corpus_report
    assert rep.n_oracle_checked == rep.n_certified  # r^theta <= 4096 on the whole grid
    verdict(
        "02 oracle equivalence",
        not rep.oracle_violations,
        f"{rep.n_oracle_checked} certified instances enumerated, "
        f"{len(rep.oracle_violations)} mismatches, {rep.oracle_elapsed:.1f}s",
    )


def test_03_solver_matches_lp_vertex_oracle():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        R = int(rng.integers(m, 13))
        B = rng.standard_normal((m, R))
        w = rng.uniform(0.2, 2.0, size=R)
        z_feas = rng.standard_normal(R) * (rng.random(R) < 0.6)
        y = B @ z_feas
        res = solve_weighted_bp(B, w, y, OPTS)
        ref_obj, _ = min_weighted_l1(B, w, y)
        worst = max(worst, abs(res.objective - ref_obj) / max(ref_obj, 1e-12))
    verdict("03 convex solver optimality", worst <= 1e-6, f"worst rel err {worst:.3e}")


def test_04_mc_image_mean_matches_ensemble_norm():
    flags = []
    worst = 0.0
    for theta in (1, 4):
        cfg = GenConfig(m=12, n=12, theta=theta, r=4, s=3, guess_density=0.25, master_seed=31)
        study = ConcentrationStudy.from_config(cfg)
        rng = np.random.default_rng(derive_seed(ACCEPT_SEED, "u", theta))
        z_planted = np.zeros(4 * theta)
        for l, k in enumerate(study.planted_cols):
            z_planted[l * 4 + k] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        cases = (
            ("planted", Selector(z=z_planted, r=4, theta=theta)),
            ("generic", Selector(z=rng.standard_normal(4 * theta), r=4, theta=theta)),
        )
        for name, u in cases:
            mom = empirical_image_moments(
                study, u, trials=10_000, seed=derive_seed(ACCEPT_SEED, name, theta)
            )
            z = abs(mom.z_score)
            worst = max(worst, z)
            if z > 3.0:
                flags.append(f"theta={theta} {name} z={mom.z_score:+.2f}")
    for flag in flags:
        print(f"[accept] 04 FLAG beyond 3 sigma: {flag}")
    verdict("04 concentration mean", worst <= 4.0, f"worst |z| {worst:.2f}, {len(flags)} flags")


def test_05_vectorization_identity():
    rng = np.random.default_rng(derive_seed(ACCEPT_SEED, "vec", 0))
    worst = 0.0
    for _ in range(100):
        a, b, c = (int(v) for v in rng.integers(1, 13, size=3))
        M = rng.standard_normal((a, b))
        R = rng.standard_normal((b, c))
        w = rng.standard_normal(c)
        scale = 1.0 + np.linalg.norm(M) * np.linalg.norm(R) * np.linalg.norm(w)
        worst = max(worst, vectorization_check(M, R, w) / scale)
    verdict("05 vectorization identity", worst <= 1e-12, f"worst scaled dev {worst:.3e}")


def test_06_block_norm_bound():
    rng = np.random.default_rng(derive_seed(ACCEPT_SEED, "blocknorm", 0))
    worst = math.inf
    for _ in range(100):
        theta = int(rng.integers(1, 6))
        m = int(rng.integers(1, 9))
        blocks = [rng.standard_normal((m, int(rng.integers(1, 7)))) for _ in range(theta)]
        _, _, slack = block_norm_bound_check(blocks)
        worst = min(worst, slack)
    verdict("06 block norm bound", worst >= -1e-9, f"min slack {worst:.3e}")


def test_07_limit_lemmas():
    err_k12 = abs(limit_ratio(10.0**-12, 10.0**-6) - 1.0)
    # p/q -> inf branch: (1 - p)^(1/q) must die out by the end of the grid
    final = complement_power(10.0**-8, 10.0**-16)
    ok = err_k12 <= 1e-3 and final <= 1e-6
    verdict("07 limit lemmas", ok, f"|ratio-1|={err_k12:.3e} at k=12, tail={final:.3e}")


def test_08_np_reduction_deciders_match_brute_force():
    t0 = time.perf_counter()
    pool = [(0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5), (0, 2, 4), (1, 3, 5), (1, 2, 3), (0, 4, 5)]
    n_x3c = x3c_bad = 0
    for size in range(1, 5):
        for chosen in itertools.combinations(pool, size):
            inst = X3CInstance(m=6, triples=tuple(chosen))
            n_x3c += 1
            if decide_x3c_via_l0(inst) != has_exact_cover(inst):
                x3c_bad += 1
    n_part = part_bad = 0
    for m in range(1, 5):
        for a in itertools.product((1, 2, 3, 4), repeat=m):
            inst = PartitionInstance(a=a)
            n_part += 1
            if decide_partition_via_lp(inst) != has_partition(inst):
                part_bad += 1
    elapsed = time.perf_counter() - t0
    assert n_x3c == 162 and n_part == 340
    ok = x3c_bad == 0 and part_bad == 0 and elapsed <= 600.0
    verdict(
        "08 np reduction deciders",
        ok,
        f"x3c {n_x3c} insts {x3c_bad} bad, partition {n_part} insts {part_bad} bad, {elapsed:.1f}s",
    )


def test_09_comparison_rates_and_formula_identity():
    cfg = parse_config("m = 4\ns = 2\ntheta = 1\nr = 2\nr = 4\nguess_density = 0.5\n")
    cells = build_comparison_plan(cfg, seed=ACCEPT_SEED, trials=1500)
    details = []
    ok = True
    for res in run_comparison(cells):
        gap = abs(res.rate_relax - res.rate_bestof)
        ok = ok and gap <= 3.0 * res.sigma_joint
        details.append(
            f"r={res.cell.gen.r} gap={gap:.4f} vs 3sig={3 * res.sigma_joint:.4f}"
        )
    worst_id = 0.0
    for p in (0.0, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0):
        for r in (1, 2, 4, 8):
            lhs = success_prob_block_relaxation(p, r, theta=1, p_select=1.0)
            rhs = success_prob_repeated_trials(p, r)
            worst_id = max(worst_id, abs(lhs - rhs))
    ok = ok and worst_id <= 1e-12
    verdict(
        "09 comparison consistency",
        ok,
        "; ".join(details) + f"; formula identity dev {worst_id:.1e}",
    )


def test_10_sweep_csv_independent_of_jobs(tmp_path):
    plan = build_sweep_plan(parse_config(CORPUS_SWEEP_CFG), seed=ACCEPT_SEED, trials=CORPUS_TRIALS)
    assert len(plan.cells) == len(CORPUS_GRID)
    stripped = {}
    for jobs in (1, 2, 8):
        path = os.path.join(tmp_path, f"sweep-jobs{jobs}.csv")
        write_sweep_csv(run_sweep(plan, jobs=jobs), path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        stripped[jobs] = [ln.rsplit(",", 1)[0] for ln in lines]  # drop wall_time
    ok = stripped[1] == stripped[2] == stripped[8] and len(stripped[1]) == len(CORPUS_GRID) + 2
    verdict("10 parallel determinism", ok, f"{len(stripped[1]) - 2} rows compared")


def test_11_certificate_rate_nondecreasing_in_sparsity():
    trials = 300
    rates = []
    for ci, s in enumerate((4, 8, 16)):
        k = 0
        for t in range(trials):
            gen = GenConfig(
                m=64, n=64, theta=4, r=4, s=s, guess_density=s / 64,
                master_seed=derive_seed(derive_seed(ACCEPT_SEED, "trend-cell", ci), "trial", t),
            )
            inst = build_instance(gen)
            k += int(certificate_for_instance(inst, P).holds)
        rates.append(k / trials)
    inversions = []
    for lo, hi in zip(rates, rates[1:]):
        if hi < lo:
            sig = math.sqrt((lo * (1 - lo) + hi * (1 - hi)) / trials)
            inversions.append((lo - hi, 3.0 * sig))
    ok = len(inversions) <= 1 and all(drop <= bound for drop, bound in inversions)
    verdict(
        "11 sparsity trend",
        ok,
        f"rates {[f'{v:.3f}' for v in rates]}, {len(inversions)} inversions",
    )


def test_12_larger_reduction_deciders_match_brute_force():
    t0 = time.perf_counter()
    pool = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 4, 8), (2, 4, 6)]
    n_x3c = x3c_bad = n_cover = 0
    for size in (3, 4, 5):
        for chosen in itertools.combinations(pool, size):
            inst = X3CInstance(m=9, triples=chosen)
            truth = has_exact_cover(inst)
            n_x3c += 1
            n_cover += int(truth)
            x3c_bad += int(decide_x3c_via_l0(inst) != truth)
    n_part = part_bad = 0
    for a in itertools.combinations_with_replacement((1, 2, 3), 5):
        inst = PartitionInstance(a=a)
        n_part += 1
        part_bad += int(decide_partition_via_lp(inst) != has_partition(inst))
    elapsed = time.perf_counter() - t0
    assert (n_x3c, n_cover, n_part) == (182, 32, 21)
    ok = x3c_bad == 0 and part_bad == 0 and elapsed <= 600.0
    verdict(
        "12 larger reduction deciders",
        ok,
        f"x3c m=9 {n_x3c} insts ({n_cover} covers) {x3c_bad} bad, "
        f"partition m=5 {n_part} insts {part_bad} bad, {elapsed:.1f}s",
    )
