import dataclasses

import numpy as np
import pytest

from blockrelax.generate import GenConfig, build_instance, derive_seed
from blockrelax.model import effective_matrix, solver_weights
from blockrelax.solver import (
    TOL_FEAS,
    TOL_OPT,
    SolveOptions,
    SolveResult,
    certificate_for_instance,
    check_stack,
    kkt_certificate,
    recovery_check,
    recovery_stack,
    selected_columns,
    solve_instance,
    solve_weighted_bp,
)

from lp_reference import min_weighted_l1


def test_two_column_pick_cheaper():
    B = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    res = solve_weighted_bp(B, np.array([1.0, 2.0]), y)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.z, [1.0, 0.0], atol=1e-8)
    assert res.objective == pytest.approx(1.0, abs=1e-8)
    assert res.detected_support == (0,)

    res2 = solve_weighted_bp(B, np.array([2.0, 1.0]), y)
    np.testing.assert_allclose(res2.z, [0.0, 1.0], atol=1e-8)
    assert res2.objective == pytest.approx(1.0, abs=1e-8)


def test_zero_rhs_returns_zero():
    # wide B and injective tall B alike
    for shape in ((3, 5), (6, 3)):
        B = np.random.default_rng(0).standard_normal(shape)
        res = solve_weighted_bp(B, np.ones(shape[1]), np.zeros(shape[0]))
        assert res.status == "optimal"
        assert res.objective == 0.0
        assert res.detected_support == ()
        assert res.iterations == 0
        assert np.array_equal(res.z, np.zeros(shape[1]))


def test_small_rhs_meets_the_feasibility_bound():
    # every |y_i| = 5e-9 is below TOL_FEAS = 1e-8, but ||y|| = 2e-8 is above
    # TOL_FEAS * (1 + ||y||), so z = 0 is not feasible to tolerance
    rng = np.random.default_rng(3)
    B = rng.standard_normal((16, 24))
    y = np.full(16, 5e-9)
    res = solve_weighted_bp(B, np.ones(24), y)
    assert res.status == "optimal"
    assert res.feas_residual <= TOL_FEAS * (1.0 + np.linalg.norm(y))
    assert res.detected_support


def test_infeasible_rhs_flagged():
    # both B are injective, so y outside their range has no feasible point
    rng = np.random.default_rng(4)
    cases = (
        (np.array([[1.0], [0.0]]), np.array([0.0, 1.0])),
        (rng.standard_normal((6, 3)), rng.standard_normal(6)),
    )
    for B, y in cases:
        res = solve_weighted_bp(B, np.ones(B.shape[1]), y)
        assert res.status == "infeasible"
        assert res.iterations == 0
        assert res.duality_gap == np.inf


def test_input_validation():
    B = np.ones((2, 3))
    with pytest.raises(ValueError, match="strictly positive"):
        solve_weighted_bp(B, np.array([1.0, 0.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError, match="shape"):
        solve_weighted_bp(B, np.ones(2), np.ones(2))


def test_solution_covariant_in_rhs_scale():
    rng = np.random.default_rng(42)
    B = rng.standard_normal((4, 9))
    w = rng.uniform(0.5, 2.0, size=9)
    z0 = np.zeros(9)
    z0[[1, 6]] = [1.5, -2.0]
    y = B @ z0
    base = solve_weighted_bp(B, w, y)
    for lam in (7.0, 1e-3):
        scaled = solve_weighted_bp(B, w, lam * y)
        assert scaled.status == "optimal"
        np.testing.assert_allclose(scaled.z, lam * base.z, rtol=1e-6, atol=1e-9 * lam)


def test_matches_reference_on_random_programs():
    rng = np.random.default_rng(7)
    for trial in range(30):
        m = int(rng.integers(2, 6))
        R = int(rng.integers(m + 1, 11))
        B = rng.standard_normal((m, R))
        w = rng.uniform(0.5, 2.0, size=R)
        z0 = np.zeros(R)
        supp = rng.choice(R, size=int(rng.integers(1, m + 1)), replace=False)
        z0[supp] = rng.standard_normal(supp.size)
        y = B @ z0
        res = solve_weighted_bp(B, w, y)
        ref_obj, _ = min_weighted_l1(B, w, y)
        assert res.status == "optimal", f"trial {trial}: status {res.status}"
        assert_solves(B, y, res, ref_obj)


def test_max_iter_reports_best_iterate():
    # the step cap is the only route to 'max-iter'; the last iterate is reported
    rng = np.random.default_rng(1)
    B = rng.standard_normal((5, 12))
    w = rng.uniform(0.5, 2.0, size=12)
    y = B @ rng.standard_normal(12)
    for cap in (1, 2):
        res = solve_weighted_bp(B, w, y, SolveOptions(max_iter=cap))
        assert res.status == "max-iter"
        assert res.iterations == cap
        assert res.z.shape == (12,)
        assert np.isfinite(res.objective)


def test_step_cap_is_the_only_option():
    # the tolerances are module constants, shared with the exhaustive oracles
    assert [f.name for f in dataclasses.fields(SolveOptions)] == ["max_iter"]
    assert TOL_FEAS == TOL_OPT == 1e-8


def test_certificate_margin_boundary():
    B = np.array([[1.0, 1.0]])
    # dual h = 1 saturates the off column: margin 0, certificate must refuse
    flat = kkt_certificate(B, np.array([1.0, 1.0]), [0])
    assert flat.injective
    assert flat.margin == pytest.approx(0.0, abs=1e-12)
    assert not flat.holds
    # off-column weight 2 leaves slack 1
    ok = kkt_certificate(B, np.array([1.0, 2.0]), [0])
    assert ok.holds
    assert ok.margin == pytest.approx(1.0, abs=1e-12)


def test_certificate_rejects_dependent_support():
    B = np.array([[1.0, 1.0], [0.0, 0.0]])
    res = kkt_certificate(B, np.array([1.0, 1.0]), [0, 1])
    assert not res.injective
    assert not res.holds


def test_certificate_rejects_out_of_range_support():
    B = np.eye(3)
    for bad in ([3], [-1]):
        with pytest.raises(ValueError, match="support indices"):
            kkt_certificate(B, np.ones(3), bad)


def test_certificate_empty_support():
    B = np.eye(3)
    res = kkt_certificate(B, np.array([2.0, 3.0, 4.0]), [])
    assert res.holds
    assert res.margin == pytest.approx(2.0)


def test_certificate_scales_with_duplicate_column():
    # duplicated column with equal weight: margin exactly 0 either way
    B = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = kkt_certificate(B, np.array([1.0, 1.0]), [0])
    assert res.margin == pytest.approx(0.0, abs=1e-12)
    assert not res.holds


def test_certificate_soundness_on_planted_instances():
    # whenever the planted certificate holds the solver must land exactly there
    hits = 0
    for seed in range(25):
        cfg = GenConfig(m=12, n=12, theta=2, r=3, s=4, master_seed=seed)
        inst = build_instance(cfg)
        cert = certificate_for_instance(inst, p=0.5)
        if not cert.holds:
            continue
        hits += 1
        res = solve_instance(inst, p=0.5)
        assert res.status == "optimal"
        assert recovery_check(inst, res) == "exact"
    assert hits >= 5, f"certificate held on only {hits}/25 seeds; fixture too weak"


def test_recovery_check_classification():
    cfg = GenConfig(m=10, n=10, theta=2, r=2, s=3, master_seed=3)
    inst = build_instance(cfg)
    res = solve_instance(inst, p=0.5)
    verdict = recovery_check(inst, res)
    assert verdict in ("exact", "support-match", "fail")
    if verdict == "exact":
        planted = set(int(i) for i in inst.X.planted_global_cols())
        assert set(res.detected_support) == planted


def test_solver_weights_drive_selection():
    # same constraint, heavier planted weight: solution moves off the planted column
    B = np.array([[1.0, 0.5]])
    y = np.array([1.0])
    res = solve_weighted_bp(B, np.array([1.0, 1.0]), y)
    np.testing.assert_allclose(res.z, [1.0, 0.0], atol=1e-8)
    res = solve_weighted_bp(B, np.array([5.0, 1.0]), y)
    np.testing.assert_allclose(res.z, [0.0, 2.0], atol=1e-8)


# -- differential tests against exact references ------------------------------

# (m, theta, s, r) with m < r*theta: B is never injective
UNDERDETERMINED_CELLS = ((16, 4, 4, 8), (16, 4, 4, 16), (32, 8, 4, 8), (32, 8, 8, 8), (16, 2, 4, 16), (32, 4, 8, 16))
# m >= r*theta: B is injective and the feasible set is one point
INJECTIVE_CELLS = ((16, 2, 4, 2), (16, 2, 8, 4), (16, 4, 4, 2), (32, 4, 8, 4), (32, 2, 4, 8), (32, 4, 8, 8))


def _program(cell, seed):
    m, theta, s, r = cell
    inst = build_instance(GenConfig(m=m, n=m, theta=theta, r=r, s=s, guess_density=s / m, master_seed=seed))
    return effective_matrix(inst.A, inst.X), solver_weights(inst.X, 0.5), inst.y


def highs_objective(B, w, y):
    """Optimum of the split form min w.(z+ + z-) s.t. B z+ - B z- = y, z+-, z- >= 0."""
    from scipy.optimize import linprog

    lp = linprog(np.concatenate([w, w]), A_eq=np.hstack([B, -B]), b_eq=y, bounds=(0, None), method="highs")
    assert lp.status == 0, lp.message
    return lp.fun


def assert_solves(B, y, res, ref_obj, rel=1e-12):
    assert np.linalg.norm(B @ res.z - y) <= 1e-8 * (1.0 + np.linalg.norm(y))
    assert abs(res.objective - ref_obj) <= rel * abs(ref_obj)


@pytest.mark.parametrize("cell", UNDERDETERMINED_CELLS)
def test_matches_highs_on_underdetermined_cells(cell):
    for seed in range(4):
        B, w, y = _program(cell, seed)
        assert np.linalg.matrix_rank(B) < B.shape[1]
        res = solve_weighted_bp(B, w, y)
        assert res.status == "optimal"
        assert_solves(B, y, res, highs_objective(B, w, y))


def test_solves_the_trial_admm_left_at_max_iter():
    # cell 1, trial 36 of the underdetermined benchmark at master seed 1: ADMM
    # stopped at max-iter there after 8125 iterations with objective 12.9777
    m, theta, s, r = UNDERDETERMINED_CELLS[1]
    cfg = GenConfig(
        m=m, n=m, theta=theta, r=r, s=s, guess_density=s / m,
        master_seed=derive_seed(derive_seed(1, "cell", 1), "trial", 36),
    )
    inst = build_instance(cfg)
    B, w = effective_matrix(inst.A, inst.X), solver_weights(inst.X, 0.5)
    res = solve_weighted_bp(B, w, inst.y)
    assert res.status == "optimal"
    assert_solves(B, inst.y, res, highs_objective(B, w, inst.y))


@pytest.mark.parametrize("cell", INJECTIVE_CELLS)
def test_injective_b_returns_its_only_feasible_point(cell):
    for seed in range(3):
        B, w, y = _program(cell, seed)
        assert np.linalg.matrix_rank(B) == B.shape[1]
        res = solve_weighted_bp(B, w, y)
        z_ls = np.linalg.lstsq(B, y, rcond=None)[0]
        assert res.status == "optimal"
        assert np.abs(res.z - z_ls).max() <= 1e-12 * np.abs(z_ls).max()
        assert abs(res.duality_gap) <= TOL_OPT * (1.0 + abs(res.objective))
        assert np.linalg.norm(B @ res.z - y) <= TOL_FEAS * (1.0 + np.linalg.norm(y))


def test_matches_lp_reference_on_ill_conditioned_injective_b():
    # condition number 3e9, rank still full at the 1e-10 cutoff.  Rounding in
    # y = B z0 moves the optimum at about 1e-11 here, and the reference accepts
    # any subset fit within its feasibility tolerance 1e-9 (on seed 2 it lands
    # 4.7e-11 below w.|z0|), so objectives are compared at that tolerance.
    for seed in range(12):
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((8, 5)))[0]
        V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        B = U @ np.diag(np.geomspace(1.0, 1.0 / 3e9, 5)) @ V.T
        w = rng.uniform(0.5, 2.0, size=5)
        y = B @ np.array([1.0, 0.0, 0.0, -2.0, 0.0])
        res = solve_weighted_bp(B, w, y)
        assert res.status == "optimal", f"seed {seed}"
        assert_solves(B, y, res, min_weighted_l1(B, w, y)[0], rel=1e-9)


# -- degenerate inputs ---------------------------------------------------------


def test_duplicated_column_returns_the_lower_index():
    # b3 = b1 at equal weight: every split of z1 + z3 = 1 is optimal, and the
    # walk returns the vertex on the lower column
    B = np.array([[1.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 1.0]])
    res = solve_weighted_bp(B, np.array([1.0, 1.5, 1.0, 1.5]), np.array([1.0, 1.0]))
    assert res.status == "optimal"
    assert res.detected_support == (1,)
    np.testing.assert_allclose(res.z, [0.0, 1.0, 0.0, 0.0], rtol=0, atol=1e-15)
    assert res.objective == pytest.approx(1.5, rel=1e-12)


def test_zero_column_never_enters():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((4, 9))
    B[:, 5] = 0.0
    w = rng.uniform(0.5, 2.0, size=9)
    y = B @ rng.standard_normal(9)
    res = solve_weighted_bp(B, w, y)
    assert res.status == "optimal"
    assert res.z[5] == 0.0
    assert_solves(B, y, res, min_weighted_l1(B, w, y)[0])


def test_rank_deficient_wide_b_out_of_range_is_infeasible():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((4, 8))
    B[3] = B[0] + B[1]  # rank 3 < m
    y = rng.standard_normal(4)
    res = solve_weighted_bp(B, np.ones(8), y)
    assert res.status == "infeasible"
    assert res.iterations == 0
    assert res.duality_gap == np.inf
    np.testing.assert_allclose(res.z, np.linalg.lstsq(B, y, rcond=None)[0], rtol=1e-12, atol=1e-12)


def test_rank_deficient_square_b_iterates():
    # m >= R, but a duplicated column drops rank(B) below R
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 4))
    B[:, 3] = B[:, 1]
    w = np.array([1.0, 1.5, 0.8, 1.2])
    y = B @ np.array([1.0, 0.0, -0.5, 0.0])
    res = solve_weighted_bp(B, w, y)
    assert np.linalg.matrix_rank(B) == 3
    assert res.iterations > 0
    assert res.status == "optimal"
    assert res.detected_support == (0, 2)
    np.testing.assert_allclose(res.z, [1.0, 0.0, -0.5, 0.0], atol=1e-8)


# -- which column a solve selects ------------------------------------------------


def test_selected_columns_reads_one_column_per_block():
    # theta = 2 blocks of r = 3 columns: global columns 0-2 and 3-5
    def solved(support):
        z = np.zeros(6)
        z[list(support)] = 1.0
        return SolveResult(z=z, objective=float(len(support)), status="optimal", iterations=0,
                           feas_residual=0.0, duality_gap=0.0, detected_support=support)

    results = [solved((1, 5)), solved((0, 3)), solved((0, 1, 5)), solved((4,)), solved((1, 2)), solved(()),
               ValueError("weights must be strictly positive")]
    assert selected_columns(results, 3, 2).tolist() == [[1, 2], [0, 0]] + [[-1, -1]] * 5
    assert selected_columns([], 3, 2).shape == (0, 2)
    # a program that raised selects nothing, so it fails recovery; a selection of other columns fails too
    X = np.ones((3, 2, 1, 3))
    x, planted = np.ones((3, 2)), np.array([[1, 5]] * 3)
    assert recovery_stack(X, x, planted, [results[0], results[1], results[-1]]) == ["exact", "fail", "fail"]


def test_duplicate_of_the_planted_column_fails_recovery_but_selects_x():
    # theta = 1, A = I_3, x = (1, -1, 0): the guess block holds x at the planted
    # column 1 and again at column 0.  The two tie, and Bland's rule takes
    # column 0: recovery, which asks for the planted column, says 'fail', and
    # compare's rule, a selected column equal to x, counts a hit
    x = np.array([[1.0, -1.0, 0.0]])
    X = np.stack([x, x], axis=-1)[:, None]  # (1, 1, 3, 2)
    (record,) = check_stack(np.eye(3)[None, None], X, x, x, np.array([[1]]), 0.5)
    assert record.result.status == "optimal" and record.result.detected_support == (0,)
    assert record.verdict == "fail"
    sel = selected_columns([record.result], 2, 1)
    holds = (X == x.reshape(1, 1, 3, 1)).all(axis=2)  # holds[j, l, k]: column k of block l equals x^l
    assert sel.tolist() == [[0]] and holds[0, 0, sel[0, 0]]
